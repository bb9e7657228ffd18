// The serving user's path: a frozen mixed-precision engine behind
// serve::Server (in-process, open loop) and behind a SocketDaemon over UDS
// (closed loop), plus the exactness checks and per-batch plan timings.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <future>
#include <string>

#include "bench.h"
#include "clado/obs/obs.h"
#include "clado/serve/wire.h"

namespace perfbench {

using clado::serve::BackendMode;
using clado::serve::DeadlineClass;
using clado::serve::Engine;
using clado::serve::EngineSpec;
using clado::serve::Fusion;
using clado::serve::Response;
using clado::serve::Server;
using clado::serve::ServerConfig;
using clado::serve::Status;
using clado::tensor::Tensor;

namespace {

/// splitmix64: the sample behind request i is a pure function of the seed,
/// the round and i.
std::uint64_t mix(std::uint64_t seed, std::uint64_t round, std::uint64_t index) {
  std::uint64_t z = seed * 0xD1B54A32D192ED03ULL + round * 0x9E3779B97F4A7C15ULL + index + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

const Tensor& pick(const std::vector<Tensor>& samples, std::uint64_t seed, std::uint64_t round,
                   std::uint64_t index) {
  return samples[mix(seed, round, index) % samples.size()];
}

bool same_bits(const float* a, const float* b, std::int64_t n) {
  return std::memcmp(a, b, sizeof(float) * static_cast<std::size_t>(n)) == 0;
}

}  // namespace

ServingStack::ServingStack(const clado::models::Model& model, const std::vector<int>& bits,
                           const std::string& socket_path, Layers& layers)
    : socket_path_(socket_path) {
  const ServerConfig config{};
  EngineSpec spec;
  spec.bits = bits;
  spec.replicas = config.workers;
  spec.label = "mixed";
  spec.max_batch = config.max_batch;
  spec.fusion = Fusion::kOn;
  spec.backend = BackendMode::kOn;
  clado::obs::Span load("perfbench/engine_load");
  engine_ = std::make_shared<Engine>(model.clone(), std::move(spec));
  layers.add("serve.engine_load_s", load.close(), "s");

  server_ = std::make_shared<Server>(engine_, config);
  fleet_.put(engine_->model_name(), {server_});
  clado::serve::DaemonOptions options;
  options.socket_path = socket_path_;
  daemon_ = std::make_unique<clado::serve::SocketDaemon>(fleet_, options);
  daemon_thread_ = std::thread([this] {
    try {
      daemon_->run();
    } catch (const std::exception& e) {
      daemon_error_ = e.what();
    }
  });
}

ServingStack::~ServingStack() { stop(); }

std::string ServingStack::stop() {
  if (daemon_thread_.joinable()) {
    daemon_->stop();
    daemon_thread_.join();
  }
  return daemon_error_;
}

void Tally::merge(const Tally& other) {
  sent += other.sent;
  ok += other.ok;
  refused += other.refused;
  expired += other.expired;
  errors += other.errors;
  unaccounted += other.unaccounted;
  latency_ms.append(other.latency_ms);
  queue_ms.append(other.queue_ms);
  exec_ms.append(other.exec_ms);
  batch.append(other.batch);
  late_ms.append(other.late_ms);
  goodput_rps.append(other.goodput_rps);
  goodput_interactive_rps.append(other.goodput_interactive_rps);
  goodput_best_effort_rps.append(other.goodput_best_effort_rps);
}

Tally open_loop_round(ServingStack& stack, const Workload& w, const Rate& rate,
                      const std::vector<Tensor>& samples, std::uint64_t seed,
                      std::int64_t round_index) {
  Tally tally;
  const auto n = std::max<std::int64_t>(1, std::llround(rate.rps * rate.round_s));
  const auto interval = std::chrono::nanoseconds(std::llround(1e9 / rate.rps));
  const auto deadline_us = rate.deadline ? std::llround(deadline_ms(w) * 1000.0) : 0;
  const auto best_effort_below = static_cast<std::uint64_t>(kBestEffortShare * 4294967296.0);
  const auto round = static_cast<std::uint64_t>(round_index);
  std::vector<std::future<Response>> futures(static_cast<std::size_t>(n));
  std::vector<Clock::time_point> due(static_cast<std::size_t>(n));
  std::vector<Clock::time_point> sent(static_cast<std::size_t>(n));
  std::vector<DeadlineClass> klass(static_cast<std::size_t>(n));

  const clado::obs::Span span(std::string("perfbench/open_loop_") + rate.name);
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(1);
  for (std::int64_t i = 0; i < n; ++i) {
    const auto k = static_cast<std::size_t>(i);
    due[k] = start + i * interval;
    std::this_thread::sleep_until(due[k]);
    // The class hashes a stream apart from the sample's, as loadgen does.
    klass[k] = (mix(seed, round | (1ULL << 41), static_cast<std::uint64_t>(i)) & 0xFFFFFFFFULL) <
                       best_effort_below
                   ? DeadlineClass::kBestEffort
                   : DeadlineClass::kInteractive;
    sent[k] = Clock::now();
    futures[k] = stack.server().submit(pick(samples, seed, round, static_cast<std::uint64_t>(i)),
                                       deadline_us, klass[k]);
  }

  std::int64_t good[clado::serve::kNumDeadlineClasses] = {};
  for (std::int64_t i = 0; i < n; ++i) {
    const auto k = static_cast<std::size_t>(i);
    ++tally.sent;
    tally.late_ms.add(ms_between(due[k], sent[k]));
    // Bounded wait: a request the server never answers is counted, and
    // the run still ends.
    if (futures[k].wait_for(std::chrono::seconds(30)) != std::future_status::ready) {
      ++tally.unaccounted;
      continue;
    }
    const Response r = futures[k].get();
    switch (r.status) {
      case Status::kOk: {
        const double latency = ms_between(due[k], sent[k]) + static_cast<double>(r.total_us) / 1e3;
        ++tally.ok;
        if (latency <= limit_ms(w)) ++good[static_cast<std::size_t>(klass[k])];
        tally.latency_ms.add(latency);
        tally.queue_ms.add(static_cast<double>(r.queue_us) / 1e3);
        tally.exec_ms.add(static_cast<double>(r.total_us - r.queue_us) / 1e3);
        tally.batch.add(static_cast<double>(r.batch_size));
        break;
      }
      case Status::kRejectedOverload: ++tally.refused; break;
      case Status::kDeadlineExpired: ++tally.expired; break;
      default: ++tally.errors; break;
    }
  }
  const double per_request_rps = rate.rps / static_cast<double>(n);
  const auto interactive =
      static_cast<double>(good[static_cast<std::size_t>(DeadlineClass::kInteractive)]);
  const auto best_effort =
      static_cast<double>(good[static_cast<std::size_t>(DeadlineClass::kBestEffort)]);
  tally.goodput_rps.add((interactive + best_effort) * per_request_rps);
  tally.goodput_interactive_rps.add(interactive * per_request_rps);
  tally.goodput_best_effort_rps.add(best_effort * per_request_rps);
  return tally;
}

void uds_round(ServingStack& stack, int clients, double seconds,
               const std::vector<Tensor>& samples, std::uint64_t seed, std::int64_t round_index,
               UdsTally& tally) {
  std::vector<UdsTally> per(static_cast<std::size_t>(clients));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  const clado::obs::Span span("perfbench/uds_round");
  const Clock::time_point end =
      Clock::now() + std::chrono::microseconds(std::llround(seconds * 1e6));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      UdsTally& mine = per[static_cast<std::size_t>(c)];
      const auto stream = static_cast<std::uint64_t>(round_index * clients + c) | (1ULL << 40);
      try {
        clado::serve::ClientConnection conn(stack.socket_path());
        for (std::uint64_t i = 0; Clock::now() < end; ++i) {
          clado::serve::WireRequest req;
          req.input = pick(samples, seed, stream, i);
          ++mine.sent;
          const Clock::time_point t0 = Clock::now();
          const clado::serve::WireResponse resp = conn.roundtrip(req);
          const double rtt = ms_between(t0, Clock::now());
          if (resp.status != Status::kOk) {
            ++mine.failed;
            continue;
          }
          ++mine.ok;
          mine.rtt_ms.add(rtt);
          mine.overhead_ms.add(rtt - static_cast<double>(resp.total_us) / 1e3);
        }
      } catch (const std::exception&) {
        // Transport failure: the request in flight never resolved.
        ++mine.failed;
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const UdsTally& t : per) {
    tally.sent += t.sent;
    tally.ok += t.ok;
    tally.failed += t.failed;
    tally.rtt_ms.append(t.rtt_ms);
    tally.overhead_ms.append(t.overhead_ms);
  }
}

void probe_check(ServingStack& stack, const clado::data::SynthCvDataset& val, Checks& checks) {
  constexpr std::int64_t kProbes = 8;
  std::int64_t equal = 0;
  for (std::int64_t i = 0; i < kProbes; ++i) {
    // One request at a time, so each forms a batch of one on an idle server
    // and the replica is free for the direct call afterwards.
    const Response r = stack.server().submit(val.image_of(i)).get();
    const Tensor ref = stack.engine().infer(val.make_range_batch(i, 1).images, 0);
    if (r.status == Status::kOk && r.logits.numel() == ref.numel() &&
        same_bits(r.logits.data(), ref.data(), ref.numel())) {
      ++equal;
    }
  }
  checks.expect(equal == kProbes, "server logits equal Engine::infer on " +
                                      std::to_string(equal) + "/" + std::to_string(kProbes) +
                                      " probes");
}

double served_top1(ServingStack& stack, const clado::data::SynthCvDataset& val) {
  const std::int64_t chunk = stack.engine().plan_batch_capacity();
  std::int64_t correct = 0;
  for (std::int64_t first = 0; first < kValSamples; first += chunk) {
    const std::int64_t n = std::min(chunk, kValSamples - first);
    const auto batch = val.make_range_batch(first, n);
    const Tensor logits = stack.engine().infer(batch.images, 0);
    const std::int64_t classes = logits.size(1);
    for (std::int64_t r = 0; r < n; ++r) {
      const float* row = logits.data() + r * classes;
      const auto top = std::max_element(row, row + classes) - row;
      if (top == batch.labels[static_cast<std::size_t>(r)]) ++correct;
    }
  }
  return 100.0 * static_cast<double>(correct) / static_cast<double>(kValSamples);
}

void plan_timings(const clado::models::Model& model, const std::vector<int>& mixed_bits,
                  const clado::data::SynthCvDataset& val, Layers& layers) {
  constexpr std::int64_t kMaxBatch = 32;
  struct Precision {
    const char* name;
    std::vector<int> bits;
    BackendMode backend;
  };
  const std::vector<Precision> precisions = {
      {"fp32", {}, BackendMode::kOff},
      {"int8", std::vector<int>(model.quant_layers.size(), 8), BackendMode::kOn},
      {"mixed", mixed_bits, BackendMode::kOn},
  };
  const auto staged = val.make_range_batch(0, kMaxBatch);
  for (const Precision& p : precisions) {
    EngineSpec spec;
    spec.bits = p.bits;
    spec.label = p.name;
    spec.max_batch = kMaxBatch;
    spec.fusion = Fusion::kOn;
    spec.backend = p.backend;
    Engine engine(model.clone(), std::move(spec));
    Tensor out;
    for (const std::int64_t n : {1, 8, 32}) {
      // The plan may reuse its input buffer as scratch, so every call
      // restages the batch (untimed).
      const auto stage = [&] {
        std::memcpy(engine.batch_buffer(0), staged.images.data(),
                    sizeof(float) * static_cast<std::size_t>(staged.images.numel()));
      };
      for (int warm = 0; warm < 3; ++warm) {
        stage();
        engine.infer_pinned(n, out, 0);
      }
      Samples ms;
      const Clock::time_point until = Clock::now() + std::chrono::milliseconds(200);
      while (ms.size() < 10 || Clock::now() < until) {
        stage();
        const Clock::time_point t0 = Clock::now();
        engine.infer_pinned(n, out, 0);
        ms.add(ms_between(t0, Clock::now()));
      }
      layers.add(std::string("plan.") + p.name + ".b" + std::to_string(n) + "_ms", ms.median(),
                 "ms");
    }
  }
}

}  // namespace perfbench
