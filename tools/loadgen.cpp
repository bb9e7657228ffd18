// loadgen — deterministic closed-loop load generator for a running clado
// serve daemon. The chaos half of the serving story: fault_soak.sh points
// it at a live daemon (over UDS or TCP) while fault sites fire, and the
// report proves every request resolved with a definite status.
//
//   loadgen --endpoint=<e> [--requests=N] [--clients=N] [--seed=N]
//           [--best-effort=F] [--deadline-us=N] [--model=NAME]
//
//   --endpoint=<e>     "/path.sock" | "unix:/path" | "tcp:<port>" |
//                      "tcp:<host>:<port>"
//   --requests=<n>     total requests across all clients (default 256)
//   --clients=<n>      concurrent closed-loop connections, one thread each
//                      (default 4, at most 256)
//   --seed=<n>         deterministic stream seed (default 1)
//   --best-effort=<f>  fraction of requests sent as kBestEffort (default 0.5)
//   --deadline-us=<n>  per-request queueing budget (default none)
//   --model=<name>     fleet routing key (default: the daemon's sole model)
//
// A numeric flag that does not parse, or falls outside its range, is an
// error (exit 2) naming the flag.
//
// Determinism: request i's deadline class and sample index are pure
// functions of (seed, i) — NOT of which client happens to send it — so the
// per-class sent counts are reproducible even though closed-loop clients
// race on the shared request counter. That is what lets CI diff the
// loadgen.* counters against a checked-in baseline.
//
// Accounting invariant (asserted; exit 1 on violation): every request is
// either resolved (daemon answered a definite Status) or a transport
// error (connection died; the client reconnects and moves on) —
// unaccounted is always zero unless the harness itself is broken, and a
// hung daemon shows up as loadgen never printing the report at all.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "clado/data/synthcv.h"
#include "clado/models/zoo.h"
#include "clado/obs/obs.h"
#include "clado/serve/serve.h"
#include "clado/serve/socket.h"
#include "clado/serve/wire.h"
#include "clado/tensor/env.h"

namespace {

using clado::serve::DeadlineClass;
using clado::serve::Status;

struct Options {
  std::string endpoint;
  std::int64_t requests = 256;
  std::int64_t clients = 4;
  std::uint64_t seed = 1;
  double best_effort = 0.5;
  std::int64_t deadline_us = 0;
  std::string model;
};

int usage() {
  std::fprintf(stderr,
               "usage: loadgen --endpoint=E [--requests=N] [--clients=N] [--seed=N] "
               "[--best-effort=F] [--deadline-us=N] [--model=NAME]\n");
  return 2;
}

/// The value of `arg` ("<name>=<value>") as an integer in [lo, hi]; throws
/// std::invalid_argument naming the flag otherwise.
std::int64_t int_flag(const std::string& arg, const std::string& name, std::int64_t lo,
                      std::int64_t hi) {
  return clado::tensor::parse_int_strict(arg.substr(name.size() + 1), lo, hi, name);
}

bool parse_flags(int argc, char** argv, Options& opts) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--endpoint=", 0) == 0) {
      opts.endpoint = arg.substr(11);
    } else if (arg.rfind("--requests=", 0) == 0) {
      opts.requests = int_flag(arg, "--requests", 1, 1 << 24);
    } else if (arg.rfind("--clients=", 0) == 0) {
      opts.clients = int_flag(arg, "--clients", 1, 256);
    } else if (arg.rfind("--seed=", 0) == 0) {
      opts.seed = static_cast<std::uint64_t>(
          int_flag(arg, "--seed", 0, std::numeric_limits<std::int64_t>::max()));
    } else if (arg.rfind("--best-effort=", 0) == 0) {
      opts.best_effort = clado::tensor::parse_double_strict(arg.substr(14), "--best-effort");
      if (opts.best_effort < 0.0 || opts.best_effort > 1.0) {
        throw std::invalid_argument("--best-effort must be a fraction in [0, 1]");
      }
    } else if (arg.rfind("--deadline-us=", 0) == 0) {
      opts.deadline_us = int_flag(arg, "--deadline-us", 0, 60'000'000);
    } else if (arg.rfind("--model=", 0) == 0) {
      opts.model = arg.substr(8);
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return false;
    }
  }
  return !opts.endpoint.empty();
}

bool parse(int argc, char** argv, Options& opts) {
  try {
    return parse_flags(argc, argv, opts);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return false;
  }
}

/// splitmix64: request properties are a hash of (seed, index), never of
/// thread scheduling.
std::uint64_t mix(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (index + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

struct Tally {
  std::atomic<std::int64_t> sent{0};
  std::atomic<std::int64_t> sent_by_class[clado::serve::kNumDeadlineClasses] = {};
  std::atomic<std::int64_t> by_status[clado::serve::kNumStatuses] = {};
  std::atomic<std::int64_t> resolved{0};
  std::atomic<std::int64_t> transport_errors{0};
  std::mutex latency_mutex;
  std::vector<double> latency_ms[clado::serve::kNumDeadlineClasses];
};

double percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(p * static_cast<double>(sorted.size() - 1));
  return sorted[idx];
}

void client_loop(const Options& opts, const clado::data::SynthCvDataset& val,
                 std::atomic<std::int64_t>& next, Tally& tally) {
  std::unique_ptr<clado::serve::ClientConnection> conn;
  const auto be_threshold =
      static_cast<std::uint64_t>(opts.best_effort * 4294967296.0);
  while (true) {
    const std::int64_t i = next.fetch_add(1);
    if (i >= opts.requests) break;
    const std::uint64_t h = mix(opts.seed, static_cast<std::uint64_t>(i));
    const DeadlineClass klass = (h & 0xFFFFFFFFull) < be_threshold
                                    ? DeadlineClass::kBestEffort
                                    : DeadlineClass::kInteractive;
    clado::serve::WireRequest req;
    req.type = clado::serve::MsgType::kInfer;
    req.klass = klass;
    req.deadline_us = opts.deadline_us;
    req.model = opts.model;
    // Samples are procedural and random-access; any index is valid.
    req.input = val.image_of(static_cast<std::int64_t>(h >> 32) % 4096);
    tally.sent.fetch_add(1);
    tally.sent_by_class[static_cast<std::size_t>(klass)].fetch_add(1);
    const auto start = std::chrono::steady_clock::now();
    try {
      if (!conn) conn = std::make_unique<clado::serve::ClientConnection>(opts.endpoint);
      const auto resp = conn->roundtrip(req);
      const double ms =
          std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
              .count();
      tally.resolved.fetch_add(1);
      const auto status = static_cast<std::size_t>(resp.status);
      if (status < clado::serve::kNumStatuses) tally.by_status[status].fetch_add(1);
      const std::lock_guard<std::mutex> lock(tally.latency_mutex);
      tally.latency_ms[static_cast<std::size_t>(klass)].push_back(ms);
    } catch (const std::exception&) {
      // Connection died (daemon restart, injected accept drop, read
      // timeout): burn this connection and reconnect for the next request.
      tally.transport_errors.fetch_add(1);
      conn.reset();
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  if (!parse(argc, argv, opts)) return usage();

  const auto val = clado::models::zoo_val_set();
  Tally tally;
  std::atomic<std::int64_t> next{0};
  std::vector<std::thread> clients;
  clients.reserve(static_cast<std::size_t>(opts.clients));
  for (std::int64_t c = 0; c < opts.clients; ++c) {
    clients.emplace_back(
        [&opts, &val, &next, &tally] { client_loop(opts, val, next, tally); });
  }
  for (auto& t : clients) t.join();

  const std::int64_t sent = tally.sent.load();
  const std::int64_t resolved = tally.resolved.load();
  const std::int64_t transport = tally.transport_errors.load();
  const std::int64_t unaccounted = sent - resolved - transport;
  const std::int64_t shed =
      tally.by_status[static_cast<std::size_t>(Status::kRejectedOverload)].load();

  clado::obs::counter("loadgen.sent").add(sent);
  clado::obs::counter("loadgen.sent.interactive")
      .add(tally.sent_by_class[static_cast<std::size_t>(DeadlineClass::kInteractive)].load());
  clado::obs::counter("loadgen.sent.best_effort")
      .add(tally.sent_by_class[static_cast<std::size_t>(DeadlineClass::kBestEffort)].load());
  clado::obs::counter("loadgen.resolved").add(resolved);
  for (std::uint32_t s = 0; s < clado::serve::kNumStatuses; ++s) {
    const std::int64_t n = tally.by_status[s].load();
    if (n > 0) {
      clado::obs::counter(std::string("loadgen.status.") +
                          clado::serve::status_name(static_cast<Status>(s)))
          .add(n);
    }
  }
  clado::obs::gauge("loadgen.transport_errors").set(static_cast<double>(transport));
  clado::obs::gauge("loadgen.unaccounted").set(static_cast<double>(unaccounted));
  clado::obs::gauge("loadgen.shed").set(static_cast<double>(shed));

  std::printf("loadgen: endpoint=%s requests=%lld clients=%lld seed=%llu best_effort=%.2f\n",
              opts.endpoint.c_str(), static_cast<long long>(opts.requests),
              static_cast<long long>(opts.clients),
              static_cast<unsigned long long>(opts.seed), opts.best_effort);
  std::printf("  sent=%lld (interactive=%lld best_effort=%lld)\n",
              static_cast<long long>(sent),
              static_cast<long long>(
                  tally.sent_by_class[static_cast<std::size_t>(DeadlineClass::kInteractive)]
                      .load()),
              static_cast<long long>(
                  tally.sent_by_class[static_cast<std::size_t>(DeadlineClass::kBestEffort)]
                      .load()));
  std::printf("  resolved=%lld transport_errors=%lld unaccounted=%lld\n",
              static_cast<long long>(resolved), static_cast<long long>(transport),
              static_cast<long long>(unaccounted));
  std::printf("  status:");
  for (std::uint32_t s = 0; s < clado::serve::kNumStatuses; ++s) {
    const std::int64_t n = tally.by_status[s].load();
    if (n > 0) {
      std::printf(" %s=%lld", clado::serve::status_name(static_cast<Status>(s)),
                  static_cast<long long>(n));
    }
  }
  std::printf("\n");
  for (std::uint32_t k = 0; k < clado::serve::kNumDeadlineClasses; ++k) {
    auto& lat = tally.latency_ms[k];
    std::sort(lat.begin(), lat.end());
    std::printf("  latency_ms %s: n=%zu p50=%.2f p99=%.2f max=%.2f\n",
                clado::serve::deadline_class_name(static_cast<DeadlineClass>(k)), lat.size(),
                percentile(lat, 0.50), percentile(lat, 0.99),
                lat.empty() ? 0.0 : lat.back());
  }

  if (unaccounted != 0) {
    std::fprintf(stderr, "loadgen: %lld requests unaccounted for\n",
                 static_cast<long long>(unaccounted));
    return 1;
  }
  return 0;
}
