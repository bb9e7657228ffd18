#include "clado/serve/serve.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <utility>

#include "clado/obs/obs.h"
#include "clado/tensor/env.h"
#include "clado/tensor/ops.h"

namespace clado::serve {

namespace {

/// Bound on the latency reservoir; long soaks overwrite oldest-first
/// rather than growing the sample vector without limit.
constexpr std::size_t kLatencyCap = std::size_t{1} << 16;

std::future<Response> immediate(Status status, std::string error = {}) {
  std::promise<Response> promise;
  Response r;
  r.status = status;
  r.error = std::move(error);
  promise.set_value(std::move(r));
  return promise.get_future();
}

double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::min(rank == 0 ? 0 : rank - 1, sorted.size() - 1)];
}

}  // namespace

const char* status_name(Status s) {
  switch (s) {
    case Status::kOk: return "OK";
    case Status::kRejectedOverload: return "REJECTED_OVERLOAD";
    case Status::kDeadlineExpired: return "DEADLINE_EXPIRED";
    case Status::kShutdown: return "SHUTDOWN";
    case Status::kInvalidInput: return "INVALID_INPUT";
    case Status::kEngineError: return "ENGINE_ERROR";
    case Status::kUnknownModel: return "UNKNOWN_MODEL";
  }
  return "UNKNOWN";
}

const char* deadline_class_name(DeadlineClass c) {
  switch (c) {
    case DeadlineClass::kInteractive: return "interactive";
    case DeadlineClass::kBestEffort: return "best_effort";
  }
  return "unknown";
}

ServerConfig ServerConfig::from_env() {
  using clado::tensor::env_int_strict;
  ServerConfig c;
  if (const auto v = env_int_strict("CLADO_SERVE_WORKERS", 1, 256)) {
    c.workers = static_cast<int>(*v);
  }
  if (const auto v = env_int_strict("CLADO_SERVE_MAX_BATCH", 1, 4096)) c.max_batch = *v;
  if (const auto v = env_int_strict("CLADO_SERVE_MAX_DELAY_US", 0, 60'000'000)) {
    c.max_delay_us = *v;
  }
  if (const auto v = env_int_strict("CLADO_SERVE_QUEUE_CAP", 1, 1 << 20)) {
    c.queue_capacity = *v;
  }
  if (const auto v = env_int_strict("CLADO_SERVE_BE_QUEUE_CAP", 1, 1 << 20)) {
    c.best_effort_cap = *v;
  }
  return c;
}

Server::Server(std::shared_ptr<Engine> engine, ServerConfig config)
    : engine_(std::move(engine)),
      config_(config),
      epoch_(std::chrono::steady_clock::now()),
      pool_(config.workers) {
  if (engine_ == nullptr) throw std::invalid_argument("Server: engine is null");
  if (config_.workers < 1) throw std::invalid_argument("Server: workers must be >= 1");
  if (config_.max_batch < 1) throw std::invalid_argument("Server: max_batch must be >= 1");
  if (config_.max_delay_us < 0) {
    throw std::invalid_argument("Server: max_delay_us must be >= 0");
  }
  if (config_.queue_capacity < 1) {
    throw std::invalid_argument("Server: queue_capacity must be >= 1");
  }
  if (config_.best_effort_cap < 0 || config_.best_effort_cap > config_.queue_capacity) {
    throw std::invalid_argument("Server: best_effort_cap must be in [0, queue_capacity]");
  }
  if (config_.best_effort_cap == 0) {
    config_.best_effort_cap = std::max<std::int64_t>(1, config_.queue_capacity * 3 / 4);
  }
  if (engine_->replicas() < config_.workers) {
    throw std::invalid_argument(
        "Server: engine has " + std::to_string(engine_->replicas()) +
        " replicas but the server needs one per worker (" +
        std::to_string(config_.workers) + "); load the engine with EngineSpec::replicas >= "
        "workers");
  }
  if (config_.max_batch > engine_->plan_batch_capacity()) {
    throw std::invalid_argument(
        "Server: max_batch " + std::to_string(config_.max_batch) +
        " exceeds the engine's plan capacity (" +
        std::to_string(engine_->plan_batch_capacity()) +
        "); load the engine with EngineSpec::max_batch >= the server's max_batch");
  }
  paused_ = config_.start_paused;
  latencies_ms_.reserve(std::min<std::size_t>(kLatencyCap, 1024));
  // The dispatcher issues one parallel_for whose chunks ARE the worker
  // loops (grain 1 → exactly `workers` chunks, and the dispatcher itself
  // executes one of them as the participating caller). parallel_for only
  // returns once every loop exits at stop_, which is what ~Server joins on.
  dispatcher_ = std::thread([this] {
    pool_.parallel_for(0, config_.workers, 1,
                       [this](std::int64_t begin, std::int64_t end) {
                         for (std::int64_t w = begin; w < end; ++w) {
                           worker_loop(static_cast<int>(w));
                         }
                       });
  });
}

Server::~Server() {
  drain();
}

std::int64_t Server::now_us() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

std::future<Response> Server::submit(Tensor input, std::int64_t deadline_us,
                                     DeadlineClass klass) {
  const Shape& want = engine_->sample_shape();
  if (input.dim() != 3 || input.size(0) != want[0] || input.size(1) != want[1] ||
      input.size(2) != want[2]) {
    return immediate(Status::kInvalidInput,
                     "expected sample of shape [" + std::to_string(want[0]) + ", " +
                         std::to_string(want[1]) + ", " + std::to_string(want[2]) +
                         "], got " + input.shape_str());
  }
  Pending p;
  p.input = std::move(input);
  p.enqueue_us = now_us();
  p.deadline_us = deadline_us > 0 ? p.enqueue_us + deadline_us : 0;
  p.klass = klass;
  std::future<Response> future = p.promise.get_future();
  // A shed best-effort Pending evicted to make room for an interactive
  // request; its promise is resolved after mutex_ is released.
  std::optional<Pending> evicted;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (draining_ || stop_) return immediate(Status::kShutdown);
    const auto depth = static_cast<std::int64_t>(queue_.size());
    if (klass == DeadlineClass::kBestEffort && depth >= config_.best_effort_cap) {
      // Best-effort saturates early so the remaining headroom stays
      // reserved for interactive traffic.
      clado::obs::counter("serve.rejected_overload").add();
      clado::obs::counter("serve.shed.best_effort").add();
      return immediate(Status::kRejectedOverload,
                       "best-effort queue cap (" + std::to_string(config_.best_effort_cap) +
                           ") reached");
    }
    if (depth >= config_.queue_capacity) {
      // Hard-full: an interactive request may still claim the slot of the
      // newest queued best-effort request (shed the cheapest work first —
      // it waited least, so evicting it wastes the least queueing time).
      if (klass == DeadlineClass::kInteractive) {
        for (auto it = queue_.rbegin(); it != queue_.rend(); ++it) {
          if (it->klass == DeadlineClass::kBestEffort) {
            evicted = std::move(*it);
            queue_.erase(std::next(it).base());
            break;
          }
        }
      }
      if (!evicted.has_value()) {
        clado::obs::counter("serve.rejected_overload").add();
        clado::obs::counter(std::string("serve.shed.") + deadline_class_name(klass)).add();
        return immediate(Status::kRejectedOverload,
                         "queue at capacity (" + std::to_string(config_.queue_capacity) + ")");
      }
      clado::obs::counter("serve.rejected_overload").add();
      clado::obs::counter("serve.shed.best_effort").add();
    }
    queue_.push_back(std::move(p));
    clado::obs::counter("serve.submitted").add();
    clado::obs::gauge("serve.queue_depth").set(static_cast<double>(queue_.size()));
  }
  if (evicted.has_value()) {
    Response r;
    r.status = Status::kRejectedOverload;
    r.error = "evicted by an interactive request at full queue";
    evicted->promise.set_value(std::move(r));
  }
  cv_.notify_one();
  return future;
}

std::int64_t Server::queue_depth() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<std::int64_t>(queue_.size());
}

void Server::resume() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    paused_ = false;
  }
  cv_.notify_all();
}

void Server::drain() {
  const std::lock_guard<std::mutex> drain_lock(drain_mutex_);
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (drained_) return;
    draining_ = true;
    paused_ = false;
    cv_.notify_all();
    drain_cv_.wait(lock, [this] { return queue_.empty() && inflight_ == 0; });
    stop_ = true;
    drained_ = true;
    cv_.notify_all();
  }
  if (dispatcher_.joinable()) dispatcher_.join();

  const LatencySummary lat = latency_summary();
  if (lat.count > 0) {
    clado::obs::gauge("serve.latency.p50_ms").set(lat.p50_ms);
    clado::obs::gauge("serve.latency.p99_ms").set(lat.p99_ms);
    clado::obs::gauge("serve.latency.max_ms").set(lat.max_ms);
  }
}

void Server::worker_loop(int worker) {
  // Lives across batches so infer_pinned reuses its capacity; only a
  // batch-size change reshapes it.
  Tensor logits;
  while (true) {
    std::vector<Pending> batch;
    std::vector<Pending> expired;
    std::int64_t formed_us = 0;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || (!paused_ && !queue_.empty()); });
      if (stop_ && queue_.empty()) return;
      if (queue_.empty() || paused_) continue;

      // Batching window: hold the oldest request until either max_batch
      // requests are queued or max_delay_us has elapsed since it arrived.
      // Draining flushes immediately — latency no longer buys throughput.
      const std::int64_t window_end = queue_.front().enqueue_us + config_.max_delay_us;
      while (static_cast<std::int64_t>(queue_.size()) < config_.max_batch && !draining_ &&
             !stop_ && !paused_) {
        const std::int64_t now = now_us();
        if (now >= window_end) break;
        cv_.wait_for(lock, std::chrono::microseconds(window_end - now));
      }
      if (queue_.empty() || paused_) continue;  // another worker took the batch

      // Deadline admission happens at formation: a request that waited
      // past its budget is set aside without taking a batch slot, so the
      // batch fills with live requests from further back in the queue.
      formed_us = now_us();
      batch.reserve(static_cast<std::size_t>(
          std::min<std::int64_t>(config_.max_batch, static_cast<std::int64_t>(queue_.size()))));
      while (!queue_.empty() && static_cast<std::int64_t>(batch.size()) < config_.max_batch) {
        Pending& p = queue_.front();
        if (p.deadline_us > 0 && formed_us > p.deadline_us) {
          expired.push_back(std::move(p));
        } else {
          batch.push_back(std::move(p));
        }
        queue_.pop_front();
      }
      inflight_ += static_cast<int>(batch.size() + expired.size());
      clado::obs::gauge("serve.queue_depth").set(static_cast<double>(queue_.size()));
    }

    const int took = static_cast<int>(batch.size() + expired.size());
    // Expired requests are answered outside the lock and never reach the
    // engine.
    for (Pending& p : expired) {
      clado::obs::counter("serve.deadline_expired").add();
      Response r;
      r.status = Status::kDeadlineExpired;
      r.queue_us = formed_us - p.enqueue_us;
      r.total_us = r.queue_us;
      p.promise.set_value(std::move(r));
    }
    if (!batch.empty()) execute_batch(worker, std::move(batch), formed_us, logits);

    {
      // inflight_ was incremented at formation; completion is what
      // drain() waits on.
      const std::lock_guard<std::mutex> lock(mutex_);
      inflight_ -= took;
    }
    drain_cv_.notify_all();
  }
}

void Server::execute_batch(int worker, std::vector<Pending> live, std::int64_t formed_us,
                           Tensor& logits) {
  std::optional<clado::obs::TraceScope> scope;
  if (config_.capture_traces) scope.emplace();

  const auto n = static_cast<std::int64_t>(live.size());
  std::string error;
  {
    clado::obs::Span span("serve/batch");
    try {
      // Stack straight into the plan's pinned batch buffer — no
      // [N, C, H, W] tensor is ever materialized.
      float* pin = engine_->batch_buffer(worker);
      const std::int64_t per_sample = live.front().input.numel();
      for (std::int64_t i = 0; i < n; ++i) {
        std::memcpy(pin + i * per_sample, live[static_cast<std::size_t>(i)].input.data(),
                    sizeof(float) * static_cast<std::size_t>(per_sample));
      }
      engine_->infer_pinned(n, logits, worker);
    } catch (const std::exception& e) {
      error = e.what();
    }
    span.close();
  }
  std::vector<clado::obs::TraceScope::Event> trace;
  if (scope.has_value()) trace = scope->take_events();

  const std::int64_t done_us = now_us();
  if (!error.empty()) {
    clado::obs::counter("serve.engine_errors").add();
    for (Pending& p : live) {
      Response r;
      r.status = Status::kEngineError;
      r.error = error;
      r.batch_size = static_cast<std::int64_t>(live.size());
      r.queue_us = formed_us - p.enqueue_us;
      r.total_us = done_us - p.enqueue_us;
      r.trace = trace;
      p.promise.set_value(std::move(r));
    }
    return;
  }

  clado::obs::counter("serve.batches").add();
  clado::obs::counter("serve.completed").add(static_cast<std::int64_t>(live.size()));
  clado::obs::gauge("serve.batch_size").set(static_cast<double>(live.size()));
  for (std::size_t i = 0; i < live.size(); ++i) {
    Pending& p = live[i];
    Response r;
    r.status = Status::kOk;
    r.logits = clado::tensor::slice_row(logits, static_cast<std::int64_t>(i));
    r.predicted = r.logits.argmax();
    r.batch_size = static_cast<std::int64_t>(live.size());
    r.queue_us = formed_us - p.enqueue_us;
    r.total_us = done_us - p.enqueue_us;
    r.trace = trace;
    const double total_ms = static_cast<double>(r.total_us) / 1000.0;
    p.promise.set_value(std::move(r));
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (latencies_ms_.size() < kLatencyCap) {
        latencies_ms_.push_back(total_ms);
      } else {
        latencies_ms_[static_cast<std::size_t>(latency_overwrite_++) % kLatencyCap] = total_ms;
      }
    }
  }
}

LatencySummary Server::latency_summary() const {
  std::vector<double> sorted;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    sorted = latencies_ms_;
  }
  std::sort(sorted.begin(), sorted.end());
  LatencySummary s;
  s.count = static_cast<std::int64_t>(sorted.size());
  if (!sorted.empty()) {
    s.p50_ms = percentile(sorted, 0.50);
    s.p99_ms = percentile(sorted, 0.99);
    s.max_ms = sorted.back();
  }
  return s;
}

}  // namespace clado::serve
