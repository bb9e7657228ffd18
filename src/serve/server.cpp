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

/// Queue depth at which best-effort requests are shed: ¾ of the queue, at
/// least one slot, so the rest stays reserved for interactive traffic.
std::int64_t best_effort_limit(std::int64_t queue_capacity) {
  return std::max<std::int64_t>(1, queue_capacity * 3 / 4);
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
  if (const auto v = env_int_strict("CLADO_SERVE_QUEUE_CAP", 1, 1 << 20)) {
    c.queue_capacity = *v;
  }
  return c;
}

Server::Server(std::shared_ptr<Engine> engine, ServerConfig config)
    : engine_(std::move(engine)),
      config_(config),
      epoch_(std::chrono::steady_clock::now()) {
  if (engine_ == nullptr) throw std::invalid_argument("Server: engine is null");
  if (config_.workers < 1) throw std::invalid_argument("Server: workers must be >= 1");
  if (config_.max_batch < 1) throw std::invalid_argument("Server: max_batch must be >= 1");
  if (config_.queue_capacity < 1) {
    throw std::invalid_argument("Server: queue_capacity must be >= 1");
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
  workers_.reserve(static_cast<std::size_t>(config_.workers));
  try {
    for (int w = 0; w < config_.workers; ++w) {
      workers_.emplace_back([this, w] { worker_loop(w); });
    }
  } catch (...) {
    // A thread that could not start: stop and join the ones that did, so
    // no joinable std::thread outlives the failed constructor.
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    for (std::thread& worker : workers_) worker.join();
    throw;
  }
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
    const std::int64_t be_limit = best_effort_limit(config_.queue_capacity);
    if (klass == DeadlineClass::kBestEffort && depth >= be_limit) {
      // Best-effort saturates early so the remaining headroom stays
      // reserved for interactive traffic.
      metrics_.rejected_overload.add();
      metrics_.shed_best_effort.add();
      return immediate(Status::kRejectedOverload,
                       "best-effort queue cap (" + std::to_string(be_limit) + ") reached");
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
      metrics_.rejected_overload.add();
      if (!evicted.has_value()) {
        (klass == DeadlineClass::kBestEffort ? metrics_.shed_best_effort
                                             : metrics_.shed_interactive)
            .add();
        return immediate(Status::kRejectedOverload,
                         "queue at capacity (" + std::to_string(config_.queue_capacity) + ")");
      }
      metrics_.shed_best_effort.add();
    }
    queue_.push_back(std::move(p));
    metrics_.submitted.add();
    metrics_.queue_depth.set(static_cast<double>(queue_.size()));
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
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();

  const LatencySummary lat = latency_summary();
  if (lat.count > 0) {
    clado::obs::gauge("serve.latency.p50_ms").set(lat.p50_ms);
    clado::obs::gauge("serve.latency.p99_ms").set(lat.p99_ms);
    clado::obs::gauge("serve.latency.max_ms").set(lat.max_ms);
  }
}

void Server::worker_loop(int worker) {
  // All three live across batches: infer_pinned reshapes `logits` only on a
  // batch-size change, and the vectors keep their capacity.
  Tensor logits;
  std::vector<Pending> batch;
  std::vector<Pending> expired;
  while (true) {
    std::int64_t formed_us = 0;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || (!paused_ && !queue_.empty()); });
      if (stop_ && queue_.empty()) return;

      // Work-conserving: take up to max_batch live requests now, never
      // waiting for company. Deadline admission happens here: a request
      // that waited past its budget is set aside without taking a batch
      // slot, so the batch fills from further back in the queue.
      formed_us = now_us();
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
      metrics_.queue_depth.set(static_cast<double>(queue_.size()));
    }

    const int took = static_cast<int>(batch.size() + expired.size());
    // Expired requests are answered outside the lock and never reach the
    // engine.
    for (Pending& p : expired) {
      metrics_.deadline_expired.add();
      Response r;
      r.status = Status::kDeadlineExpired;
      r.queue_us = formed_us - p.enqueue_us;
      r.total_us = r.queue_us;
      p.promise.set_value(std::move(r));
    }
    if (!batch.empty()) execute_batch(worker, batch, formed_us, logits);
    batch.clear();
    expired.clear();

    {
      // inflight_ was incremented at formation; completion is what
      // drain() waits on.
      const std::lock_guard<std::mutex> lock(mutex_);
      inflight_ -= took;
    }
    drain_cv_.notify_all();
  }
}

void Server::execute_batch(int worker, std::vector<Pending>& live, std::int64_t formed_us,
                           Tensor& logits) {
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
  const std::int64_t done_us = now_us();
  if (error.empty()) {
    metrics_.batches.add();
    metrics_.completed.add(n);
    metrics_.batch_size.set(static_cast<double>(n));
  } else {
    metrics_.engine_errors.add();
  }
  for (std::int64_t i = 0; i < n; ++i) {
    Pending& p = live[static_cast<std::size_t>(i)];
    Response r;
    if (error.empty()) {
      r.status = Status::kOk;
      r.logits = clado::tensor::slice_row(logits, i);
      r.predicted = r.logits.argmax();
    } else {
      r.status = Status::kEngineError;
      r.error = error;
    }
    r.batch_size = n;
    r.queue_us = formed_us - p.enqueue_us;
    r.total_us = done_us - p.enqueue_us;
    p.promise.set_value(std::move(r));
  }
  if (!error.empty()) return;
  // One acquisition records the whole batch's latencies.
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const Pending& p : live) {
    const double total_ms = static_cast<double>(done_us - p.enqueue_us) / 1000.0;
    if (latencies_ms_.size() < kLatencyCap) {
      latencies_ms_.push_back(total_ms);
    } else {
      latencies_ms_[latency_overwrite_++ % kLatencyCap] = total_ms;
    }
  }
}

LatencySummary Server::latency_summary() const {
  std::vector<double> samples_ms;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    samples_ms = latencies_ms_;
  }
  std::sort(samples_ms.begin(), samples_ms.end());
  LatencySummary s;
  s.count = static_cast<std::int64_t>(samples_ms.size());
  if (!samples_ms.empty()) {
    s.p50_ms = percentile(samples_ms, 0.50);
    s.p99_ms = percentile(samples_ms, 0.99);
    s.max_ms = samples_ms.back();
  }
  return s;
}

}  // namespace clado::serve
