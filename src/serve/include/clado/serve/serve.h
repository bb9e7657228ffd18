// clado::serve::Server — in-process serving front-end with dynamic
// micro-batching and admission control. One Server runs one model; its
// worker threads are the only concurrency in the serving front end.
//
// Data path: submit() admits a single-sample request into a bounded MPSC
// queue (bounded = backpressure: a full queue rejects immediately with
// kRejectedOverload, it never blocks the producer). `workers` plain
// threads, started by the constructor and joined by drain(), batch
// work-conservingly: a worker that finds the queue non-empty takes up to
// max_batch requests at once, stacks them into its Engine replica's pinned
// plan buffer and runs one batched forward there. Requests share a
// micro-batch only when they queued while every worker was busy.
// Requests whose deadline expired while queued are dropped before
// execution (kDeadlineExpired). drain() stops admission, finishes every
// already-admitted request, and joins the workers; the destructor drains.
//
// Observability: serve.* counters/gauges (submitted, completed, batches,
// rejected_overload, shed.*, deadline_expired, engine_errors, queue_depth,
// batch_size) feed the standard clado::obs dump; drain() publishes
// p50/p99/max latency gauges.
#pragma once

#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <condition_variable>

#include "clado/obs/obs.h"
#include "clado/serve/engine.h"
#include "clado/tensor/check.h"

namespace clado::serve {

enum class Status {
  kOk = 0,
  kRejectedOverload,  ///< shed at admission (queue saturated) — retry later
  kDeadlineExpired,   ///< deadline passed while queued; never executed
  kShutdown,          ///< submitted during/after drain
  kInvalidInput,      ///< sample shape does not match the engine
  kEngineError,       ///< forward threw; details in Response::error
  kUnknownModel,      ///< request named a model the fleet does not hold
};
/// One past the last valid Status value (wire decoders and the exhaustive
/// status_name round-trip test key off this instead of a magic constant).
inline constexpr std::uint32_t kNumStatuses =
    static_cast<std::uint32_t>(Status::kUnknownModel) + 1;

const char* status_name(Status s);

/// Admission priority under overload. When the queue saturates, best-effort
/// requests are shed first — once the queue holds ¾ of its capacity (at
/// least 1), and by eviction when an interactive request arrives at a full
/// queue.
enum class DeadlineClass : std::uint32_t {
  kInteractive = 0,  ///< shed only when the queue is hard-full
  kBestEffort = 1,   ///< shed once the queue holds max(1, queue_capacity·3/4)
};
inline constexpr std::uint32_t kNumDeadlineClasses = 2;

const char* deadline_class_name(DeadlineClass c);

struct Response {
  Status status = Status::kEngineError;
  std::int64_t predicted = -1;  ///< top-1 class (kOk only)
  Tensor logits;                ///< [num_classes] row for this request (kOk only)
  std::int64_t batch_size = 0;  ///< size of the micro-batch that served this request
  std::int64_t queue_us = 0;    ///< admission -> batch formation
  std::int64_t total_us = 0;    ///< admission -> completion
  std::string error;            ///< kEngineError details
};

struct ServerConfig {
  int workers = 2;                   ///< worker loops; engine needs >= this many replicas
  std::int64_t max_batch = 8;        ///< most queued requests one batch takes (<= plan capacity)
  std::int64_t queue_capacity = 256; ///< admission bound (backpressure past this)
  /// Admit requests but hold execution until resume(); lets tests and the
  /// batching bench enqueue a known backlog before the first batch forms.
  bool start_paused = false;

  /// Defaults overridden by CLADO_SERVE_WORKERS / _MAX_BATCH / _QUEUE_CAP
  /// (strict parsing; garbage throws).
  static ServerConfig from_env();
};

/// Order statistics over completed-request latencies.
struct LatencySummary {
  std::int64_t count = 0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
};

class Server {
 public:
  /// Throws std::invalid_argument when the engine has fewer replicas than
  /// `config.workers`, when `config.max_batch` exceeds the engine's
  /// plan_batch_capacity(), or when the config is out of range.
  Server(std::shared_ptr<Engine> engine, ServerConfig config = {});
  /// Drains (completes admitted work) before tearing down.
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Admits one sample [C, H, W] for inference. Never blocks: a saturated
  /// queue or a draining server resolves the future immediately with
  /// kRejectedOverload / kShutdown. `deadline_us` (0 = none) is the
  /// queueing budget relative to admission; a request still queued past it
  /// is dropped without executing. Best-effort requests are shed before
  /// interactive ones (see DeadlineClass); sheds are counted per class in
  /// serve.shed.interactive / serve.shed.best_effort.
  std::future<Response> submit(Tensor input, std::int64_t deadline_us = 0,
                               DeadlineClass klass = DeadlineClass::kInteractive);

  /// Requests admitted but not yet taken into a batch, as shown in the
  /// kStats line. A free worker takes queued requests as soon as it wakes,
  /// so this reads 0 while a worker is free and awake.
  std::int64_t queue_depth() const;

  /// Releases workers held by ServerConfig::start_paused.
  void resume();

  /// Graceful shutdown: stop admitting, finish every admitted request,
  /// join the workers, publish latency gauges. Idempotent.
  void drain();

  /// Nearest-rank p50/p99 and the maximum over the completed-request
  /// latencies in the reservoir of the most recent 64k requests.
  LatencySummary latency_summary() const;
  const ServerConfig& config() const { return config_; }
  const Engine& engine() const { return *engine_; }

 private:
  struct Pending {
    Tensor input;
    std::promise<Response> promise;
    std::int64_t enqueue_us = 0;
    std::int64_t deadline_us = 0;  ///< absolute (server clock); 0 = none
    DeadlineClass klass = DeadlineClass::kInteractive;
  };

  /// The serve.* counters and gauges, resolved once at construction (obs
  /// handles live for the whole process), so submit() and the workers
  /// never take the registry mutex or build a metric name.
  struct Metrics {
    clado::obs::Counter& submitted = clado::obs::counter("serve.submitted");
    clado::obs::Counter& completed = clado::obs::counter("serve.completed");
    clado::obs::Counter& batches = clado::obs::counter("serve.batches");
    clado::obs::Counter& rejected_overload = clado::obs::counter("serve.rejected_overload");
    clado::obs::Counter& shed_interactive = clado::obs::counter("serve.shed.interactive");
    clado::obs::Counter& shed_best_effort = clado::obs::counter("serve.shed.best_effort");
    clado::obs::Counter& deadline_expired = clado::obs::counter("serve.deadline_expired");
    clado::obs::Counter& engine_errors = clado::obs::counter("serve.engine_errors");
    clado::obs::Gauge& queue_depth = clado::obs::gauge("serve.queue_depth");
    clado::obs::Gauge& batch_size = clado::obs::gauge("serve.batch_size");
  };

  std::int64_t now_us() const;
  void worker_loop(int worker);
  /// Runs one formed batch; worker_loop has already answered the expired
  /// requests, so every entry of `live` reaches the engine. `logits` is the
  /// worker's persistent output tensor: the batch is memcpy'd into the
  /// plan's pinned buffer and infer_pinned writes logits in place, so
  /// steady-state batches allocate nothing.
  void execute_batch(int worker, std::vector<Pending>& live, std::int64_t formed_us,
                     Tensor& logits);

  std::shared_ptr<Engine> engine_;
  ServerConfig config_;
  std::chrono::steady_clock::time_point epoch_;
  const Metrics metrics_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;        ///< workers: work available / state change
  std::condition_variable drain_cv_;  ///< drain(): queue empty and no in-flight work
  std::deque<Pending> queue_ CLADO_GUARDED_BY(mutex_);
  int inflight_ CLADO_GUARDED_BY(mutex_) = 0;
  bool paused_ CLADO_GUARDED_BY(mutex_) = false;
  bool draining_ CLADO_GUARDED_BY(mutex_) = false;
  bool stop_ CLADO_GUARDED_BY(mutex_) = false;
  bool drained_ CLADO_GUARDED_BY(mutex_) = false;
  /// Completed-request samples (bounded reservoir).
  std::vector<double> latencies_ms_ CLADO_GUARDED_BY(mutex_);
  /// Ring cursor once the reservoir is full.
  std::size_t latency_overwrite_ CLADO_GUARDED_BY(mutex_) = 0;
  mutable std::mutex drain_mutex_;     ///< serializes concurrent drain() calls

  /// One thread per worker loop; drain() joins them.
  std::vector<std::thread> workers_;
};

}  // namespace clado::serve
