// clado::serve::Server — in-process serving front-end with dynamic
// micro-batching and admission control.
//
// Data path: submit() admits a single-sample request into a bounded MPSC
// queue (bounded = backpressure: a full queue rejects immediately with
// kRejectedOverload, it never blocks the producer). Worker loops — run as
// long-lived chunks of a dedicated tensor::ThreadPool via parallel_for, so
// serving reuses the pool's worker lifecycle instead of hand-rolled
// threads — coalesce compatible requests into micro-batches: a worker
// holds the oldest request for at most max_delay_us waiting for the queue
// to reach max_batch, then stacks the admitted inputs directly into its
// Engine replica's pinned plan buffer and runs a single batched forward
// there.
// Requests whose deadline expired while queued are dropped before
// execution (kDeadlineExpired). drain() stops admission, finishes every
// already-admitted request, and parks the workers; the destructor drains.
//
// Observability: serve.* counters/gauges (submitted, completed, batches,
// rejected_overload, deadline_expired, queue_depth, batch_size) feed the
// standard clado::obs dump; drain() publishes p50/p99/max latency gauges.
// With capture_traces on, each batch runs under an obs::TraceScope and
// every response carries the span tree of its batch — per-request
// timelines without polluting the process-global trace ring.
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
#include "clado/tensor/thread_pool.h"

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
/// requests are shed first — at a lower queue threshold, and by eviction
/// when an interactive request arrives at a full queue.
enum class DeadlineClass : std::uint32_t {
  kInteractive = 0,  ///< shed only when the queue is hard-full
  kBestEffort = 1,   ///< shed once the queue passes best_effort_cap
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
  /// Span tree of the executing batch (ServerConfig::capture_traces).
  std::vector<clado::obs::TraceScope::Event> trace;
};

struct ServerConfig {
  int workers = 2;                   ///< worker loops; engine needs >= this many replicas
  std::int64_t max_batch = 8;        ///< micro-batch size cap (<= engine plan capacity)
  std::int64_t max_delay_us = 2000;  ///< max time the oldest request waits for co-batching
  std::int64_t queue_capacity = 256; ///< admission bound (backpressure past this)
  /// Queue depth past which best-effort requests are shed; 0 = auto
  /// (3/4 of queue_capacity, at least 1). Interactive requests are only
  /// shed at queue_capacity, after trying to evict a queued best-effort.
  std::int64_t best_effort_cap = 0;
  bool capture_traces = false;       ///< attach per-request span trees to responses
  /// Admit requests but hold execution until resume(); lets tests and the
  /// batching bench enqueue a known backlog before the first batch forms.
  bool start_paused = false;

  /// Defaults overridden by CLADO_SERVE_WORKERS / _MAX_BATCH /
  /// _MAX_DELAY_US / _QUEUE_CAP / _BE_QUEUE_CAP (strict parsing; garbage
  /// throws).
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

  /// Requests admitted but not yet taken into a batch — the least-loaded
  /// dispatch key used by Fleet.
  std::int64_t queue_depth() const;

  /// Releases workers held by ServerConfig::start_paused.
  void resume();

  /// Graceful shutdown: stop admitting, finish every admitted request,
  /// park the workers, publish latency gauges. Idempotent.
  void drain();

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

  std::int64_t now_us() const;
  void worker_loop(int worker);
  /// Runs one formed batch; worker_loop has already answered the expired
  /// requests, so every entry of `live` reaches the engine. `logits` is the
  /// worker's persistent output tensor: the batch is memcpy'd into the
  /// plan's pinned buffer and infer_pinned writes logits in place, so
  /// steady-state batches allocate nothing.
  void execute_batch(int worker, std::vector<Pending> live, std::int64_t formed_us,
                     Tensor& logits);

  std::shared_ptr<Engine> engine_;
  ServerConfig config_;
  std::chrono::steady_clock::time_point epoch_;

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

  /// Worker loops live on this pool as `workers` parallel_for chunks; the
  /// dispatcher thread is the parallel_for caller (and runs one chunk).
  clado::tensor::ThreadPool pool_;
  std::thread dispatcher_;
};

}  // namespace clado::serve
