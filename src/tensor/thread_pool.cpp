#include "clado/tensor/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <optional>

#include "clado/fault/fault.h"
#include "clado/obs/obs.h"
#include "clado/tensor/env.h"

namespace clado::tensor {

// Bookkeeping shared by all runners of one parallel_for call. Held through
// a shared_ptr by every queued runner so a runner popped after the call has
// already completed (all chunks claimed by other threads) still sees live
// state and exits cleanly.
struct ThreadPool::ForState {
  std::function<void(std::int64_t, std::int64_t)> body;
  std::int64_t begin = 0;
  std::int64_t end = 0;
  std::int64_t grain = 1;
  std::int64_t num_chunks = 0;

  std::atomic<std::int64_t> next_chunk{0};
  std::atomic<std::int64_t> done_chunks{0};

  std::mutex error_mutex;
  std::exception_ptr error CLADO_GUARDED_BY(error_mutex);
  std::int64_t error_chunk CLADO_GUARDED_BY(error_mutex) = -1;

  std::mutex done_mutex;
  std::condition_variable done_cv;

  // Records the failure of chunk `c`, keeping the lowest chunk index so
  // the rethrow is deterministic.
  void record_error(std::int64_t c) {
    std::lock_guard<std::mutex> lock(error_mutex);
    if (error_chunk < 0 || c < error_chunk) {
      error_chunk = c;
      error = std::current_exception();
    }
  }

  // Claims and runs chunks until none remain; a pool helper (span_chunks)
  // times each of its chunks as a `pool/task` span. Only a failure of the
  // PRE-BODY injection site is retried (once): at that point the body has
  // not written anything, so re-running cannot double-apply work. A throw
  // from the body itself is never retried — GEMM-style bodies ACCUMULATE
  // into their output (c[j] += ...), so a body that dies mid-chunk leaves
  // partial sums behind and re-running it would silently add onto them
  // (the old retry-in-place did exactly that; pinned by
  // ThreadPool.ThrowingBodyIsNotRetriedAfterPartialWrites). Body failures
  // are recorded and rethrown after the remaining chunks drain.
  void run_chunks(bool span_chunks) {
    for (;;) {
      const std::int64_t c = next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (c >= num_chunks) return;
      run_chunk(c, span_chunks);
      // Nothing may touch obs after this increment: the last one releases
      // the caller, and the process may exit while this thread runs on.
      if (done_chunks.fetch_add(1) + 1 == num_chunks) {
        std::lock_guard<std::mutex> lock(done_mutex);
        done_cv.notify_all();
      }
    }
  }

  void run_chunk(std::int64_t c, bool span_chunks) {
    std::optional<clado::obs::Span> span;
    if (span_chunks) span.emplace("pool/task");
    const std::int64_t cb = begin + c * grain;
    const std::int64_t ce = std::min(end, cb + grain);
    bool faulted = false;
    for (int attempt = 0; attempt < 2; ++attempt) {
      try {
        clado::fault::maybe_throw(clado::fault::Site::kPoolTask,
                                  "thread pool: injected task failure");
        faulted = false;
        break;
      } catch (...) {
        faulted = true;
        clado::obs::counter("pool.task_failures").add();
        if (attempt == 0) {
          clado::obs::counter("pool.chunk_retries").add();
        } else {
          record_error(c);
        }
      }
    }
    if (!faulted) {
      try {
        body(cb, ce);
      } catch (...) {
        clado::obs::counter("pool.task_failures").add();
        record_error(c);
      }
    }
  }
};

ThreadPool::ThreadPool(int num_threads) : num_threads_(resolve_threads(num_threads)) {
  const int spawn = num_threads_ - 1;
  workers_.reserve(static_cast<std::size_t>(spawn));
  for (int t = 0; t < spawn; ++t) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  worker_ids_.reserve(workers_.size());
  for (const auto& w : workers_) worker_ids_.push_back(w.get_id());
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and queue drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

bool ThreadPool::on_worker_thread() const {
  const auto id = std::this_thread::get_id();
  return std::find(worker_ids_.begin(), worker_ids_.end(), id) != worker_ids_.end();
}

void ThreadPool::parallel_for(std::int64_t begin, std::int64_t end, std::int64_t grain,
                              const std::function<void(std::int64_t, std::int64_t)>& body) {
  if (end <= begin) return;
  if (grain < 1) grain = 1;
  const std::int64_t num_chunks = (end - begin + grain - 1) / grain;

  // Serial / nested fast path: a single chunk, one thread of parallelism,
  // or re-entry from a worker of this pool (running inline avoids deadlock
  // when all workers would otherwise block waiting on each other). Counted
  // but not spanned: nested GEMM calls dominate this path and a span per
  // call would both bloat traces and serialize workers on the obs mutex.
  if (num_chunks == 1 || num_threads_ <= 1 || on_worker_thread()) {
    clado::obs::counter("pool.parallel_for.inline").add();
    for (std::int64_t c = 0; c < num_chunks; ++c) {
      const std::int64_t cb = begin + c * grain;
      body(cb, std::min(end, cb + grain));
    }
    return;
  }

  clado::obs::Span dispatch_span("pool/parallel_for");
  clado::obs::counter("pool.parallel_for.dispatch").add();
  clado::obs::counter("pool.chunks").add(num_chunks);

  auto state = std::make_shared<ForState>();
  state->body = body;
  state->begin = begin;
  state->end = end;
  state->grain = grain;
  state->num_chunks = num_chunks;

  const auto helpers = std::min<std::int64_t>(static_cast<std::int64_t>(workers_.size()),
                                              num_chunks - 1);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::int64_t t = 0; t < helpers; ++t) {
      queue_.emplace_back([state] { state->run_chunks(/*span_chunks=*/true); });
    }
    clado::obs::gauge("pool.queue_depth").set(static_cast<double>(queue_.size()));
  }
  if (helpers == 1) {
    cv_.notify_one();
  } else {
    cv_.notify_all();
  }

  // The caller works too, then waits for straggler chunks on workers.
  state->run_chunks(/*span_chunks=*/false);
  {
    std::unique_lock<std::mutex> lock(state->done_mutex);
    state->done_cv.wait(lock, [&] { return state->done_chunks.load() == num_chunks; });
  }
  {
    // The done_chunks wait above orders every record_error() before this
    // read, but the locking contract on ForState::error is unconditional —
    // holding error_mutex here keeps the invariant lexical instead of
    // depending on that happens-before argument staying true.
    std::lock_guard<std::mutex> lock(state->error_mutex);
    if (state->error) std::rethrow_exception(state->error);
  }
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(0);
  return pool;
}

int ThreadPool::resolve_threads(int requested) {
  if (requested > 0) return requested;
  // Strict: a set-but-malformed CLADO_NUM_THREADS is a configuration error,
  // not a cue to silently use hardware_concurrency (the old behavior made
  // e.g. CLADO_NUM_THREADS=1O run 8-wide without a word).
  if (const auto v = env_int_strict("CLADO_NUM_THREADS", 1, 1024)) {
    return static_cast<int>(*v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

}  // namespace clado::tensor
