// Shared-queue thread pool used by the parallel GEMM path.
//
// Design constraints (why this is not a generic executor):
//   * parallel_for chunking is deterministic, so callers that write disjoint
//     output ranges per chunk produce bit-identical results at any thread
//     count — the property the GEMM is tested against.
//   * A parallel_for issued from inside a pool worker runs inline on that
//     worker (no re-submission), so nested parallelism cannot deadlock the
//     pool.
//   * The calling thread participates in chunk execution instead of
//     blocking, so a pool of N threads provides N-way parallelism with
//     N − 1 spawned workers.
//
// Thread count resolution: an explicit constructor argument wins; otherwise
// the CLADO_NUM_THREADS environment variable; otherwise
// std::thread::hardware_concurrency(). ThreadPool::global() is a
// lazily-initialized process-wide pool; tests construct explicit pools.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include <condition_variable>

#include "clado/tensor/check.h"

namespace clado::tensor {

class ThreadPool {
 public:
  /// `num_threads` <= 0 resolves via resolve_threads (env / hardware).
  explicit ThreadPool(int num_threads = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total parallelism, including the calling thread (workers + 1).
  int num_threads() const { return num_threads_; }

  /// Splits [begin, end) into contiguous chunks of at most `grain` indices
  /// and runs body(chunk_begin, chunk_end) for each, possibly concurrently.
  /// Chunk boundaries depend only on (begin, end, grain) — never on the
  /// thread count — and the body runs AT MOST ONCE per chunk. Blocks until
  /// all chunks finish. Only a failure of the pre-body fault-injection
  /// site is retried (the body has not run, so nothing was written); a
  /// throw from the body itself is never retried, because bodies that
  /// accumulate into their output (the GEMM kernels) would double-apply
  /// the partial writes of the failed attempt. The exception of the
  /// lowest-indexed failing chunk is rethrown after the remaining chunks
  /// drain, and the pool stays usable.
  /// Called from inside a worker of this pool, the whole range runs inline.
  void parallel_for(std::int64_t begin, std::int64_t end, std::int64_t grain,
                    const std::function<void(std::int64_t, std::int64_t)>& body);

  /// Process-wide pool, created on first use with resolve_threads(0).
  static ThreadPool& global();

  /// Thread-count resolution: `requested` > 0 wins; else a valid
  /// CLADO_NUM_THREADS (1..1024); else hardware_concurrency(); at least 1.
  static int resolve_threads(int requested);

 private:
  struct ForState;

  void worker_loop();
  bool on_worker_thread() const;

  int num_threads_ = 1;
  std::vector<std::thread> workers_;
  std::vector<std::thread::id> worker_ids_;
  std::deque<std::function<void()>> queue_ CLADO_GUARDED_BY(mutex_);
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ CLADO_GUARDED_BY(mutex_) = false;
};

}  // namespace clado::tensor
