#include "clado/tensor/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "clado/fault/fault.h"
#include "clado/obs/obs.h"
#include "clado/tensor/env.h"
#include "clado/tensor/ops.h"
#include "clado/tensor/tensor.h"

namespace clado::tensor {
namespace {

// The host running CI may be single-core; force a multi-threaded global
// pool so the parallel paths are exercised regardless. Runs before main()
// and therefore before the first ThreadPool::global() call in this binary.
const bool kForceThreads = [] {
  ::setenv("CLADO_NUM_THREADS", "4", 1);
  return true;
}();

TEST(ThreadPool, ResolveThreads) {
  ASSERT_TRUE(kForceThreads);
  // Explicit request wins over everything.
  EXPECT_EQ(ThreadPool::resolve_threads(3), 3);
  // CLADO_NUM_THREADS=4 set above.
  EXPECT_EQ(ThreadPool::resolve_threads(0), 4);
  // Invalid values are a hard error now (they used to silently fall back
  // to hardware_concurrency, hiding typos like CLADO_NUM_THREADS=eight):
  // junk, trailing junk, out of range, overflow.
  for (const char* bad : {"garbage", "0", "4x", "1025", "99999999999999999999"}) {
    ::setenv("CLADO_NUM_THREADS", bad, 1);
    EXPECT_THROW(ThreadPool::resolve_threads(0), std::invalid_argument) << bad;
  }
  // An explicit thread count never consults the environment.
  EXPECT_EQ(ThreadPool::resolve_threads(2), 2);
  // Unset means "use the hardware default".
  ::unsetenv("CLADO_NUM_THREADS");
  EXPECT_GE(ThreadPool::resolve_threads(0), 1);
  ::setenv("CLADO_NUM_THREADS", "4", 1);
  EXPECT_EQ(ThreadPool::resolve_threads(0), 4);
  // The same parser reads the tools' numeric flags, where empty text is an
  // error too, beside its finite-double twin.
  EXPECT_EQ(parse_int_strict("-8", -8, 7, "--x"), -8);
  for (const char* bad : {"", "garbage", "7x", "8", "99999999999999999999"}) {
    EXPECT_THROW(parse_int_strict(bad, -8, 7, "--x"), std::invalid_argument) << bad;
  }
  EXPECT_EQ(parse_double_strict("0.375", "--frac"), 0.375);
  for (const char* bad : {"", "0,375", "0.5x", "nan", "inf", "-inf", "1e999"}) {
    EXPECT_THROW(parse_double_strict(bad, "--frac"), std::invalid_argument) << bad;
  }
}

TEST(ThreadPool, GlobalPoolHonorsEnvironment) {
  EXPECT_EQ(ThreadPool::global().num_threads(), 4);
}

TEST(ThreadPool, EveryIndexRunsExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::int64_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(0, kN, 7, [&](std::int64_t b, std::int64_t e) {
    ASSERT_LE(b, e);
    ASSERT_LE(e - b, 7);
    for (std::int64_t i = b; i < e; ++i) hits[static_cast<std::size_t>(i)].fetch_add(1);
  });
  for (std::int64_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, EmptyAndSingleChunkRanges) {
  ThreadPool pool(4);
  int calls = 0;
  pool.parallel_for(5, 5, 10, [&](std::int64_t, std::int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.parallel_for(0, 3, 10, [&](std::int64_t b, std::int64_t e) {
    ++calls;
    EXPECT_EQ(b, 0);
    EXPECT_EQ(e, 3);
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, PropagatesLowestChunkException) {
  ThreadPool pool(4);
  try {
    pool.parallel_for(0, 100, 10, [](std::int64_t b, std::int64_t) {
      throw std::runtime_error(std::to_string(b));
    });
    FAIL() << "parallel_for did not rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "0");
  }
  // The pool is still usable after an exception.
  std::atomic<int> count{0};
  pool.parallel_for(0, 50, 5, [&](std::int64_t b, std::int64_t e) {
    count.fetch_add(static_cast<int>(e - b));
  });
  EXPECT_EQ(count.load(), 50);
}

// Regression: the old retry-in-place re-ran a chunk whose BODY threw. For
// accumulating bodies (the GEMM kernels do `c[j] += ...`) the first attempt's
// partial writes survive, so the retry silently double-applied them. A body
// throw must propagate without the body ever running again.
TEST(ThreadPool, ThrowingBodyIsNotRetriedAfterPartialWrites) {
  ThreadPool pool(4);
  clado::fault::disarm_all();
  const std::int64_t retries_before = clado::obs::counter("pool.chunk_retries").value();

  constexpr std::int64_t kN = 64;
  std::vector<std::atomic<int>> hits(kN);
  try {
    pool.parallel_for(0, kN, 8, [&](std::int64_t b, std::int64_t e) {
      for (std::int64_t i = b; i < e; ++i) {
        // The chunk starting at 8 dies mid-body AFTER writing half its range
        // — exactly the partial-accumulation state a retry must not re-run.
        if (i == b + 4 && b == 8) throw std::runtime_error("mid-body failure");
        hits[static_cast<std::size_t>(i)].fetch_add(1);
      }
    });
    FAIL() << "parallel_for did not rethrow the body exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "mid-body failure");
  }

  // No index may be touched twice: the failing chunk's partial writes
  // (indices 8..11) stay at one hit, the rest of its range at zero, and
  // every other chunk completes exactly once.
  for (std::int64_t i = 0; i < kN; ++i) {
    const int h = hits[static_cast<std::size_t>(i)].load();
    ASSERT_LE(h, 1) << "index " << i << " ran more than once — body was retried";
    if (i < 8 || i >= 16) {
      EXPECT_EQ(h, 1) << "index " << i;
    } else if (i < 12) {
      EXPECT_EQ(h, 1) << "index " << i << " (written before the throw)";
    } else {
      EXPECT_EQ(h, 0) << "index " << i << " (after the throw point)";
    }
  }
  // Body failures must not register as absorbed chunk retries.
  EXPECT_EQ(clado::obs::counter("pool.chunk_retries").value(), retries_before);
}

TEST(ThreadPool, ChunkRetryAbsorbsOneInjectedFault) {
  ThreadPool pool(4);
  clado::fault::disarm_all();
  const std::int64_t retries_before = clado::obs::counter("pool.chunk_retries").value();

  clado::fault::arm_one_shot(clado::fault::Site::kPoolTask, 1);
  constexpr std::int64_t kN = 64;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(0, kN, 4, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) hits[static_cast<std::size_t>(i)].fetch_add(1);
  });
  EXPECT_EQ(clado::fault::injected_count(clado::fault::Site::kPoolTask), 1U);
  clado::fault::disarm_all();

  // The injection fires before the chunk body runs and the retry re-runs
  // the body, so the caller sees a clean pass with every index done once.
  for (std::int64_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "index " << i;
  }
  EXPECT_EQ(clado::obs::counter("pool.chunk_retries").value() - retries_before, 1);
}

TEST(ThreadPool, PersistentFaultStillPropagates) {
  ThreadPool pool(4);
  clado::fault::arm_from(clado::fault::Site::kPoolTask, 1);
  std::atomic<int> ran{0};
  EXPECT_THROW(pool.parallel_for(0, 16, 4,
                                 [&](std::int64_t, std::int64_t) { ran.fetch_add(1); }),
               clado::fault::FaultInjected);
  clado::fault::disarm_all();

  // The pool survives the failed batch and runs the next one normally.
  std::atomic<int> count{0};
  pool.parallel_for(0, 16, 4, [&](std::int64_t b, std::int64_t e) {
    count.fetch_add(static_cast<int>(e - b));
  });
  EXPECT_EQ(count.load(), 16);
}

TEST(ThreadPool, NestedParallelForRunsInline) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  pool.parallel_for(0, 8, 1, [&](std::int64_t, std::int64_t) {
    // Nested submission to the same pool must not deadlock; it runs inline.
    pool.parallel_for(0, 100, 10, [&](std::int64_t b, std::int64_t e) {
      count.fetch_add(static_cast<int>(e - b));
    });
  });
  EXPECT_EQ(count.load(), 800);
}

TEST(ThreadPool, SingleThreadPoolRunsSerially) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1);
  std::vector<std::int64_t> order;
  pool.parallel_for(0, 40, 10, [&](std::int64_t b, std::int64_t) { order.push_back(b); });
  ASSERT_EQ(order.size(), 4U);
  for (std::size_t c = 0; c < order.size(); ++c) {
    EXPECT_EQ(order[c], static_cast<std::int64_t>(c) * 10);
  }
}

TEST(ThreadPool, GemmParallelMatchesSerialBitExactly) {
  ASSERT_GE(ThreadPool::global().num_threads(), 2);
  Rng rng(41);
  // Large enough to clear the parallel threshold (~4.9M mul-adds) with
  // several kBlockM row blocks.
  const std::int64_t m = 256, n = 96, k = 200;
  const Tensor a = Tensor::randn({m, k}, rng);
  const Tensor b = Tensor::randn({k, n}, rng);
  Tensor c_par({m, n}, 0.5F);
  Tensor c_ser({m, n}, 0.5F);
  gemm(false, false, m, n, k, 1.25F, a.data(), b.data(), 0.75F, c_par.data());
  gemm_serial(false, false, m, n, k, 1.25F, a.data(), b.data(), 0.75F, c_ser.data());
  for (std::int64_t i = 0; i < c_par.numel(); ++i) {
    ASSERT_EQ(c_par[i], c_ser[i]) << "element " << i;
  }
}

TEST(ThreadPool, GemmTransposedVariantsMatchSerial) {
  Rng rng(42);
  const std::int64_t m = 192, n = 80, k = 160;
  const Tensor at = Tensor::randn({k, m}, rng);  // A^T layout
  const Tensor bt = Tensor::randn({n, k}, rng);  // B^T layout
  Tensor c_par({m, n});
  Tensor c_ser({m, n});
  gemm(true, true, m, n, k, 1.0F, at.data(), bt.data(), 0.0F, c_par.data());
  gemm_serial(true, true, m, n, k, 1.0F, at.data(), bt.data(), 0.0F, c_ser.data());
  for (std::int64_t i = 0; i < c_par.numel(); ++i) {
    ASSERT_EQ(c_par[i], c_ser[i]) << "element " << i;
  }
}

}  // namespace
}  // namespace clado::tensor
