// Portable fp32 blocked GEMM — the reference every other level is checked
// against. This is the exact kernel the repo's results were validated with
// before the dispatch layer existed (moved verbatim from tensor/ops.cpp):
// the numerics, including accumulation order, must not change, because the
// checked-in bench baselines and the bit-identical parallel/serial tests
// were recorded against it.
#include <algorithm>
#include <cstring>
#include <memory>

#include "kernels_internal.h"

namespace clado::tensor {
namespace kernels {
namespace detail {

namespace {

// Packs op(A) block [mb x kb] into row-major contiguous storage.
void pack_a(bool trans_a, const float* a, std::int64_t lda, std::int64_t m0, std::int64_t k0,
            std::int64_t mb, std::int64_t kb, float* packed) {
  if (!trans_a) {
    for (std::int64_t i = 0; i < mb; ++i) {
      std::memcpy(packed + i * kb, a + (m0 + i) * lda + k0,
                  static_cast<std::size_t>(kb) * sizeof(float));
    }
  } else {
    for (std::int64_t i = 0; i < mb; ++i) {
      for (std::int64_t p = 0; p < kb; ++p) {
        packed[i * kb + p] = a[(k0 + p) * lda + (m0 + i)];
      }
    }
  }
}

// Packs op(B) block [kb x nb] into row-major contiguous storage.
void pack_b(bool trans_b, const float* b, std::int64_t ldb, std::int64_t k0, std::int64_t n0,
            std::int64_t kb, std::int64_t nb, float* packed) {
  if (!trans_b) {
    for (std::int64_t p = 0; p < kb; ++p) {
      std::memcpy(packed + p * nb, b + (k0 + p) * ldb + n0,
                  static_cast<std::size_t>(nb) * sizeof(float));
    }
  } else {
    for (std::int64_t p = 0; p < kb; ++p) {
      for (std::int64_t j = 0; j < nb; ++j) {
        packed[p * nb + j] = b[(n0 + j) * ldb + (k0 + p)];
      }
    }
  }
}

}  // namespace

// Blocked accumulation over rows [m_begin, m_end); bounds are pre-validated
// by the dispatch seam (m_begin on a kBlockM boundary). Packing scratch is
// per call: each parallel row-range worker owns its own buffers, so there
// is no shared mutable state. It is sized to the largest block this call
// packs and left uninitialized: the packers write every element the
// micro-kernel reads.
void gemm_f32_row_range_scalar(bool trans_a, bool trans_b, std::int64_t m_begin,
                               std::int64_t m_end, std::int64_t n, std::int64_t k, float alpha,
                               const float* a, const float* b, float* c, std::int64_t lda,
                               std::int64_t ldb) {
  if (k <= 0 || n <= 0 || m_end <= m_begin) return;
  const std::int64_t kb_max = std::min(k, kBlockK);
  const auto pa = std::make_unique_for_overwrite<float[]>(
      static_cast<std::size_t>(std::min(m_end - m_begin, kBlockM) * kb_max));
  const auto pb = std::make_unique_for_overwrite<float[]>(
      static_cast<std::size_t>(kb_max * std::min(n, kBlockN)));

  for (std::int64_t k0 = 0; k0 < k; k0 += kBlockK) {
    const std::int64_t kb = std::min(kBlockK, k - k0);
    for (std::int64_t n0 = 0; n0 < n; n0 += kBlockN) {
      const std::int64_t nb = std::min(kBlockN, n - n0);
      pack_b(trans_b, b, ldb, k0, n0, kb, nb, pb.get());
      for (std::int64_t m0 = m_begin; m0 < m_end; m0 += kBlockM) {
        const std::int64_t mb = std::min(kBlockM, m_end - m0);
        pack_a(trans_a, a, lda, m0, k0, mb, kb, pa.get());
        // Micro-kernel: 2 rows of A at a time, full nb columns; the inner
        // loop vectorizes under -O3.
        std::int64_t i = 0;
        for (; i + 1 < mb; i += 2) {
          float* c0 = c + (m0 + i) * n + n0;
          float* c1 = c0 + n;
          const float* a0 = pa.get() + i * kb;
          const float* a1 = a0 + kb;
          for (std::int64_t p = 0; p < kb; ++p) {
            const float av0 = alpha * a0[p];
            const float av1 = alpha * a1[p];
            const float* brow = pb.get() + p * nb;
            for (std::int64_t j = 0; j < nb; ++j) {
              c0[j] += av0 * brow[j];
              c1[j] += av1 * brow[j];
            }
          }
        }
        for (; i < mb; ++i) {
          float* crow = c + (m0 + i) * n + n0;
          const float* arow = pa.get() + i * kb;
          for (std::int64_t p = 0; p < kb; ++p) {
            const float av = alpha * arow[p];
            const float* brow = pb.get() + p * nb;
            for (std::int64_t j = 0; j < nb; ++j) crow[j] += av * brow[j];
          }
        }
      }
    }
  }
}

}  // namespace detail
}  // namespace kernels
}  // namespace clado::tensor
