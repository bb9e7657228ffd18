// AVX2/FMA fp32 GEMM: cache-blocked (same kBlockM/N/K schedule as the
// scalar level, so parallel row chunks stay on identical block boundaries)
// with panel packing and a 6x16 register-tiled micro-kernel — 12 ymm
// accumulators, two B vectors live, one A broadcast at a time.
//
// Like every *_avx2.cpp TU this file is compiled with -mavx2 -mfma
// per-file; it must only be entered through the dispatch seam after
// kernels::cpu_supports_avx2() returned true. When the toolchain cannot
// target AVX2 the CLADO_KERNELS_AVX2 define is absent and this TU shrinks
// to scalar forwarders with avx2_compiled() == false.
#include <algorithm>
#include <memory>
#include <stdexcept>

#include "kernels_internal.h"

#if defined(CLADO_KERNELS_AVX2)

#include <immintrin.h>

namespace clado::tensor {
namespace kernels {
namespace detail {

namespace {

// Packs op(A) block [mb x kb] as kMr-row panels, column-major within each
// panel (panel[p * kMr + ii] = alpha * op(A)[m0 + t + ii, k0 + p]), padded
// with zeros past mb so edge tiles run the full-width kernel harmlessly.
// Alpha is folded in here so the micro-kernel is a pure FMA chain — the
// same "scale A once, then multiply-accumulate" shape as the scalar level.
void pack_a_panels(bool trans_a, const float* a, std::int64_t lda, std::int64_t m0,
                   std::int64_t k0, std::int64_t mb, std::int64_t kb, float alpha,
                   float* packed) {
  for (std::int64_t t = 0; t < mb; t += kMr) {
    const std::int64_t rows = std::min(kMr, mb - t);
    float* panel = packed + t * kb;  // each panel holds kb * kMr floats
    for (std::int64_t p = 0; p < kb; ++p) {
      for (std::int64_t ii = 0; ii < kMr; ++ii) {
        float v = 0.0F;
        if (ii < rows) {
          const std::int64_t row = m0 + t + ii;
          const std::int64_t col = k0 + p;
          v = alpha * (trans_a ? a[col * lda + row] : a[row * lda + col]);
        }
        panel[p * kMr + ii] = v;
      }
    }
  }
}

// Packs op(B) block [kb x nb] as kNr-column panels
// (panel[p * kNr + jj] = op(B)[k0 + p, n0 + t + jj]), zero-padded past nb.
void pack_b_panels(bool trans_b, const float* b, std::int64_t ldb, std::int64_t k0,
                   std::int64_t n0, std::int64_t kb, std::int64_t nb, float* packed) {
  for (std::int64_t t = 0; t < nb; t += kNr) {
    const std::int64_t cols = std::min(kNr, nb - t);
    float* panel = packed + t * kb;  // each panel holds kb * kNr floats
    for (std::int64_t p = 0; p < kb; ++p) {
      float* dst = panel + p * kNr;
      if (!trans_b) {
        const float* src = b + (k0 + p) * ldb + n0 + t;
        for (std::int64_t jj = 0; jj < cols; ++jj) dst[jj] = src[jj];
      } else {
        for (std::int64_t jj = 0; jj < cols; ++jj) {
          dst[jj] = b[(n0 + t + jj) * ldb + (k0 + p)];
        }
      }
      for (std::int64_t jj = cols; jj < kNr; ++jj) dst[jj] = 0.0F;
    }
  }
}

// C-tile[rows x cols] += A-panel x B-panel over kb. `ct` points at
// C[row 0, col 0] of the tile with row stride ldc. Full tiles add straight
// into C; edge tiles spill the accumulators to a local buffer and add only
// the valid region (the padded lanes hold exact zero contributions, but
// their C slots belong to neighboring tiles or do not exist). Forced
// inline: with two callers (GEMM and conv) GCC would otherwise emit an
// out-of-line call per tile, which costs the GEMM about 40% of its speed.
[[gnu::always_inline]] inline void micro_6x16(const float* ap, const float* bp, std::int64_t kb,
                                              float* ct, std::int64_t ldc, std::int64_t rows,
                                              std::int64_t cols) {
  __m256 acc_lo[kMr];
  __m256 acc_hi[kMr];
  for (std::int64_t i = 0; i < kMr; ++i) {
    acc_lo[i] = _mm256_setzero_ps();
    acc_hi[i] = _mm256_setzero_ps();
  }
  for (std::int64_t p = 0; p < kb; ++p) {
    const __m256 b_lo = _mm256_loadu_ps(bp + p * kNr);
    const __m256 b_hi = _mm256_loadu_ps(bp + p * kNr + 8);
    const float* acol = ap + p * kMr;
    for (std::int64_t i = 0; i < kMr; ++i) {
      const __m256 av = _mm256_broadcast_ss(acol + i);
      acc_lo[i] = _mm256_fmadd_ps(av, b_lo, acc_lo[i]);
      acc_hi[i] = _mm256_fmadd_ps(av, b_hi, acc_hi[i]);
    }
  }
  if (rows == kMr && cols == kNr) {
    for (std::int64_t i = 0; i < kMr; ++i) {
      float* crow = ct + i * ldc;
      _mm256_storeu_ps(crow, _mm256_add_ps(_mm256_loadu_ps(crow), acc_lo[i]));
      _mm256_storeu_ps(crow + 8, _mm256_add_ps(_mm256_loadu_ps(crow + 8), acc_hi[i]));
    }
    return;
  }
  alignas(32) float tile[kMr * kNr];
  for (std::int64_t i = 0; i < kMr; ++i) {
    _mm256_store_ps(tile + i * kNr, acc_lo[i]);
    _mm256_store_ps(tile + i * kNr + 8, acc_hi[i]);
  }
  for (std::int64_t i = 0; i < rows; ++i) {
    float* crow = ct + i * ldc;
    for (std::int64_t j = 0; j < cols; ++j) crow[j] += tile[i * kNr + j];
  }
}

}  // namespace

bool avx2_compiled() noexcept { return true; }

void gemm_f32_row_range_avx2(bool trans_a, bool trans_b, std::int64_t m_begin,
                             std::int64_t m_end, std::int64_t n, std::int64_t k, float alpha,
                             const float* a, const float* b, float* c, std::int64_t lda,
                             std::int64_t ldb) {
  // Panel scratch for the largest block this call packs, rounded up to
  // whole tiles; per call, like the scalar level, so concurrent row-range
  // workers never share mutable state. Left uninitialized: the packers
  // write every element (zero padding included) the micro-kernel reads.
  if (k <= 0 || n <= 0 || m_end <= m_begin) return;
  const std::int64_t kb_max = std::min(k, kBlockK);
  const std::int64_t a_rows = (std::min(m_end - m_begin, kBlockM) + kMr - 1) / kMr * kMr;
  const std::int64_t b_cols = (std::min(n, kBlockN) + kNr - 1) / kNr * kNr;
  const auto pa =
      std::make_unique_for_overwrite<float[]>(static_cast<std::size_t>(a_rows * kb_max));
  const auto pb =
      std::make_unique_for_overwrite<float[]>(static_cast<std::size_t>(b_cols * kb_max));

  for (std::int64_t k0 = 0; k0 < k; k0 += kBlockK) {
    const std::int64_t kb = std::min(kBlockK, k - k0);
    for (std::int64_t n0 = 0; n0 < n; n0 += kBlockN) {
      const std::int64_t nb = std::min(kBlockN, n - n0);
      pack_b_panels(trans_b, b, ldb, k0, n0, kb, nb, pb.get());
      for (std::int64_t m0 = m_begin; m0 < m_end; m0 += kBlockM) {
        const std::int64_t mb = std::min(kBlockM, m_end - m0);
        pack_a_panels(trans_a, a, lda, m0, k0, mb, kb, alpha, pa.get());
        for (std::int64_t t = 0; t < mb; t += kMr) {
          const std::int64_t rows = std::min(kMr, mb - t);
          const float* apanel = pa.get() + t * kb;
          for (std::int64_t s = 0; s < nb; s += kNr) {
            const std::int64_t cols = std::min(kNr, nb - s);
            micro_6x16(apanel, pb.get() + s * kb, kb, c + (m0 + t) * n + n0 + s, n, rows,
                       cols);
          }
        }
      }
    }
  }
}

void conv2d_f32_packed_avx2(std::int64_t batch, std::int64_t sample_numel,
                            std::int64_t out_c, std::int64_t positions, std::int64_t patch,
                            const float* input, const float* weight, const std::int32_t* table,
                            float* panels, float* output) {
  // The GEMM is out[out_c x positions] = W[out_c x patch] x cols^T, i.e.
  // gemm(false, true, ...) with M = out_c, N = positions, K = patch. The
  // weights are packed once for every K block; the M and N tiling does not
  // change any element's arithmetic, only the K blocks do.
  const std::int64_t m_pad = (out_c + kMr - 1) / kMr * kMr;
  float* a_packed = panels;
  float* b_block = panels + m_pad * patch;
  for (std::int64_t k0 = 0; k0 < patch; k0 += kBlockK) {
    const std::int64_t kb = std::min(kBlockK, patch - k0);
    pack_a_panels(false, weight, patch, 0, k0, out_c, kb, 1.0F, a_packed + m_pad * k0);
  }
  const __m256i zero_slot = _mm256_set1_epi32(kZeroSlot);
  for (std::int64_t s = 0; s < batch; ++s) {
    const float* img = input + s * sample_numel;
    float* out = output + s * out_c * positions;
    std::fill(out, out + out_c * positions, 0.0F);
    for (std::int64_t k0 = 0; k0 < patch; k0 += kBlockK) {
      const std::int64_t kb = std::min(kBlockK, patch - k0);
      for (std::int64_t n0 = 0; n0 < positions; n0 += kBlockN) {
        const std::int64_t nb = std::min(kBlockN, positions - n0);
        // B panels through the index table: one masked gather per 8 lanes,
        // kZeroSlot lanes masked off (no load) and packed as 0.
        for (std::int64_t t = 0; t < nb; t += kNr) {
          const std::int32_t* idx = table + ((n0 + t) * patch + k0 * kNr);
          float* dst = b_block + t * kb;
          for (std::int64_t e = 0; e < kb * kNr; e += 8) {
            const __m256i vi =
                _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx + e));
            const __m256 live = _mm256_castsi256_ps(_mm256_cmpgt_epi32(vi, zero_slot));
            _mm256_storeu_ps(dst + e,
                             _mm256_mask_i32gather_ps(_mm256_setzero_ps(), img, vi, live, 4));
          }
        }
        for (std::int64_t t = 0; t < out_c; t += kMr) {
          const std::int64_t rows = std::min(kMr, out_c - t);
          const float* apanel = a_packed + m_pad * k0 + t * kb;
          for (std::int64_t c0 = 0; c0 < nb; c0 += kNr) {
            micro_6x16(apanel, b_block + c0 * kb, kb, out + t * positions + n0 + c0, positions,
                       rows, std::min(kNr, nb - c0));
          }
        }
      }
    }
  }
}

}  // namespace detail
}  // namespace kernels
}  // namespace clado::tensor

#else  // !CLADO_KERNELS_AVX2: toolchain cannot target AVX2; never dispatched.

namespace clado::tensor {
namespace kernels {
namespace detail {

bool avx2_compiled() noexcept { return false; }

void gemm_f32_row_range_avx2(bool trans_a, bool trans_b, std::int64_t m_begin,
                             std::int64_t m_end, std::int64_t n, std::int64_t k, float alpha,
                             const float* a, const float* b, float* c, std::int64_t lda,
                             std::int64_t ldb) {
  gemm_f32_row_range_scalar(trans_a, trans_b, m_begin, m_end, n, k, alpha, a, b, c, lda, ldb);
}

void conv2d_f32_packed_avx2(std::int64_t, std::int64_t, std::int64_t, std::int64_t,
                            std::int64_t, const float*, const float*, const std::int32_t*, float*,
                            float*) {
  // conv2d_f32 routes here only after cpu_supports_avx2(), which is false
  // in this build.
  throw std::logic_error("conv2d_f32_packed_avx2: AVX2 kernels not compiled in");
}

}  // namespace detail
}  // namespace kernels
}  // namespace clado::tensor

#endif
