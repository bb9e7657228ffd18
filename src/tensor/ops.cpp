#include "clado/tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "clado/tensor/kernels.h"
#include "clado/tensor/thread_pool.h"

namespace clado::tensor {

namespace {

// Flop threshold below which splitting across threads costs more than it
// saves (queueing + cold packing buffers per worker).
constexpr std::int64_t kParallelFlops = std::int64_t{1} << 22;

// Beta-scaling plus the small-problem fast path. Returns true when the
// product is fully handled (degenerate sizes or the serial tiny kernel).
bool gemm_prologue(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n, std::int64_t k,
                   float alpha, const float* a, const float* b, float beta, float* c) {
  if (m <= 0 || n <= 0) return true;
  // Scale C by beta first so the accumulation loop is pure +=.
  if (beta == 0.0F) {
    std::fill(c, c + m * n, 0.0F);
  } else if (beta != 1.0F) {
    for (std::int64_t i = 0; i < m * n; ++i) c[i] *= beta;
  }
  if (k <= 0 || alpha == 0.0F) return true;

  // Small-problem fast path: depthwise convolutions and attention heads
  // issue huge numbers of tiny GEMMs where packing (and especially scratch
  // allocation) would dominate.
  if (m * n * k <= kGemmSmallMacs) {
    for (std::int64_t i = 0; i < m; ++i) {
      for (std::int64_t p = 0; p < k; ++p) {
        const float av = alpha * (trans_a ? a[p * m + i] : a[i * k + p]);
        // Known divergence from the blocked path, kept deliberately: a zero
        // A element skips the row, so a non-finite B value it would have
        // multiplied never reaches C (0 * inf = NaN on the blocked path).
        // im2col padding makes zero A entries common in exactly these tiny
        // conv GEMMs, and non-finite inputs are rejected upstream
        // (CLADO_CHECK at subsystem boundaries), so the skip only ever
        // drops exact-zero contributions. Pinned by
        // GemmKernels.SmallPathZeroSkipDivergesOnNonFiniteInputs.
        if (av == 0.0F) continue;
        float* crow = c + i * n;
        if (!trans_b) {
          const float* brow = b + p * n;
          for (std::int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
        } else {
          for (std::int64_t j = 0; j < n; ++j) crow[j] += av * b[j * k + p];
        }
      }
    }
    return true;
  }
  return false;
}

}  // namespace

void gemm_serial(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n, std::int64_t k,
                 float alpha, const float* a, const float* b, float beta, float* c) {
  if (gemm_prologue(trans_a, trans_b, m, n, k, alpha, a, b, beta, c)) return;
  const std::int64_t lda = trans_a ? m : k;
  const std::int64_t ldb = trans_b ? k : n;
  kernels::gemm_f32_row_range(kernels::active_level(), trans_a, trans_b, 0, m, n, k, alpha, a,
                              b, c, lda, ldb);
}

void gemm(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n, std::int64_t k,
          float alpha, const float* a, const float* b, float beta, float* c) {
  gemm(kernels::active_level(), trans_a, trans_b, m, n, k, alpha, a, b, beta, c);
}

// Blocked accumulation runs rows [m_begin, m_end) of C through the `level`
// micro-kernel; chunk bounds are multiples of kernels::kGemmBlockM (or
// m_end == m) so block boundaries match the serial schedule exactly. See
// clado/tensor/kernels.h for the dispatch and determinism contract.
void gemm(kernels::Level level, bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
          std::int64_t k, float alpha, const float* a, const float* b, float beta, float* c) {
  if (gemm_prologue(trans_a, trans_b, m, n, k, alpha, a, b, beta, c)) return;
  const std::int64_t lda = trans_a ? m : k;
  const std::int64_t ldb = trans_b ? k : n;

  ThreadPool& pool = ThreadPool::global();
  const std::int64_t block_m = kernels::kGemmBlockM;
  const std::int64_t num_row_blocks = (m + block_m - 1) / block_m;
  if (pool.num_threads() > 1 && num_row_blocks > 1 && m * n * k >= kParallelFlops) {
    // Each chunk covers contiguous row blocks; rows accumulate in the same
    // k0 -> n0 -> p order as the serial schedule, and distinct chunks write
    // disjoint C rows, so the result is bit-identical to gemm_serial. GEMM
    // bodies accumulate into C, so a retried chunk would double-add —
    // parallel_for never re-runs a body that has started (see
    // ThreadPool::ForState::run_chunks).
    const std::int64_t chunk_blocks = std::max<std::int64_t>(
        1, (num_row_blocks + 2 * pool.num_threads() - 1) / (2 * pool.num_threads()));
    pool.parallel_for(0, num_row_blocks, chunk_blocks,
                      [&](std::int64_t block_begin, std::int64_t block_end) {
                        kernels::gemm_f32_row_range(level, trans_a, trans_b,
                                                    block_begin * block_m,
                                                    std::min(m, block_end * block_m), n, k,
                                                    alpha, a, b, c, lda, ldb);
                      });
    return;
  }
  kernels::gemm_f32_row_range(level, trans_a, trans_b, 0, m, n, k, alpha, a, b, c, lda, ldb);
}

std::int64_t conv_out_size(std::int64_t in, std::int64_t kernel, std::int64_t stride,
                           std::int64_t pad) {
  // Validate here so every conv-shaped entry point (im2col, col2im, qconv2d_s8,
  // the nn layers) inherits the checks: stride <= 0 used to divide by zero,
  // and kernel > in + 2*pad produced a negative output size that callers
  // cast to huge size_t allocation lengths.
  if (kernel <= 0 || stride <= 0 || pad < 0 || in < 0) {
    throw std::invalid_argument(
        "conv_out_size: need kernel > 0, stride > 0, pad >= 0, in >= 0 (got in=" +
        std::to_string(in) + " kernel=" + std::to_string(kernel) + " stride=" +
        std::to_string(stride) + " pad=" + std::to_string(pad) + ")");
  }
  const std::int64_t span = in + 2 * pad - kernel;
  if (span < 0) {
    throw std::invalid_argument("conv_out_size: kernel " + std::to_string(kernel) +
                                " exceeds padded input " + std::to_string(in + 2 * pad));
  }
  return span / stride + 1;
}

void im2col(const float* input, std::int64_t channels, std::int64_t height, std::int64_t width,
            std::int64_t kh, std::int64_t kw, std::int64_t stride, std::int64_t pad,
            float* out) {
  const std::int64_t out_h = conv_out_size(height, kh, stride, pad);
  const std::int64_t out_w = conv_out_size(width, kw, stride, pad);
  const std::int64_t patch = channels * kh * kw;
  for (std::int64_t oy = 0; oy < out_h; ++oy) {
    for (std::int64_t ox = 0; ox < out_w; ++ox) {
      float* row = out + (oy * out_w + ox) * patch;
      for (std::int64_t ch = 0; ch < channels; ++ch) {
        const float* img = input + ch * height * width;
        for (std::int64_t ky = 0; ky < kh; ++ky) {
          const std::int64_t iy = oy * stride + ky - pad;
          for (std::int64_t kx = 0; kx < kw; ++kx) {
            const std::int64_t ix = ox * stride + kx - pad;
            const bool inside = iy >= 0 && iy < height && ix >= 0 && ix < width;
            *row++ = inside ? img[iy * width + ix] : 0.0F;
          }
        }
      }
    }
  }
}

void col2im(const float* cols, std::int64_t channels, std::int64_t height, std::int64_t width,
            std::int64_t kh, std::int64_t kw, std::int64_t stride, std::int64_t pad,
            float* grad_input) {
  const std::int64_t out_h = conv_out_size(height, kh, stride, pad);
  const std::int64_t out_w = conv_out_size(width, kw, stride, pad);
  const std::int64_t patch = channels * kh * kw;
  for (std::int64_t oy = 0; oy < out_h; ++oy) {
    for (std::int64_t ox = 0; ox < out_w; ++ox) {
      const float* row = cols + (oy * out_w + ox) * patch;
      for (std::int64_t ch = 0; ch < channels; ++ch) {
        float* img = grad_input + ch * height * width;
        for (std::int64_t ky = 0; ky < kh; ++ky) {
          const std::int64_t iy = oy * stride + ky - pad;
          for (std::int64_t kx = 0; kx < kw; ++kx) {
            const std::int64_t ix = ox * stride + kx - pad;
            if (iy >= 0 && iy < height && ix >= 0 && ix < width) {
              img[iy * width + ix] += *row;
            }
            ++row;
          }
        }
      }
    }
  }
}

void softmax_rows(float* data, std::int64_t rows, std::int64_t cols) {
  for (std::int64_t r = 0; r < rows; ++r) {
    float* row = data + r * cols;
    const float mx = *std::max_element(row, row + cols);
    double denom = 0.0;
    for (std::int64_t j = 0; j < cols; ++j) {
      row[j] = kernels::exp_f32(row[j] - mx);
      denom += row[j];
    }
    const float inv = static_cast<float>(1.0 / denom);
    for (std::int64_t j = 0; j < cols; ++j) row[j] *= inv;
  }
}

float log_sum_exp(const float* row, std::int64_t cols) {
  const float mx = *std::max_element(row, row + cols);
  double denom = 0.0;
  for (std::int64_t j = 0; j < cols; ++j) denom += std::exp(static_cast<double>(row[j]) - mx);
  return static_cast<float>(std::log(denom)) + mx;
}

void log_softmax_rows(const float* data, std::int64_t rows, std::int64_t cols, float* out) {
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* row = data + r * cols;
    float* orow = out + r * cols;
    const float log_denom = log_sum_exp(row, cols);
    for (std::int64_t j = 0; j < cols; ++j) orow[j] = row[j] - log_denom;
  }
}

void axpy(float alpha, std::span<const float> x, std::span<float> y) {
  if (x.size() != y.size()) throw std::invalid_argument("axpy: size mismatch");
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

Tensor slice_row(const Tensor& batch, std::int64_t row) {
  if (batch.dim() < 1) throw std::invalid_argument("slice_row: 0-d tensor");
  if (row < 0 || row >= batch.size(0)) {
    throw std::invalid_argument("slice_row: row " + std::to_string(row) + " out of [0, " +
                                std::to_string(batch.size(0)) + ")");
  }
  const Shape row_shape(batch.shape().begin() + 1, batch.shape().end());
  Tensor out(row_shape);
  const std::int64_t stride = out.numel();
  std::copy(batch.data() + row * stride, batch.data() + (row + 1) * stride, out.data());
  return out;
}

}  // namespace clado::tensor
