// Compute kernels shared by the NN engine and the solvers.
//
// All kernels operate on contiguous row-major buffers. GEMM is a blocked,
// register-tiled implementation — on the small models used in this
// reproduction it is the only kernel that matters for wall clock. The
// inner micro-kernel is runtime-dispatched (portable scalar or AVX2/FMA;
// see clado/tensor/kernels.h and the CLADO_KERNEL env var). Large
// products split row blocks across ThreadPool::global(); per-row
// accumulation order within the active kernel level is unchanged, so the
// parallel path is bit-identical to the serial one at any level.
#pragma once

#include <cstdint>
#include <span>

#include "clado/tensor/kernels.h"
#include "clado/tensor/tensor.h"

namespace clado::tensor {

/// Products of at most this many multiply-adds (m * n * k) skip blocking
/// and packing: gemm() runs them through an unblocked loop, and
/// kernels::conv2d_f32 keeps the per-sample im2col + gemm() route for convs
/// whose per-sample GEMM is this small.
inline constexpr std::int64_t kGemmSmallMacs = 16 * 1024;

/// C = alpha * op(A) * op(B) + beta * C, with op controlled by the
/// transpose flags. A is [M,K] (or [K,M] if trans_a), B is [K,N] (or [N,K]
/// if trans_b), C is [M,N].
void gemm(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n, std::int64_t k,
          float alpha, const float* a, const float* b, float beta, float* c);

/// gemm() with its blocked micro-kernel at an explicit kernel level; the
/// overload above runs at kernels::active_level().
void gemm(kernels::Level level, bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
          std::int64_t k, float alpha, const float* a, const float* b, float beta, float* c);

/// Single-threaded reference GEMM running the exact blocked schedule gemm()
/// parallelizes over row blocks; gemm() must match it bit-for-bit at any
/// thread count (exercised by thread_pool_test).
void gemm_serial(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n, std::int64_t k,
                 float alpha, const float* a, const float* b, float beta, float* c);

/// out = A(MxK) * B(KxN); both 2-d tensors.
Tensor matmul(const Tensor& a, const Tensor& b);

/// 2-d transpose.
Tensor transpose2d(const Tensor& a);

/// im2col for NCHW input. Input [N,C,H,W]; output is a matrix of shape
/// [N * out_h * out_w, C * kh * kw] whose rows are flattened receptive
/// fields — ready for a GEMM against a [C*kh*kw, out_c] weight matrix.
void im2col(const float* input, std::int64_t channels, std::int64_t height, std::int64_t width,
            std::int64_t kh, std::int64_t kw, std::int64_t stride, std::int64_t pad,
            float* out);

/// Adjoint of im2col: scatters column-matrix gradients back into an image
/// gradient buffer (accumulates; caller zero-fills first).
void col2im(const float* cols, std::int64_t channels, std::int64_t height, std::int64_t width,
            std::int64_t kh, std::int64_t kw, std::int64_t stride, std::int64_t pad,
            float* grad_input);

/// Output spatial size of a convolution. Throws std::invalid_argument on
/// degenerate geometry (kernel or stride <= 0, negative pad or input, or a
/// kernel larger than the padded input) instead of dividing by zero or
/// returning a negative size; im2col / col2im / qconv2d inherit the checks.
std::int64_t conv_out_size(std::int64_t in, std::int64_t kernel, std::int64_t stride,
                           std::int64_t pad);

/// Row-wise in-place softmax on a [rows, cols] matrix.
void softmax_rows(float* data, std::int64_t rows, std::int64_t cols);

/// Row-wise log-softmax (stable) into `out` (may alias `data`).
void log_softmax_rows(const float* data, std::int64_t rows, std::int64_t cols, float* out);

/// y += x (spans of equal length).
void axpy(float alpha, std::span<const float> x, std::span<float> y);

/// Dot product with double accumulation.
double dot(std::span<const float> x, std::span<const float> y);

/// Row `row` of a batch tensor with the leading axis removed: [N, d0, ...]
/// -> [d0, ...]. Splits batched outputs back into per-request results.
/// Bounds-checked.
Tensor slice_row(const Tensor& batch, std::int64_t row);

}  // namespace clado::tensor
