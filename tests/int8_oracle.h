// The tests' int8 reference chain: integer-arithmetic inference written
// the plain way (int8 storage, per-sample im2col, a scalar int32 GEMM, a
// separate fp32 requant), independent of the serving kernel
// tensor::kernels::qconv2d_s8 that the tests hold to it bit for bit. It
// also certifies that a (weight-scale, activation-scale) pair realizes
// the fake-quant semantics exactly:
//
//     dequant(A) ·_fp32 dequant(B)  ==  (sa · sb) · [ (A − za) ·_int (B − zb) ]
//
// Test support only; nothing in src/ links it. The names keep the
// namespaces they had when this chain lived in the library.
#pragma once

#include <cstdint>
#include <vector>

#include "clado/quant/int8.h"
#include "clado/tensor/tensor.h"

namespace clado::quant {

using clado::tensor::Shape;
using clado::tensor::Tensor;

/// Affine-quantized int8 tensor: real value = (q − zero_point) * scale.
struct QTensor {
  Shape shape;
  std::vector<std::int8_t> data;
  float scale = 1.0F;
  std::int32_t zero_point = 0;

  std::int64_t numel() const { return static_cast<std::int64_t>(data.size()); }
  std::int64_t size(std::size_t axis) const { return shape[axis]; }
};

/// Quantizes with explicit parameters (round-to-nearest, saturating).
QTensor quantize_int8(const Tensor& x, QParams params);

/// Quantizes with parameters derived from the tensor's own min/max.
QTensor quantize_int8_minmax(const Tensor& x);

Tensor dequantize(const QTensor& q);

/// int8 im2col for one [C,H,W] image: writes oh*ow patch rows of length
/// C*kernel*kernel into `cols`, with out-of-bounds taps encoded as the
/// zero point (real value 0).
void im2col_s8(const std::int8_t* img, std::int64_t channels, std::int64_t h, std::int64_t w,
               std::int64_t kernel, std::int64_t stride, std::int64_t pad, std::int64_t oh,
               std::int64_t ow, std::int32_t zero_point, std::int8_t* cols);

/// Convolution requantization epilogue of qconv2d: rescales the
/// [positions, out_c] accumulator into the NCHW [out_c, positions] output
/// plane with optional per-channel bias (multiply, then add).
void requant_scatter(const std::int32_t* acc, std::int64_t positions, std::int64_t out_c,
                     float rescale, const float* bias, float* obase);

/// Fully-integer linear layer: x [M,K] int8, w [N,K] int8, optional fp32
/// bias [N]; returns fp32 output [M,N] = (sx·sw)·acc + bias.
Tensor qlinear(const QTensor& x, const QTensor& w, const float* bias);

/// Fully-integer 2-d convolution (NCHW, square kernel, no groups):
/// returns fp32 output; weights [O, C, k, k] int8.
Tensor qconv2d(const QTensor& x, const QTensor& w, const float* bias, std::int64_t stride,
               std::int64_t pad);

}  // namespace clado::quant

namespace clado::tensor::kernels {

/// Reference int8 x int8 -> int32 GEMM with zero-point correction:
///   c[i,j] = sum_p (a[i,p] - za) * (b[j,p] - zb)
/// a is [m,k] row-major, b is [n,k] row-major (both k-contiguous).
void gemm_s8s8_s32(std::int64_t m, std::int64_t n, std::int64_t k, const std::int8_t* a,
                   std::int32_t za, const std::int8_t* b, std::int32_t zb, std::int32_t* c);

/// Reference requantization of integer GEMM accumulators:
///   out[i*n+j] = rescale * float(acc[i*n+j]) + (bias ? bias[j] : 0)
/// acc and out are [rows, n] row-major and must not alias; bias may be
/// null. A single multiply then a separate add (no FMA contraction), with
/// the int32->float conversion rounding to nearest: the epilogue
/// qconv2d_s8 fuses at every level.
void requant_s32_f32(std::int64_t rows, std::int64_t n, const std::int32_t* acc, float rescale,
                     const float* bias, float* out);

}  // namespace clado::tensor::kernels
