// Integer-arithmetic inference kernels.
//
// Fake quantization (the rest of this library) simulates quantized
// inference in float. These kernels execute it the way fixed-point
// hardware would: int8 storage, int32 accumulation, float only at the
// final rescale. They certify that a (weight-scale, activation-scale)
// pair realizes the fake-quant semantics bit-exactly:
//
//     dequant(A) ·_fp32 dequant(B)  ==  (sa · sb) · [ (A − za) ·_int (B − zb) ]
//
// which is what makes the accuracy numbers measured with fake quant valid
// claims about an integer deployment.
#pragma once

#include <cstdint>
#include <vector>

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

/// Affine parameters covering [lo, hi] with zero exactly representable.
struct QParams {
  float scale = 1.0F;
  std::int32_t zero_point = 0;
};
QParams choose_qparams(float lo, float hi);

/// Quantizes with explicit parameters (round-to-nearest, saturating).
QTensor quantize_int8(const Tensor& x, QParams params);

/// Quantizes with parameters derived from the tensor's own min/max.
QTensor quantize_int8_minmax(const Tensor& x);

Tensor dequantize(const QTensor& q);

/// int8 im2col for one [C,H,W] image: writes oh*ow patch rows of length
/// C*kernel*kernel into `cols`, with out-of-bounds taps encoded as the
/// zero point (real value 0). Part of the qconv2d oracle the serve-time
/// integer conv (tensor::kernels::qconv2d_s8) is tested against.
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
