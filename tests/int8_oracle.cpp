#include "int8_oracle.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "clado/tensor/kernels.h"
#include "clado/tensor/ops.h"

namespace clado::tensor::kernels {

namespace {

// Per-row sums of `count` rows of length k — the O(mk + nk) half of the
// zero-point correction.
void s8_row_sums(const std::int8_t* rows, std::int64_t count, std::int64_t k,
                 std::int32_t* sums) {
  for (std::int64_t i = 0; i < count; ++i) {
    std::int32_t acc = 0;
    const std::int8_t* row = rows + i * k;
    for (std::int64_t p = 0; p < k; ++p) acc += row[p];
    sums[i] = acc;
  }
}

}  // namespace

void gemm_s8s8_s32(std::int64_t m, std::int64_t n, std::int64_t k, const std::int8_t* a,
                   std::int32_t za, const std::int8_t* b, std::int32_t zb, std::int32_t* c) {
  // Σ (a − za)(b − zb) = Σ ab − zb Σ a_row − za Σ b_row + K·za·zb.
  std::vector<std::int32_t> row_sum_a(static_cast<std::size_t>(m), 0);
  std::vector<std::int32_t> row_sum_b(static_cast<std::size_t>(n), 0);
  s8_row_sums(a, m, k, row_sum_a.data());
  s8_row_sums(b, n, k, row_sum_b.data());
  const std::int32_t kzz = static_cast<std::int32_t>(k) * za * zb;

  for (std::int64_t i = 0; i < m; ++i) {
    const std::int8_t* arow = a + i * k;
    for (std::int64_t j = 0; j < n; ++j) {
      const std::int8_t* brow = b + j * k;
      // Pure int8 dot product with widening; vectorizes to pmaddubsw-style
      // code under -O3 on most targets.
      std::int32_t acc = 0;
      for (std::int64_t p = 0; p < k; ++p) {
        acc += static_cast<std::int32_t>(arow[p]) * static_cast<std::int32_t>(brow[p]);
      }
      c[i * n + j] = acc - zb * row_sum_a[static_cast<std::size_t>(i)] -
                     za * row_sum_b[static_cast<std::size_t>(j)] + kzz;
    }
  }
}

void requant_s32_f32(std::int64_t rows, std::int64_t n, const std::int32_t* acc, float rescale,
                     const float* bias, float* out) {
  if (bias == nullptr) {
    const std::int64_t total = rows * n;
    for (std::int64_t i = 0; i < total; ++i) {
      out[i] = rescale * static_cast<float>(acc[i]);
    }
    return;
  }
  for (std::int64_t i = 0; i < rows; ++i) {
    const std::int32_t* arow = acc + i * n;
    float* orow = out + i * n;
    for (std::int64_t j = 0; j < n; ++j) {
      const float scaled = rescale * static_cast<float>(arow[j]);
      orow[j] = scaled + bias[j];
    }
  }
}

}  // namespace clado::tensor::kernels

namespace clado::quant {

QTensor quantize_int8(const Tensor& x, QParams params) {
  QTensor q;
  q.shape = x.shape();
  q.scale = params.scale;
  q.zero_point = params.zero_point;
  q.data.resize(static_cast<std::size_t>(x.numel()));
  // Same arithmetic this function has always used (nearbyint(x/scale) + zp,
  // saturating), now executed by the dispatched kernel layer — bit-exact at
  // every level, so the serve-time backends quantizing inputs through the
  // same kernel match this reference code for code.
  clado::tensor::kernels::quantize_f32_s8(clado::tensor::kernels::active_level(), x.numel(),
                                          x.data(), 1.0F / params.scale, params.zero_point,
                                          q.data.data());
  return q;
}

QTensor quantize_int8_minmax(const Tensor& x) {
  if (x.empty()) throw std::invalid_argument("quantize_int8_minmax: empty tensor");
  return quantize_int8(x, choose_qparams(x.min(), x.max()));
}

Tensor dequantize(const QTensor& q) {
  Tensor out(q.shape);
  for (std::int64_t i = 0; i < out.numel(); ++i) {
    out[i] = (static_cast<float>(q.data[static_cast<std::size_t>(i)]) -
              static_cast<float>(q.zero_point)) *
             q.scale;
  }
  return out;
}

void im2col_s8(const std::int8_t* img, std::int64_t channels, std::int64_t h, std::int64_t w,
               std::int64_t kernel, std::int64_t stride, std::int64_t pad, std::int64_t oh,
               std::int64_t ow, std::int32_t zero_point, std::int8_t* cols) {
  const std::int64_t patch = channels * kernel * kernel;
  for (std::int64_t oy = 0; oy < oh; ++oy) {
    for (std::int64_t ox = 0; ox < ow; ++ox) {
      std::int8_t* row = cols + (oy * ow + ox) * patch;
      for (std::int64_t ch = 0; ch < channels; ++ch) {
        const std::int8_t* plane = img + ch * h * w;
        for (std::int64_t ky = 0; ky < kernel; ++ky) {
          const std::int64_t iy = oy * stride + ky - pad;
          for (std::int64_t kx = 0; kx < kernel; ++kx) {
            const std::int64_t ix = ox * stride + kx - pad;
            const bool inside = iy >= 0 && iy < h && ix >= 0 && ix < w;
            *row++ = inside ? plane[iy * w + ix] : static_cast<std::int8_t>(zero_point);
          }
        }
      }
    }
  }
}

void requant_scatter(const std::int32_t* acc, std::int64_t positions, std::int64_t out_c,
                     float rescale, const float* bias, float* obase) {
  for (std::int64_t p = 0; p < positions; ++p) {
    for (std::int64_t c = 0; c < out_c; ++c) {
      float v = rescale * static_cast<float>(acc[p * out_c + c]);
      if (bias != nullptr) v += bias[c];
      obase[c * positions + p] = v;
    }
  }
}

Tensor qlinear(const QTensor& x, const QTensor& w, const float* bias) {
  if (x.shape.size() != 2 || w.shape.size() != 2 || x.shape[1] != w.shape[1]) {
    throw std::invalid_argument("qlinear: expects x [M,K], w [N,K]");
  }
  const std::int64_t m = x.shape[0];
  const std::int64_t k = x.shape[1];
  const std::int64_t n = w.shape[0];
  std::vector<std::int32_t> acc(static_cast<std::size_t>(m * n));
  // Σ (a − za)(b − zb) by the kernel layer's reference GEMM.
  clado::tensor::kernels::gemm_s8s8_s32(m, n, k, x.data.data(), x.zero_point, w.data.data(),
                                        w.zero_point, acc.data());

  Tensor out({m, n});
  // Rescale epilogue (mul-then-add, no FMA contraction — identical to the
  // historical loop here).
  clado::tensor::kernels::requant_s32_f32(m, n, acc.data(), x.scale * w.scale, bias, out.data());
  return out;
}

Tensor qconv2d(const QTensor& x, const QTensor& w, const float* bias, std::int64_t stride,
               std::int64_t pad) {
  if (x.shape.size() != 4 || w.shape.size() != 4 || x.shape[1] != w.shape[1]) {
    throw std::invalid_argument("qconv2d: expects x [N,C,H,W], w [O,C,k,k]");
  }
  const std::int64_t batch = x.shape[0];
  const std::int64_t channels = x.shape[1];
  const std::int64_t h = x.shape[2];
  const std::int64_t width = x.shape[3];
  const std::int64_t out_c = w.shape[0];
  const std::int64_t kernel = w.shape[2];
  const std::int64_t oh = clado::tensor::conv_out_size(h, kernel, stride, pad);
  const std::int64_t ow = clado::tensor::conv_out_size(width, kernel, stride, pad);
  const std::int64_t positions = oh * ow;
  const std::int64_t patch = channels * kernel * kernel;

  // int8 im2col: padding contributes the zero point (real value 0).
  std::vector<std::int8_t> cols(static_cast<std::size_t>(positions * patch));
  std::vector<std::int32_t> acc(static_cast<std::size_t>(out_c * positions));
  Tensor out({batch, out_c, oh, ow});

  for (std::int64_t s = 0; s < batch; ++s) {
    const std::int8_t* img = x.data.data() + s * channels * h * width;
    im2col_s8(img, channels, h, width, kernel, stride, pad, oh, ow, x.zero_point, cols.data());
    // acc [positions, out_c] via the shared int8 GEMM, then scatter.
    clado::tensor::kernels::gemm_s8s8_s32(positions, out_c, patch, cols.data(), x.zero_point,
                                          w.data.data(), w.zero_point, acc.data());
    requant_scatter(acc.data(), positions, out_c, x.scale * w.scale, bias,
                    out.data() + s * out_c * positions);
  }
  return out;
}

}  // namespace clado::quant
