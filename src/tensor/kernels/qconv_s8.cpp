// The batched integer conv entry of the serving backends: weight packing,
// routing, workspace sizing, the index tables of the packed AVX2 routes,
// and the scalar reference level (see qconv2d_s8 in
// clado/tensor/kernels.h).
#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>

#include "clado/tensor/check.h"
#include "clado/tensor/kernels.h"
#include "clado/tensor/ops.h"
#include "kernels_internal.h"

namespace clado::tensor {
namespace kernels {

namespace {

std::int64_t round_up(std::int64_t v, std::int64_t to) { return (v + to - 1) / to * to; }

// Per-sample sizes of the conv GEMM: [positions x out_c] outputs over a
// reduction of k = C * kernel * kernel codes, kp k-pairs.
struct QDims {
  std::int64_t out_w = 0;
  std::int64_t positions = 0;
  std::int64_t image = 0;
  std::int64_t k = 0;
  std::int64_t kp = 0;
};

QDims qconv_dims(const ConvGeometry& g) {
  if (g.groups != 1) throw std::invalid_argument("qconv2d_s8: grouped convs are not supported");
  QDims d;
  d.out_w = conv_out_size(g.width, g.kernel, g.stride, g.pad);
  d.positions = conv_out_size(g.height, g.kernel, g.stride, g.pad) * d.out_w;
  d.image = g.in_channels * g.height * g.width;
  d.k = g.in_channels * g.kernel * g.kernel;
  d.kp = (d.k + 1) / 2;
  return d;
}

// The AVX2 row route needs every half panel (8 positions) inside one
// output row of a stride-1 conv; everything else gathers.
bool row_route(const ConvGeometry& g, const QDims& d) {
  return g.stride == 1 && d.out_w % 8 == 0;
}

// Offset within one sample of the input element output position j reads
// at patch row p = (c * kernel + ky) * kernel + kx, or -1 for padding.
std::int64_t tap(const ConvGeometry& g, const QDims& d, std::int64_t j, std::int64_t p) {
  const std::int64_t c = p / (g.kernel * g.kernel);
  const std::int64_t ky = p / g.kernel % g.kernel;
  const std::int64_t kx = p % g.kernel;
  const std::int64_t iy = j / d.out_w * g.stride + ky - g.pad;
  const std::int64_t ix = j % d.out_w * g.stride + kx - g.pad;
  if (iy < 0 || iy >= g.height || ix < 0 || ix >= g.width) return -1;
  return (c * g.height + iy) * g.width + ix;
}

// Index of code p of weight row j in the packed `pairs` layout.
std::int64_t pair_index(std::int64_t kp, std::int64_t j, std::int64_t p) {
  return ((j / detail::kQr * kp + p / 2) * detail::kQr + j % detail::kQr) * 2 + p % 2;
}

// The reference: per sample, im2col at the zero point into `cols` (rows
// padded to whole k-pairs; the pad meets a zero weight), one scalar dot
// product per output, and the requant written into the NCHW plane
// (multiply, then add the bias).
void qconv2d_s8_scalar(const ConvGeometry& g, const QDims& d, std::int64_t batch,
                       const std::int8_t* input, std::int32_t za, const QWeights& w,
                       float rescale, const float* bias, std::int16_t* cols, float* output) {
  const std::int64_t out_h = d.positions / d.out_w;
  for (std::int64_t s = 0; s < batch; ++s) {
    const std::int8_t* img = input + s * d.image;
    float* out = output + s * g.out_channels * d.positions;
    std::int16_t* col = cols;
    for (std::int64_t oy = 0; oy < out_h; ++oy) {
      for (std::int64_t ox = 0; ox < d.out_w; ++ox) {
        for (std::int64_t c = 0; c < g.in_channels; ++c) {
          const std::int8_t* plane = img + c * g.height * g.width;
          for (std::int64_t ky = 0; ky < g.kernel; ++ky) {
            const std::int64_t iy = oy * g.stride + ky - g.pad;
            for (std::int64_t kx = 0; kx < g.kernel; ++kx) {
              const std::int64_t ix = ox * g.stride + kx - g.pad;
              const bool inside = iy >= 0 && iy < g.height && ix >= 0 && ix < g.width;
              *col++ = static_cast<std::int16_t>(inside ? plane[iy * g.width + ix] : za);
            }
          }
        }
        if (d.k % 2 != 0) *col++ = 0;
      }
    }
    for (std::int64_t j = 0; j < d.positions; ++j) {
      const std::int16_t* row = cols + j * 2 * d.kp;
      for (std::int64_t c = 0; c < g.out_channels; ++c) {
        const std::int16_t* wc = w.pairs + pair_index(d.kp, c, 0);
        std::int32_t acc = 0;
        for (std::int64_t q = 0; q < d.kp; ++q, wc += 2 * detail::kQr) {
          acc += row[2 * q] * wc[0] + row[2 * q + 1] * wc[1];
        }
        float v = rescale * static_cast<float>(acc - za * w.sums[c]);
        if (bias != nullptr) v += bias[c];
        out[c * d.positions + j] = v;
      }
    }
  }
}

}  // namespace

std::int64_t qweights_pairs(std::int64_t n, std::int64_t k) {
  return round_up(n, detail::kQr) * round_up(k, 2);
}

void pack_qweights(std::int64_t n, std::int64_t k, const std::int8_t* codes,
                   std::int16_t* pairs, std::int32_t* sums) {
  std::fill(pairs, pairs + qweights_pairs(n, k), std::int16_t{0});
  for (std::int64_t j = 0; j < n; ++j) {
    std::int32_t sum = 0;
    for (std::int64_t p = 0; p < k; ++p) {
      const std::int8_t code = codes[j * k + p];
      pairs[pair_index((k + 1) / 2, j, p)] = code;
      sum += code;
    }
    sums[j] = sum;
  }
}

QConvWorkspace qconv2d_s8_workspace(Level level, const ConvGeometry& geom) {
  const QDims d = qconv_dims(geom);
  if (level == Level::kScalar) return {d.positions * 2 * d.kp, 0};
  const std::int64_t panel = 2 * detail::kQc * d.kp;
  if (row_route(geom, d)) {
    const std::int64_t padded =
        geom.in_channels * (geom.height + 2 * geom.pad) * (geom.width + 2 * geom.pad);
    return {padded + panel, d.k};
  }
  return {round_up(d.image + 1, detail::kQc) + panel,
          round_up(d.positions, detail::kQc) * 2 * d.kp};
}

void qconv2d_s8_table(Level level, const ConvGeometry& geom, std::int32_t* indices) {
  const QDims d = qconv_dims(geom);
  if (level == Level::kScalar) return;
  const std::int64_t ph = geom.height + 2 * geom.pad;
  const std::int64_t pw = geom.width + 2 * geom.pad;
  if (std::max(d.image, geom.in_channels * ph * pw) >= std::numeric_limits<std::int32_t>::max()) {
    throw std::invalid_argument("qconv2d_s8: sample too large for 32-bit offsets");
  }
  if (row_route(geom, d)) {
    // Code p = (c * kernel + ky) * kernel + kx reads the padded image at
    // (c, oy + ky, ox + kx): a fixed offset from the position's origin.
    for (std::int64_t c = 0; c < geom.in_channels; ++c) {
      for (std::int64_t ky = 0; ky < geom.kernel; ++ky) {
        for (std::int64_t kx = 0; kx < geom.kernel; ++kx) {
          *indices++ = static_cast<std::int32_t>((c * ph + ky) * pw + kx);
        }
      }
    }
    return;
  }
  // Panel by panel, k-pair by k-pair, in panel lane order (see
  // kernels_internal.h). Lanes past the last position and the odd-k pad
  // read the zero-point slot at offset `image`, like padding.
  for (std::int64_t j0 = 0; j0 < d.positions; j0 += detail::kQc) {
    for (std::int64_t q = 0; q < d.kp; ++q) {
      for (std::int64_t slot = 0; slot < detail::kQc; ++slot) {
        for (std::int64_t h = 0; h < 2; ++h) {
          const std::int64_t j = j0 + detail::panel_lane(slot);
          const std::int64_t p = 2 * q + h;
          const std::int64_t at = j < d.positions && p < d.k ? tap(geom, d, j, p) : -1;
          *indices++ = static_cast<std::int32_t>(at < 0 ? d.image : at);
        }
      }
    }
  }
}

void qconv2d_s8(Level level, const ConvGeometry& geom, std::int64_t batch,
                const std::int8_t* input, std::int32_t za, const QWeights& w, float rescale,
                const float* bias, const std::int32_t* indices, std::int16_t* codes,
                float* output) {
  const QDims d = qconv_dims(geom);
  if (w.n != geom.out_channels || w.k != d.k) {
    throw std::invalid_argument("qconv2d_s8: weights do not match the conv geometry");
  }
  switch (level) {
    case Level::kScalar:
      qconv2d_s8_scalar(geom, d, batch, input, za, w, rescale, bias, codes, output);
      return;
    case Level::kAvx2: {
      if (!cpu_supports_avx2()) {
        throw std::invalid_argument("qconv2d_s8: AVX2 kernels unavailable on this host");
      }
      // The panel packers read wherever the table points, inside one
      // workspace buffer; these checks (on in sanitizer and Debug builds)
      // are the bounds guard.
      if (row_route(geom, d)) {
        [[maybe_unused]] const std::int64_t pw = geom.width + 2 * geom.pad;
        [[maybe_unused]] const std::int64_t padded =
            geom.in_channels * (geom.height + 2 * geom.pad) * pw;
        // The last half panel's origin, (out_h - 1, out_w - 8), reads 8 codes.
        [[maybe_unused]] const std::int64_t last = (d.positions / d.out_w - 1) * pw + d.out_w - 8;
        for (std::int64_t i = 0; i < d.k; ++i) {
          CLADO_CHECK(indices[i] >= 0 && last + indices[i] + 8 <= padded,
                      "qconv2d_s8: tap offset outside the padded image");
        }
        detail::qconv2d_s8_rows_avx2(geom, batch, input, za, w.pairs, w.sums, rescale, bias,
                                     indices, codes, output);
        return;
      }
      for (std::int64_t i = 0; i < round_up(d.positions, detail::kQc) * 2 * d.kp; ++i) {
        CLADO_CHECK(indices[i] >= 0 && indices[i] <= d.image,
                    "qconv2d_s8: index table entry outside the sample");
      }
      detail::qconv2d_s8_gather_avx2(batch, d.image, d.positions, d.kp, input, za,
                                     geom.out_channels, w.pairs, w.sums, rescale, bias, indices,
                                     codes, output);
      return;
    }
  }
  throw std::invalid_argument("qconv2d_s8: unknown kernel level");
}

}  // namespace kernels
}  // namespace clado::tensor
