// The batched fp32 conv entry: routing, workspace sizing, the per-sample
// im2col + gemm reference, and the index table the packed AVX2 path fills
// its B panels through (see conv2d_f32 in clado/tensor/kernels.h).
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

// Per-sample sizes of one group's GEMM: [og x positions] = W_g[og x patch]
// x cols^T.
struct ConvDims {
  std::int64_t out_h = 0;
  std::int64_t out_w = 0;
  std::int64_t positions = 0;
  std::int64_t patch = 0;  // per group
  std::int64_t group_out = 0;
};

ConvDims conv_dims(const ConvGeometry& g) {
  if (g.groups <= 0 || g.in_channels % g.groups != 0 || g.out_channels % g.groups != 0) {
    throw std::invalid_argument("conv2d_f32: channels must be divisible by groups");
  }
  ConvDims d;
  d.out_h = conv_out_size(g.height, g.kernel, g.stride, g.pad);
  d.out_w = conv_out_size(g.width, g.kernel, g.stride, g.pad);
  d.positions = d.out_h * d.out_w;
  d.patch = g.in_channels / g.groups * g.kernel * g.kernel;
  d.group_out = g.out_channels / g.groups;
  return d;
}

// The packed path reproduces the blocked GEMM only; grouped convs and the
// shapes gemm() sends down its small path keep the reference route.
bool packed_route(Level level, const ConvGeometry& g, const ConvDims& d) {
  return level == Level::kAvx2 && g.groups == 1 &&
         d.group_out * d.positions * d.patch > kGemmSmallMacs;
}

std::int64_t round_up(std::int64_t v, std::int64_t to) { return (v + to - 1) / to * to; }

// Entry [(t * patch + p) * kNr + lane] of the table is the NCHW offset of
// the input element that output position t * kNr + lane reads at patch row
// p = (c * k + ky) * k + kx, or kZeroSlot for padding and for lanes past the
// last position. Offsets are relative to one sample; conv2d_f32 checks
// that they fit in int32. Written in table order, one panel at a time.
void build_index_table(const ConvGeometry& g, const ConvDims& d, std::int32_t* table) {
  constexpr std::int64_t kLanes = detail::kNr;
  const auto height = static_cast<std::int32_t>(g.height);
  const auto width = static_cast<std::int32_t>(g.width);
  for (std::int64_t j0 = 0; j0 < d.positions; j0 += kLanes) {
    // Top-left input corner of each lane's receptive field; lanes past the
    // last position get a corner row no kernel offset brings inside.
    std::int32_t y0[kLanes];
    std::int32_t x0[kLanes];
    for (std::int64_t l = 0; l < kLanes; ++l) {
      const std::int64_t j = j0 + l;
      const bool live = j < d.positions;
      y0[l] = static_cast<std::int32_t>(live ? j / d.out_w * g.stride - g.pad : -g.kernel);
      x0[l] = static_cast<std::int32_t>(live ? j % d.out_w * g.stride - g.pad : 0);
    }
    for (std::int32_t c = 0; c < static_cast<std::int32_t>(g.in_channels); ++c) {
      for (std::int32_t ky = 0; ky < static_cast<std::int32_t>(g.kernel); ++ky) {
        for (std::int32_t kx = 0; kx < static_cast<std::int32_t>(g.kernel); ++kx) {
          for (std::int64_t l = 0; l < kLanes; ++l) {
            const std::int32_t iy = y0[l] + ky;
            const std::int32_t ix = x0[l] + kx;
            const bool inside = iy >= 0 && iy < height && ix >= 0 && ix < width;
            table[l] = inside ? (c * height + iy) * width + ix : detail::kZeroSlot;
          }
          table += kLanes;
        }
      }
    }
  }
}

}  // namespace

ConvWorkspace conv2d_f32_workspace(Level level, const ConvGeometry& geom) {
  const ConvDims d = conv_dims(geom);
  if (!packed_route(level, geom, d)) return {d.positions * d.patch, 0};
  const std::int64_t padded = round_up(d.positions, detail::kNr);
  return {round_up(d.group_out, detail::kMr) * d.patch +
              std::min(padded, detail::kBlockN) * std::min(d.patch, detail::kBlockK),
          padded * d.patch};
}

void conv2d_f32(Level level, const ConvGeometry& geom, std::int64_t batch, const float* input,
                const float* weight, const float* bias, float* floats, std::int32_t* indices,
                float* output) {
  const ConvDims d = conv_dims(geom);
  const std::int64_t image = geom.in_channels * geom.height * geom.width;
  const std::int64_t sample_out = geom.out_channels * d.positions;
  if (packed_route(level, geom, d)) {
    if (!cpu_supports_avx2()) {
      throw std::invalid_argument("conv2d_f32: AVX2 kernels unavailable on this host");
    }
    if (image > std::numeric_limits<std::int32_t>::max()) {
      throw std::invalid_argument("conv2d_f32: sample too large for 32-bit gather offsets");
    }
    build_index_table(geom, d, indices);
    // A gather reads wherever its index points, out of sight of the
    // sanitizers; this check (on in sanitizer and Debug builds) is the
    // bounds guard.
    for (std::int64_t i = 0; i < round_up(d.positions, detail::kNr) * d.patch; ++i) {
      CLADO_CHECK(indices[i] == detail::kZeroSlot || (indices[i] >= 0 && indices[i] < image),
                  "conv2d_f32: index table entry outside the image");
    }
    detail::conv2d_f32_packed_avx2(batch, image, geom.out_channels, d.positions, d.patch, input,
                                   weight, indices, floats, output);
  } else {
    const std::int64_t group_in = geom.in_channels / geom.groups * geom.height * geom.width;
    for (std::int64_t s = 0; s < batch; ++s) {
      const float* img = input + s * image;
      float* out = output + s * sample_out;
      for (std::int64_t g = 0; g < geom.groups; ++g) {
        im2col(img + g * group_in, geom.in_channels / geom.groups, geom.height, geom.width,
               geom.kernel, geom.kernel, geom.stride, geom.pad, floats);
        gemm(level, false, true, d.group_out, d.positions, d.patch, 1.0F,
             weight + g * d.group_out * d.patch, floats, 0.0F, out + g * d.group_out * d.positions);
      }
    }
  }
  if (bias == nullptr) return;
  for (std::int64_t s = 0; s < batch; ++s) {
    for (std::int64_t c = 0; c < geom.out_channels; ++c) {
      float* row = output + s * sample_out + c * d.positions;
      for (std::int64_t p = 0; p < d.positions; ++p) row[p] += bias[c];
    }
  }
}

}  // namespace kernels
}  // namespace clado::tensor
