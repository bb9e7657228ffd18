// Per-layer, per-precision latency measurement.
//
// Shared by bench_backend (which emits the checksummed latency-table
// artifact) and bench_runtime (which measures inline when no table is
// supplied to --budget-ms). Each column times the kernel call the serving
// plan makes for the layer, at the layer's real geometry and batch 1:
//
//   fp32  conv2d_f32 (convs) or the blocked fp32 GEMM (linears)
//   int8  quantize the fp32 input + qconv2d_s8 with int8 codes, requant
//         fused (a linear is the 1x1 conv of a [k, 1, 1] image per row)
//   int4  the same call with int4-range codes: both precisions run one
//         kernel on int16 k-pairs, so the columns differ only by noise
//   (grouped convs run fp32 in serving at any bit-width, so all three
//   columns take the fp32 time)
//
// The integer timings deliberately include the quantize seam: that is the
// cost the serving path pays at every precision boundary, and omitting it
// would overstate integer speedups on small layers (the arithmetic-
// intensity caveat the latency budget exists to capture). Weights are
// synthetic random codes — latency depends on shape, not values — and the
// layer shapes come from one probe forward through the real model.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "clado/backend/latency.h"
#include "clado/models/model.h"
#include "clado/nn/layers.h"
#include "clado/tensor/kernels.h"
#include "clado/tensor/ops.h"
#include "clado/tensor/rng.h"

namespace clado::bench {

/// GEMM dimensions of one quantizable layer at batch size 1: m input rows
/// (output positions for convs), n output channels, k reduction length;
/// plus the geometry the serving plan hands the conv entries (for a
/// linear, the 1x1 conv of a [k, 1, 1] image, run on m rows).
struct LayerGemmShape {
  std::string name;
  std::int64_t m = 0, n = 0, k = 0;
  bool conv = false;
  clado::tensor::kernels::ConvGeometry geom;
};

/// Derives every quant layer's GEMM shape from one probe forward with a
/// single random sample (the layers' last_input stashes carry the spatial
/// dims convs actually saw). Throws std::runtime_error on a quant layer
/// type the backend does not execute.
inline std::vector<LayerGemmShape> probe_layer_shapes(clado::models::Model& model) {
  using clado::nn::Conv2d;
  using clado::nn::Linear;
  clado::tensor::Rng rng(4242);
  const auto probe = clado::nn::Tensor::randn(
      {1, model.channels, model.image_size, model.image_size}, rng);
  model.net->forward(probe);

  std::vector<LayerGemmShape> shapes;
  shapes.reserve(model.quant_layers.size());
  for (const auto& ref : model.quant_layers) {
    LayerGemmShape s;
    s.name = ref.name;
    if (auto* conv = dynamic_cast<Conv2d*>(ref.layer)) {
      const auto& in = conv->last_input();
      s.conv = true;
      s.geom = conv->geometry(in.shape()[2], in.shape()[3]);
      s.m = clado::tensor::conv_out_size(s.geom.height, s.geom.kernel, s.geom.stride,
                                         s.geom.pad) *
            clado::tensor::conv_out_size(s.geom.width, s.geom.kernel, s.geom.stride, s.geom.pad);
      s.n = conv->out_channels();
    } else if (auto* linear = dynamic_cast<Linear*>(ref.layer)) {
      s.m = linear->last_input2d().shape()[0];
      s.n = linear->out_features();
      s.geom.in_channels = linear->in_features();
      s.geom.height = 1;
      s.geom.width = 1;
      s.geom.out_channels = s.n;
      s.geom.kernel = 1;
    } else {
      throw std::runtime_error("probe_layer_shapes: unsupported quant layer " + ref.name);
    }
    s.k = ref.layer->weight_param().value.numel() / s.n;
    shapes.push_back(std::move(s));
  }
  return shapes;
}

/// Times `fn` adaptively: at least 3 runs and `min_seconds` of wall clock,
/// returning seconds per run (the bench_gemm_kernels policy).
template <typename Fn>
inline double time_per_run_adaptive(Fn&& fn, double min_seconds) {
  using Clock = std::chrono::steady_clock;
  constexpr int kMinReps = 3;
  int reps = 0;
  const auto t0 = Clock::now();
  double elapsed = 0.0;
  while (reps < kMinReps || elapsed < min_seconds) {
    fn();
    ++reps;
    elapsed = std::chrono::duration<double>(Clock::now() - t0).count();
  }
  return elapsed / reps;
}

/// Measures ms[layer][precision] for every quant layer of `model` at the
/// process-wide dispatched kernel level (this is a deployment measurement,
/// not a scalar-reference race). `min_seconds` bounds the per-timing wall
/// clock; bench_backend uses a longer window than the inline fallback.
inline clado::backend::LatencyTable measure_latency_table(clado::models::Model& model,
                                                          double min_seconds = 0.02) {
  namespace kernels = clado::tensor::kernels;
  const kernels::Level level = kernels::active_level();
  clado::tensor::Rng rng(2718);

  clado::backend::LatencyTable table;
  for (const LayerGemmShape& s : probe_layer_shapes(model)) {
    // A conv runs one sample; a linear runs its m rows as a batch.
    const std::int64_t batch = s.conv ? 1 : s.m;
    const std::int64_t in_numel = batch * s.geom.in_channels * s.geom.height * s.geom.width;
    std::vector<float> in_f(static_cast<std::size_t>(in_numel));
    std::vector<float> w_f(static_cast<std::size_t>(s.n * s.k));
    for (auto& v : in_f) v = static_cast<float>(rng.normal());
    for (auto& v : w_f) v = static_cast<float>(rng.normal());
    std::vector<float> bias(static_cast<std::size_t>(s.n), 0.125F);
    std::vector<float> out_f(static_cast<std::size_t>(s.m * s.n));

    const kernels::ConvWorkspace fws = kernels::conv2d_f32_workspace(level, s.geom);
    std::vector<float> floats(static_cast<std::size_t>(fws.floats));
    std::vector<std::int32_t> f_indices(static_cast<std::size_t>(fws.indices));
    const double t_fp32 = time_per_run_adaptive(
        [&] {
          if (s.conv) {
            kernels::conv2d_f32(level, s.geom, 1, in_f.data(), w_f.data(), bias.data(),
                                floats.data(), f_indices.data(), out_f.data());
          } else {
            std::fill(out_f.begin(), out_f.end(), 0.0F);
            kernels::gemm_f32_row_range(level, false, true, 0, s.m, s.n, s.k, 1.0F, in_f.data(),
                                        w_f.data(), out_f.data(), s.k, s.k);
          }
        },
        min_seconds);

    if (s.geom.groups != 1) {
      // The serving plan keeps grouped convs on fp32 whatever their bits.
      table.ms.push_back({t_fp32 * 1e3, t_fp32 * 1e3, t_fp32 * 1e3});
      continue;
    }
    const kernels::QConvWorkspace qws = kernels::qconv2d_s8_workspace(level, s.geom);
    std::vector<std::int16_t> q_codes(static_cast<std::size_t>(qws.codes));
    std::vector<std::int32_t> q_indices(static_cast<std::size_t>(qws.indices));
    kernels::qconv2d_s8_table(level, s.geom, q_indices.data());
    std::vector<std::int8_t> in_q(static_cast<std::size_t>(in_numel));
    std::vector<std::int16_t> pairs(static_cast<std::size_t>(kernels::qweights_pairs(s.n, s.k)));
    std::vector<std::int32_t> sums(static_cast<std::size_t>(s.n));
    const auto time_integer = [&](int code_span) {
      std::vector<std::int8_t> codes(static_cast<std::size_t>(s.n * s.k));
      for (auto& v : codes) {
        v = static_cast<std::int8_t>(
            static_cast<int>(rng.uniform_int(static_cast<std::uint64_t>(code_span))) -
            code_span / 2);
      }
      kernels::pack_qweights(s.n, s.k, codes.data(), pairs.data(), sums.data());
      const kernels::QWeights w{s.n, s.k, pairs.data(), sums.data()};
      return time_per_run_adaptive(
          [&] {
            kernels::quantize_f32_s8(level, in_numel, in_f.data(), 16.0F, 3, in_q.data());
            kernels::qconv2d_s8(level, s.geom, batch, in_q.data(), 3, w, 0.01F, bias.data(),
                                q_indices.data(), q_codes.data(), out_f.data());
          },
          min_seconds);
    };
    const double t_int8 = time_integer(255);
    const double t_int4 = time_integer(16);
    // Column order is the Precision enum: fp32, int8, int4.
    table.ms.push_back({t_fp32 * 1e3, t_int8 * 1e3, t_int4 * 1e3});
  }
  return table;
}

}  // namespace clado::bench
