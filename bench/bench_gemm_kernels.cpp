// Kernel-level throughput: scalar reference vs the best runtime-dispatched
// level (AVX2/FMA where the host has it), for the fp32 blocked GEMM and
// the integer conv entry of the serving backends (kernels::qconv2d_s8, on
// resnet_a's conv shapes at batch 8); and the batched fp32 conv entry
// (kernels::conv2d_f32) vs the per-sample im2col + gemm route it replaced,
// both at the dispatched level, on resnet_a's conv shapes; and the
// elementwise transcendental kernels (GELU and exp), scalar vs the
// dispatched level, over fixed evenly spaced samples of their inputs.
//
// Two kinds of output, with different contracts:
//   * Timings (GFLOP/s, GOP/s, speedup) — never baselined as wall clock,
//     but the *speedup ratio* of the vector level over scalar on the same
//     host is stable enough to gate: the baseline pins a minimum via the
//     gauges_min section checked by tools/diff_metrics_baseline.py.
//   * Work/correctness counters — deterministic; the vector level is
//     re-verified against scalar on every timed shape (the conv entry
//     against the per-sample route, the integer conv and the elementwise
//     kernels across levels, all bit for bit), and any mismatch shows up
//     as a nonzero kernels.bench.*_mismatches counter (baselined at
//     zero).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdint>
#include <cstring>
#include <vector>

#include "clado/obs/obs.h"
#include "clado/tensor/kernels.h"
#include "clado/tensor/ops.h"
#include "clado/tensor/rng.h"

namespace {

using clado::tensor::Rng;
namespace kernels = clado::tensor::kernels;
using kernels::Level;
using Clock = std::chrono::steady_clock;

// Time `fn` with an adaptive repeat count: at least kMinReps runs and at
// least kMinSeconds of accumulated wall clock, reporting seconds per run.
template <typename Fn>
double time_per_run(Fn&& fn) {
  constexpr int kMinReps = 3;
  constexpr double kMinSeconds = 0.15;
  int reps = 0;
  const auto t0 = Clock::now();
  double elapsed = 0.0;
  while (reps < kMinReps || elapsed < kMinSeconds) {
    fn();
    ++reps;
    elapsed = std::chrono::duration<double>(Clock::now() - t0).count();
  }
  return elapsed / reps;
}

struct Shape {
  std::int64_t m, n, k;
};

double bench_f32(Level best) {
  // One square shape dominating the compute and one ragged shape keeping
  // the edge tiles honest in the timing mix.
  const std::vector<Shape> shapes = {{256, 256, 256}, {192, 176, 200}};
  Rng rng(12345);
  double scalar_total = 0.0;
  double best_total = 0.0;
  double flops_total = 0.0;
  for (const Shape& s : shapes) {
    std::vector<float> a(static_cast<std::size_t>(s.m * s.k));
    std::vector<float> b(static_cast<std::size_t>(s.k * s.n));
    for (auto& v : a) v = static_cast<float>(rng.normal());
    for (auto& v : b) v = static_cast<float>(rng.normal());
    std::vector<float> c_scalar(static_cast<std::size_t>(s.m * s.n), 0.0F);
    std::vector<float> c_best(c_scalar);

    auto run = [&](Level level, std::vector<float>& c) {
      kernels::gemm_f32_row_range(level, false, false, 0, s.m, s.n, s.k, 1.0F, a.data(),
                                  b.data(), c.data(), s.k, s.n);
    };
    const double t_scalar = time_per_run([&] { run(Level::kScalar, c_scalar); });
    const double t_best = time_per_run([&] { run(best, c_best); });

    // Re-verify the levels against each other on the final accumulated
    // state (same rep counts are not guaranteed, so compare fresh runs).
    std::fill(c_scalar.begin(), c_scalar.end(), 0.0F);
    std::fill(c_best.begin(), c_best.end(), 0.0F);
    run(Level::kScalar, c_scalar);
    run(best, c_best);
    std::int64_t mismatches = 0;
    for (std::size_t i = 0; i < c_scalar.size(); ++i) {
      const float x = c_scalar[i];
      const float y = c_best[i];
      const float tol = 1e-5F * (1.0F + std::abs(x) + 0.02F * static_cast<float>(s.k));
      if (std::abs(x - y) > tol) ++mismatches;
    }
    clado::obs::counter("kernels.bench.f32_cases").add();
    clado::obs::counter("kernels.bench.f32_mismatches").add(mismatches);

    const double flops = 2.0 * static_cast<double>(s.m) * static_cast<double>(s.n) *
                         static_cast<double>(s.k);
    scalar_total += t_scalar;
    best_total += t_best;
    flops_total += flops;
    std::printf("  f32 %4lldx%4lldx%4lld  scalar %7.2f GFLOP/s   %s %7.2f GFLOP/s   %5.2fx\n",
                static_cast<long long>(s.m), static_cast<long long>(s.n),
                static_cast<long long>(s.k), flops / t_scalar * 1e-9,
                kernels::level_name(best), flops / t_best * 1e-9, t_scalar / t_best);
  }
  const double speedup = scalar_total / best_total;
  std::printf("  f32 aggregate: scalar %.2f GFLOP/s, %s %.2f GFLOP/s, speedup %.2fx\n",
              flops_total / scalar_total * 1e-9, kernels::level_name(best),
              flops_total / best_total * 1e-9, speedup);
  return speedup;
}

// resnet_a's conv layers (3x3 body convs and 1x1 downsamples) at the
// serving micro-batch: the integer conv entry, scalar against `best`.
double bench_s8(Level best) {
  const std::vector<kernels::ConvGeometry> shapes = {
      {3, 16, 16, 8, 3, 1, 1, 1},  {8, 16, 16, 8, 3, 1, 1, 1},   {8, 16, 16, 16, 3, 2, 1, 1},
      {16, 8, 8, 16, 3, 1, 1, 1},  {16, 8, 8, 32, 3, 2, 1, 1},   {32, 4, 4, 32, 3, 1, 1, 1},
      {8, 16, 16, 16, 1, 2, 0, 1}, {16, 8, 8, 32, 1, 2, 0, 1},
  };
  constexpr std::int64_t kBatch = 8;
  Rng rng(54321);
  double scalar_total = 0.0;
  double best_total = 0.0;
  double ops_total = 0.0;
  for (const kernels::ConvGeometry& g : shapes) {
    const std::int64_t n = g.out_channels;
    const std::int64_t k = g.in_channels * g.kernel * g.kernel;
    const std::int64_t positions =
        clado::tensor::conv_out_size(g.height, g.kernel, g.stride, g.pad) *
        clado::tensor::conv_out_size(g.width, g.kernel, g.stride, g.pad);
    std::vector<std::int8_t> input(static_cast<std::size_t>(kBatch * g.in_channels * g.height *
                                                            g.width));
    std::vector<std::int8_t> codes(static_cast<std::size_t>(n * k));
    for (auto& v : input) {
      v = static_cast<std::int8_t>(static_cast<int>(rng.uniform_int(256)) - 128);
    }
    for (auto& v : codes) {
      v = static_cast<std::int8_t>(static_cast<int>(rng.uniform_int(256)) - 128);
    }
    std::vector<std::int16_t> pairs(static_cast<std::size_t>(kernels::qweights_pairs(n, k)));
    std::vector<std::int32_t> sums(static_cast<std::size_t>(n));
    kernels::pack_qweights(n, k, codes.data(), pairs.data(), sums.data());
    const kernels::QWeights w{n, k, pairs.data(), sums.data()};
    std::vector<float> bias(static_cast<std::size_t>(n));
    for (auto& v : bias) v = static_cast<float>(rng.normal());
    const std::size_t out_numel = static_cast<std::size_t>(kBatch * n * positions);
    std::vector<float> out_scalar(out_numel);
    std::vector<float> out_best(out_numel);

    // Each level gets its own workspace and index table, built once as a
    // serving plan builds them.
    struct Scratch {
      std::vector<std::int16_t> codes;
      std::vector<std::int32_t> table;
    };
    const auto scratch_for = [&](Level level) {
      const kernels::QConvWorkspace ws = kernels::qconv2d_s8_workspace(level, g);
      Scratch sc{std::vector<std::int16_t>(static_cast<std::size_t>(ws.codes)),
                 std::vector<std::int32_t>(static_cast<std::size_t>(ws.indices))};
      kernels::qconv2d_s8_table(level, g, sc.table.data());
      return sc;
    };
    Scratch scalar_scratch = scratch_for(Level::kScalar);
    Scratch best_scratch = scratch_for(best);
    auto run = [&](Level level, Scratch& sc, std::vector<float>& out) {
      kernels::qconv2d_s8(level, g, kBatch, input.data(), -7, w, 0.0123F, bias.data(),
                          sc.table.data(), sc.codes.data(), out.data());
    };
    const double t_scalar = time_per_run([&] { run(Level::kScalar, scalar_scratch, out_scalar); });
    const double t_best = time_per_run([&] { run(best, best_scratch, out_best); });

    std::int64_t mismatches = 0;
    for (std::size_t i = 0; i < out_numel; ++i) {
      // Integer contract: BIT-exact across levels.
      if (std::memcmp(&out_scalar[i], &out_best[i], sizeof(float)) != 0) ++mismatches;
    }
    clado::obs::counter("kernels.bench.s8_cases").add();
    clado::obs::counter("kernels.bench.s8_mismatches").add(mismatches);

    const double ops = 2.0 * static_cast<double>(kBatch * n * positions * k);
    scalar_total += t_scalar;
    best_total += t_best;
    ops_total += ops;
    std::printf("  s8 conv %2lldx%2lldx%2lld -> %2lld k%lld s%lld  scalar %7.2f GOP/s   "
                "%s %7.2f GOP/s   %5.2fx\n",
                static_cast<long long>(g.in_channels), static_cast<long long>(g.height),
                static_cast<long long>(g.width), static_cast<long long>(n),
                static_cast<long long>(g.kernel), static_cast<long long>(g.stride),
                ops / t_scalar * 1e-9, kernels::level_name(best), ops / t_best * 1e-9,
                t_scalar / t_best);
  }
  const double speedup = scalar_total / best_total;
  std::printf("  s8 conv aggregate (batch %lld): scalar %.2f GOP/s, %s %.2f GOP/s, speedup %.2fx\n",
              static_cast<long long>(kBatch), ops_total / scalar_total * 1e-9,
              kernels::level_name(best), ops_total / best_total * 1e-9, speedup);
  return speedup;
}

double bench_conv(Level level) {
  // resnet_a's conv layers at the sensitivity sweep's batch (its 1x1
  // downsamples take gemm's small path and so keep the per-sample route).
  const std::vector<kernels::ConvGeometry> shapes = {
      {3, 16, 16, 8, 3, 1, 1, 1},  {8, 16, 16, 8, 3, 1, 1, 1}, {8, 16, 16, 16, 3, 2, 1, 1},
      {16, 8, 8, 16, 3, 1, 1, 1},  {16, 8, 8, 32, 3, 2, 1, 1}, {32, 4, 4, 32, 3, 1, 1, 1},
  };
  constexpr std::int64_t kBatch = 64;
  Rng rng(777);
  double per_sample_total = 0.0;
  double entry_total = 0.0;
  double flops_total = 0.0;
  for (const kernels::ConvGeometry& g : shapes) {
    const std::int64_t oh = clado::tensor::conv_out_size(g.height, g.kernel, g.stride, g.pad);
    const std::int64_t ow = clado::tensor::conv_out_size(g.width, g.kernel, g.stride, g.pad);
    const std::int64_t positions = oh * ow;
    const std::int64_t patch = g.in_channels * g.kernel * g.kernel;
    const std::int64_t image = g.in_channels * g.height * g.width;
    std::vector<float> input(static_cast<std::size_t>(kBatch * image));
    std::vector<float> weight(static_cast<std::size_t>(g.out_channels * patch));
    std::vector<float> bias(static_cast<std::size_t>(g.out_channels));
    for (auto& v : input) v = static_cast<float>(rng.normal());
    for (auto& v : weight) v = static_cast<float>(rng.normal());
    for (auto& v : bias) v = static_cast<float>(rng.normal());
    const std::size_t out_numel = static_cast<std::size_t>(kBatch * g.out_channels * positions);
    std::vector<float> out_per_sample(out_numel);
    std::vector<float> out_entry(out_numel);

    std::vector<float> cols(static_cast<std::size_t>(positions * patch));
    auto per_sample = [&] {
      for (std::int64_t s = 0; s < kBatch; ++s) {
        float* out = out_per_sample.data() + s * g.out_channels * positions;
        clado::tensor::im2col(input.data() + s * image, g.in_channels, g.height, g.width,
                              g.kernel, g.kernel, g.stride, g.pad, cols.data());
        clado::tensor::gemm(level, false, true, g.out_channels, positions, patch, 1.0F,
                            weight.data(), cols.data(), 0.0F, out);
        for (std::int64_t c = 0; c < g.out_channels; ++c) {
          for (std::int64_t p = 0; p < positions; ++p) out[c * positions + p] += bias[c];
        }
      }
    };
    const kernels::ConvWorkspace ws = kernels::conv2d_f32_workspace(level, g);
    std::vector<float> floats(static_cast<std::size_t>(ws.floats));
    std::vector<std::int32_t> indices(static_cast<std::size_t>(ws.indices));
    auto entry = [&] {
      kernels::conv2d_f32(level, g, kBatch, input.data(), weight.data(), bias.data(),
                          floats.data(), indices.data(), out_entry.data());
    };
    const double t_per_sample = time_per_run(per_sample);
    const double t_entry = time_per_run(entry);

    std::int64_t mismatches = 0;
    for (std::size_t i = 0; i < out_numel; ++i) {
      if (std::memcmp(&out_per_sample[i], &out_entry[i], sizeof(float)) != 0) ++mismatches;
    }
    clado::obs::counter("kernels.bench.conv_cases").add();
    clado::obs::counter("kernels.bench.conv_mismatches").add(mismatches);

    const double flops = 2.0 * static_cast<double>(kBatch * g.out_channels * positions * patch);
    per_sample_total += t_per_sample;
    entry_total += t_entry;
    flops_total += flops;
    std::printf("  conv %2lldx%2lldx%2lld -> %2lld k%lld s%lld  per-sample %6.2f GFLOP/s   "
                "entry %6.2f GFLOP/s   %5.2fx\n",
                static_cast<long long>(g.in_channels), static_cast<long long>(g.height),
                static_cast<long long>(g.width), static_cast<long long>(g.out_channels),
                static_cast<long long>(g.kernel), static_cast<long long>(g.stride),
                flops / t_per_sample * 1e-9, flops / t_entry * 1e-9, t_per_sample / t_entry);
  }
  const double speedup = per_sample_total / entry_total;
  std::printf("  conv aggregate (batch %lld, %s): per-sample %.2f GFLOP/s, entry %.2f GFLOP/s, "
              "speedup %.2fx\n",
              static_cast<long long>(kBatch), kernels::level_name(level),
              flops_total / per_sample_total * 1e-9, flops_total / entry_total * 1e-9, speedup);
  return speedup;
}

// GELU and exp, the transcendental kernels of vit_mini's fc1 and attention
// steps, scalar against `best` over a fixed strided sample of the inputs
// they serve: 2^20 evenly spaced GELU arguments in [-8, 8) (fc1
// pre-activations) and exp arguments in [-64, 0) (softmax's x - max).
// Spread over every bit pattern instead, the sample would be mostly
// magnitudes where the scalar ports return early (tanh below 2^-55 or
// above 22, NaN, infinities) while every vector lane computes each
// branch, and subnormal intermediates would cost both levels microcode
// assists: a race of neither kernel's real work.
double bench_math(Level best) {
  using MathFn = void (*)(Level, std::int64_t, const float*, float*);
  struct Case {
    const char* name;
    MathFn fn;
    float lo, hi;
  };
  const std::vector<Case> cases = {{"gelu", kernels::gelu_f32, -8.0F, 8.0F},
                                   {"exp", kernels::exp_f32, -64.0F, 0.0F}};
  constexpr std::int64_t kCount = std::int64_t{1} << 20;
  std::vector<float> x(kCount);
  std::vector<float> out_scalar(kCount);
  std::vector<float> out_best(kCount);
  double scalar_total = 0.0;
  double best_total = 0.0;
  for (const Case& c : cases) {
    const double step = (static_cast<double>(c.hi) - c.lo) / kCount;
    for (std::int64_t i = 0; i < kCount; ++i) x[i] = static_cast<float>(c.lo + step * i);
    const double t_scalar =
        time_per_run([&] { c.fn(Level::kScalar, kCount, x.data(), out_scalar.data()); });
    const double t_best = time_per_run([&] { c.fn(best, kCount, x.data(), out_best.data()); });
    std::int64_t mismatches = 0;
    for (std::int64_t i = 0; i < kCount; ++i) {
      // Bit-exact across levels.
      if (std::memcmp(&out_scalar[i], &out_best[i], sizeof(float)) != 0) ++mismatches;
    }
    clado::obs::counter("kernels.bench.math_cases").add();
    clado::obs::counter("kernels.bench.math_mismatches").add(mismatches);
    scalar_total += t_scalar;
    best_total += t_best;
    std::printf("  %-4s on [%g, %g)  scalar %6.2f ns/elem   %s %5.2f ns/elem   %5.2fx\n", c.name,
                c.lo, c.hi, t_scalar / kCount * 1e9, kernels::level_name(best),
                t_best / kCount * 1e9, t_scalar / t_best);
  }
  const double speedup = scalar_total / best_total;
  std::printf("  elementwise aggregate: speedup %.2fx\n", speedup);
  return speedup;
}

}  // namespace

int main() {
  const Level best = kernels::active_level();
  std::printf("=== GEMM kernel throughput: scalar vs dispatched level ===\n");
  std::printf("(cpu_supports_avx2=%d, active level=%s; set CLADO_KERNEL to override)\n\n",
              kernels::cpu_supports_avx2() ? 1 : 0, kernels::level_name(best));

  if (best == Level::kScalar) {
    // Nothing to race against: still run scalar once for the correctness
    // counters, but emit no speedup gauges (the baseline's gauges_min is
    // only enforced on hosts where the vector level is active).
    std::printf("active level is scalar; speedup gauges skipped\n\n");
    bench_f32(Level::kScalar);
    bench_s8(Level::kScalar);
    bench_conv(Level::kScalar);
    bench_math(Level::kScalar);
    return 0;
  }

  const double f32_speedup = bench_f32(best);
  std::printf("\n");
  const double s8_speedup = bench_s8(best);
  std::printf("\n");
  const double conv_speedup = bench_conv(best);
  std::printf("\n");
  const double math_speedup = bench_math(best);
  clado::obs::gauge("kernels.bench.f32_speedup").set(f32_speedup);
  clado::obs::gauge("kernels.bench.s8_speedup").set(s8_speedup);
  clado::obs::gauge("kernels.bench.conv_speedup").set(conv_speedup);
  clado::obs::gauge("kernels.bench.math_speedup").set(math_speedup);
  return 0;
}
