// Execution-backend latency: the per-layer per-precision latency table
// that closes the loop from "bits assigned" to "milliseconds spent".
//
// It measures every quantizable layer of a model at each execution
// precision (fp32 / int8 / int4 — integer paths including the quantize
// seam the serving backend pays, at the layer's real conv geometry) and
// writes the result as the checksummed latency-table artifact consumed by
// --budget-ms latency-aware solves (clado_cli assign, bench_runtime).
// Shapes come from a probe forward through the real model; weights are
// synthetic codes — latency depends on shape, not values — so no zoo
// training is needed. The integer kernel's scalar-vs-AVX2 race lives in
// bench_gemm_kernels.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <vector>

#include "bench_common.h"
#include "bench_latency.h"
#include "clado/backend/latency.h"
#include "clado/models/builders.h"
#include "clado/obs/obs.h"
#include "clado/tensor/kernels.h"
#include "clado/tensor/rng.h"

namespace {

using clado::tensor::Rng;
namespace kernels = clado::tensor::kernels;

void bench_model_latency(const std::string& name) {
  Rng rng(202);
  auto model = clado::models::build_by_name(name, rng);
  const auto shapes = clado::bench::probe_layer_shapes(model);
  const auto table = clado::bench::measure_latency_table(model, /*min_seconds=*/0.05);

  std::printf("\n=== %s: per-layer latency by execution precision ===\n", name.c_str());
  std::printf("  %-24s %5s %5s %5s  %9s  %9s  %9s  %6s  %6s\n", "layer", "m", "n", "k",
              "fp32 ms", "int8 ms", "int4 ms", "i8/f32", "i4/i8");
  double sums[clado::backend::kNumPrecisions] = {0.0, 0.0, 0.0};
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    const auto& s = shapes[i];
    const double f32 = table.at(i, clado::backend::Precision::kFp32);
    const double i8 = table.at(i, clado::backend::Precision::kInt8);
    const double i4 = table.at(i, clado::backend::Precision::kInt4);
    sums[0] += f32;
    sums[1] += i8;
    sums[2] += i4;
    std::printf("  %-24s %5lld %5lld %5lld  %9.4f  %9.4f  %9.4f  %5.2fx  %5.2fx\n",
                s.name.c_str(), static_cast<long long>(s.m), static_cast<long long>(s.n),
                static_cast<long long>(s.k), f32, i8, i4, f32 / i8, i8 / i4);
    clado::obs::counter("backend.bench.latency_layers").add();
  }
  std::printf("  %-24s %17s  %9.4f  %9.4f  %9.4f\n", "total (batch=1)", "", sums[0], sums[1],
              sums[2]);

  std::filesystem::create_directories("bench_results");
  const std::string path = "bench_results/latency_" + name + ".bin";
  clado::backend::save_latency_table(table, path);
  std::printf("  latency table written to %s (%zu layers; pass it to\n"
              "  `clado_cli assign --latency-table=%s --budget-ms=...`)\n",
              path.c_str(), table.layers(), path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("=== Backend: per-layer latency tables ===\n");
  std::printf("(active kernel level=%s; set CLADO_KERNEL to override)\n",
              kernels::level_name(kernels::active_level()));
  const auto names = clado::bench::models_from_args(argc, argv, {"resnet_a"});
  for (const auto& name : names) bench_model_latency(name);
  return 0;
}
