// Integer deployment: serve one CLADO mixed-precision assignment twice on
// serve::Engine — once as the fake-quant fp32 simulation the sensitivity
// pipeline measured, once on the int8 / packed-int4 backends a fixed-point
// accelerator would run — and check that the accuracy the simulation
// reported carries over to real integer arithmetic.
//
// Pipeline demonstrated:
//   1. load a pretrained zoo model and calibrate its activation quantizers,
//   2. run CLADO for a mixed assignment at a 4-bit-equivalent size,
//   3. freeze that assignment into two Engines (BatchNorm folded, weights
//      on the grid): BackendMode::kOff (fake-quant) and kOn (integer),
//   4. compare their val top-1 through Engine::infer and the largest logit
//      gap between them,
//   5. print the backend every conv / linear step of the integer plan runs.
//
// Run from the repository root: ./build/examples/int8_deploy
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "clado/core/algorithms.h"
#include "clado/models/zoo.h"
#include "clado/serve/engine.h"

namespace {

using clado::tensor::Tensor;

double top1_percent(const Tensor& logits, const std::vector<std::int64_t>& labels) {
  const std::int64_t rows = logits.size(0);
  const std::int64_t classes = logits.size(1);
  std::int64_t correct = 0;
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* row = logits.data() + r * classes;
    if (std::max_element(row, row + classes) - row == labels[static_cast<std::size_t>(r)]) {
      ++correct;
    }
  }
  return 100.0 * static_cast<double>(correct) / static_cast<double>(rows);
}

}  // namespace

int main() {
  using clado::serve::BackendMode;
  using clado::serve::Engine;

  clado::models::TrainedModel tm = clado::models::get_or_train("resnet_a");
  tm.model.calibrate_activations(tm.train_set.make_range_batch(0, 128));

  clado::tensor::Rng rng(3);
  const auto indices = clado::data::sample_indices(4096, 64, rng);
  clado::core::MpqPipeline pipeline(tm.model, tm.train_set.make_batch(indices), {});
  const auto assignment =
      pipeline.assign(clado::core::Algorithm::kClado, tm.model.uniform_size_bytes(8) * 0.5);

  const auto freeze = [&](BackendMode backend, const char* label) {
    clado::serve::EngineSpec spec;
    spec.bits = assignment.bits;
    spec.label = label;
    spec.backend = backend;
    return Engine(tm.model.clone(), std::move(spec));
  };
  Engine fake = freeze(BackendMode::kOff, "fake-quant");
  Engine integer = freeze(BackendMode::kOn, "integer");

  // infer() runs the whole split through each replica's compiled plan in
  // chunks of EngineSpec::max_batch samples.
  const auto val = tm.val_set.make_range_batch(0, 1024);
  const Tensor fake_logits = fake.infer(val.images);
  const Tensor int_logits = integer.infer(val.images);
  double max_gap = 0.0;
  for (std::int64_t i = 0; i < fake_logits.numel(); ++i) {
    max_gap = std::max(max_gap, std::abs(static_cast<double>(int_logits[i]) - fake_logits[i]));
  }

  std::printf("resnet_a, CLADO assignment at a 4-bit-equivalent size (%.2f KB), %lld val "
              "samples:\n",
              assignment.bytes / 1024.0, static_cast<long long>(val.size()));
  std::printf("  %-10s top-1 %.2f%%\n", fake.label().c_str(),
              top1_percent(fake_logits, val.labels));
  std::printf("  %-10s top-1 %.2f%%\n", integer.label().c_str(),
              top1_percent(int_logits, val.labels));
  std::printf("  largest logit gap, integer vs fake-quant: %.4f\n", max_gap);

  std::printf("\ninteger plan, conv / linear steps:\n");
  std::istringstream dump(integer.plan(0)->dump());
  for (std::string line; std::getline(dump, line);) {
    if (line.find("backend=") != std::string::npos) std::printf("  %s\n", line.c_str());
  }
  return 0;
}
