// Bring-your-own-model: build a custom network with the nn API, train it
// with the built-in trainer, and run the full MPQ pipeline (including QAT
// fine-tuning) on it. Nothing in the pipeline is specific to the zoo —
// any Sequential of the nn module types the compiled plan runs (every type
// the zoo uses, BatchNorm2d included) works; a module type it cannot
// compile is refused when the pipeline is built, naming the type.
#include <cstdio>
#include <memory>

#include "clado/core/algorithms.h"
#include "clado/core/qat_runner.h"
#include "clado/models/zoo.h"
#include "clado/nn/blocks.h"
#include "clado/nn/layers.h"

namespace {

using namespace clado::nn;

/// A small VGG-ish plain CNN (no residuals) with one SE block: a shape the
/// zoo does not contain, to show the pipeline is architecture-agnostic.
clado::models::Model build_my_cnn(clado::tensor::Rng& rng, std::int64_t classes) {
  clado::models::Model m;
  m.name = "my_vggish";
  m.net = std::make_unique<Sequential>();
  m.candidate_bits = {2, 4, 8};
  m.scheme = clado::quant::WeightScheme::kPerTensorSymmetric;
  m.num_classes = classes;

  auto conv_block = [&](std::int64_t in, std::int64_t out, std::int64_t stride) {
    auto seq = std::make_unique<Sequential>();
    seq->emplace_named<Conv2d>("conv", in, out, 3, stride, 1, 1, false)->init(rng);
    seq->emplace_named<BatchNorm2d>("bn", out);
    seq->emplace_named<Activation>("act", Act::kRelu);
    return seq;
  };
  m.net->push_back(conv_block(3, 12, 1), "block1");
  m.net->push_back(conv_block(12, 12, 1), "block2");
  m.net->push_back(conv_block(12, 24, 2), "block3");
  {
    auto se = std::make_unique<SEBlock>(24, 8);
    se->init(rng);
    m.net->push_back(std::move(se), "se");
  }
  m.net->push_back(conv_block(24, 32, 2), "block4");
  m.net->emplace_named<GlobalAvgPool>("pool");
  m.net->emplace_named<Linear>("fc", 32, classes)->init(rng);
  m.finalize();
  return m;
}

}  // namespace

int main() {
  clado::tensor::Rng rng(2024);
  clado::models::ZooConfig data_cfg;  // reuse the zoo's dataset settings
  clado::data::SynthCvDataset train_set({.num_classes = data_cfg.num_classes,
                                         .seed = data_cfg.train_seed});
  clado::data::SynthCvDataset val_set({.num_classes = data_cfg.num_classes,
                                       .seed = data_cfg.val_seed});

  clado::models::Model model = build_my_cnn(rng, data_cfg.num_classes);
  std::printf("custom model '%s': %lld quantizable layers\n", model.name.c_str(),
              static_cast<long long>(model.num_quant_layers()));
  for (const auto& l : model.quant_layers) {
    std::printf("  [stage %d] %s (%lld params)\n", l.stage, l.name.c_str(),
                static_cast<long long>(l.layer->weight_param().value.numel()));
  }

  std::printf("\ntraining from scratch...\n");
  const double fp32 = clado::models::train_model(model, train_set, val_set, data_cfg,
                                                 /*epochs=*/8, /*lr=*/0.05F);
  std::printf("fp32 top-1: %.2f%%\n\n", 100.0 * fp32);

  model.calibrate_activations(train_set.make_range_batch(0, 128));
  const auto indices = clado::data::sample_indices(data_cfg.train_size, 64, rng);
  clado::core::MpqPipeline pipeline(model, train_set.make_batch(indices), {});

  const double target = model.uniform_size_bytes(8) * 0.375;
  for (auto alg : {clado::core::Algorithm::kCladoStar, clado::core::Algorithm::kClado}) {
    const auto assignment = pipeline.assign(alg, target);
    auto snapshot = pipeline.apply_ptq(assignment);
    std::printf("%-7s PTQ top-1 at %.2f KB: %.2f%%\n", clado::core::algorithm_name(alg),
                assignment.bytes / 1024.0,
                100.0 * model.accuracy_on(val_set, data_cfg.val_size));
    snapshot->restore();
  }

  // QAT on the CLADO assignment.
  const auto assignment = pipeline.assign(clado::core::Algorithm::kClado, target);
  clado::core::QatConfig qat;
  qat.epochs = 3;
  qat.train_size = 2048;
  const auto res = clado::core::run_qat(model, assignment, train_set, val_set, qat);
  std::printf("QAT:    %.2f%% -> %.2f%%\n", 100.0 * res.pre_qat_accuracy,
              100.0 * res.post_qat_accuracy);
  return 0;
}
