// clado::serve::CompiledPlan coverage: bit-identity of every Engine's
// compiled plan with the eager forward of a frozen twin (freeze_reference)
// across the whole model zoo (including activation-quantized engines),
// grouped / strided / unpadded conv geometry, batches chunked beyond the
// plan's capacity, the liveness property of the arena planner (live buffers
// never share storage), and zero steady-state heap allocation.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "clado/data/synthcv.h"
#include "clado/models/builders.h"
#include "clado/models/model.h"
#include "clado/nn/blocks.h"
#include "clado/nn/layers.h"
#include "clado/serve/engine.h"
#include "clado/serve/plan.h"
#include "clado/tensor/rng.h"
#include "clado/tensor/tensor.h"
#include "test_models_util.h"

namespace {

using clado::models::Model;
using clado::serve::Engine;
using clado::serve::EngineSpec;
using clado::serve::PlanBuffer;
using clado::tensor::Rng;
using clado::tensor::Tensor;

/// An Engine and its eager reference: a bit-identical clone of the same
/// model, frozen by freeze_reference.
struct EnginePair {
  std::unique_ptr<Engine> engine;
  Model reference;
};

EnginePair make_engine_pair(Model model, std::vector<int> bits, std::int64_t max_batch) {
  EnginePair pair;
  pair.reference = model.clone();
  clado::testing::freeze_reference(pair.reference, bits);
  EngineSpec spec;
  spec.bits = std::move(bits);
  spec.label = "plan";
  spec.max_batch = max_batch;
  pair.engine = std::make_unique<Engine>(std::move(model), std::move(spec));
  return pair;
}

/// Builds a calibrated zoo model and pairs its Engine with the eager
/// reference.
EnginePair make_engines(const std::string& name, std::int64_t max_batch, int bits_value = 8) {
  Rng rng(202);
  Model model = clado::models::build_by_name(name, rng, /*num_classes=*/10);

  clado::data::Batch calib;
  Rng data_rng(303);
  calib.images = Tensor::randn({4, model.channels, model.image_size, model.image_size}, data_rng);
  for (std::int64_t i = 0; i < 4; ++i) calib.labels.push_back(i % model.num_classes);
  model.calibrate_activations(calib);
  std::vector<int> bits(model.quant_layers.size(), bits_value);
  return make_engine_pair(std::move(model), std::move(bits), max_batch);
}

void expect_bit_identical(EnginePair& pair, std::int64_t n, std::uint64_t seed) {
  Rng rng(seed);
  const auto& s = pair.engine->sample_shape();
  const Tensor batch = Tensor::randn({n, s[0], s[1], s[2]}, rng);
  const Tensor a = pair.engine->infer(batch);
  const Tensor b = pair.reference.net->forward(batch);
  ASSERT_EQ(a.shape(), b.shape());
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    ASSERT_EQ(a[i], b[i]) << "n=" << n << " logit " << i;
  }
}

TEST(CompiledPlan, FusedMatchesEagerAcrossZoo) {
  for (const std::string& name : clado::models::model_names()) {
    SCOPED_TRACE(name);
    EnginePair pair = make_engines(name, /*max_batch=*/4);
    expect_bit_identical(pair, /*n=*/3, /*seed=*/500);
    expect_bit_identical(pair, /*n=*/1, /*seed=*/501);
  }
}

TEST(CompiledPlan, CnnZooModelsCompileWithoutFallbacks) {
  for (const std::string name : {"resnet_a", "resnet_b"}) {
    SCOPED_TRACE(name);
    EnginePair pair = make_engines(name, 2);
    EXPECT_EQ(pair.engine->plan(0)->fallback_steps(), 0u)
        << "the CNN path regressed into Module::forward staging";
  }
  // The transformer encoder is out of the compiler's vocabulary by design.
  EnginePair vit = make_engines("vit_mini", 2);
  EXPECT_GT(vit.engine->plan(0)->fallback_steps(), 0u);
}

/// Stride > 1, pad = 0 and grouped convolutions all change the im2col
/// geometry; a planner bug here shows up as a shape throw or wrong logits.
Model make_geometry_model(Rng& rng) {
  using namespace clado::nn;
  Model m;
  m.name = "geometry";
  m.net = std::make_unique<Sequential>();
  m.candidate_bits = {2, 8};
  m.num_classes = 6;
  m.image_size = 16;

  m.net->emplace_named<Conv2d>("stem", 3, 8, 3, /*stride=*/2, /*pad=*/0)->init(rng);
  m.net->emplace_named<Activation>("act1", Act::kRelu);
  m.net->emplace_named<Conv2d>("grouped", 8, 8, 3, 1, 1, /*groups=*/4)->init(rng);
  m.net->emplace_named<Activation>("act2", Act::kHardSwish);
  m.net->emplace_named<MaxPool2d>("pool", 2, 2);
  m.net->emplace_named<Conv2d>("proj", 8, 4, 1, 1, 0, 1, /*bias=*/false)->init(rng);
  m.net->emplace_named<GlobalAvgPool>("gap");
  m.net->emplace_named<Linear>("fc", 4, 6)->init(rng);
  m.finalize();
  return m;
}

EnginePair make_geometry_pair(std::int64_t max_batch) {
  Rng rng(77);
  return make_engine_pair(make_geometry_model(rng), {}, max_batch);
}

TEST(CompiledPlan, FusedMatchesEagerOnGroupedStridedUnpaddedConvs) {
  EnginePair pair = make_geometry_pair(/*max_batch=*/5);
  EXPECT_EQ(pair.engine->plan(0)->fallback_steps(), 0u);
  expect_bit_identical(pair, 5, 600);
  expect_bit_identical(pair, 1, 601);
}

TEST(CompiledPlan, LiveArenaBuffersNeverOverlap) {
  for (const std::string name : {"resnet_a", "mobilenet_v3_mini"}) {
    SCOPED_TRACE(name);
    EnginePair pair = make_engines(name, 3);
    const auto* plan = pair.engine->plan(0);
    const std::vector<PlanBuffer>& bufs = plan->buffers();
    ASSERT_GT(bufs.size(), 1u);
    for (const PlanBuffer& b : bufs) {
      EXPECT_GE(b.offset, 0);
      EXPECT_LE(b.offset + b.numel, plan->arena_numel());
    }
    for (std::size_t i = 0; i < bufs.size(); ++i) {
      for (std::size_t j = i + 1; j < bufs.size(); ++j) {
        const PlanBuffer& a = bufs[i];
        const PlanBuffer& b = bufs[j];
        const bool live_overlap = a.def_step <= b.last_step && b.def_step <= a.last_step;
        if (!live_overlap) continue;
        const bool storage_disjoint =
            a.offset + a.numel <= b.offset || b.offset + b.numel <= a.offset;
        EXPECT_TRUE(storage_disjoint)
            << "buffers " << i << " and " << j << " are simultaneously live at overlapping "
            << "arena ranges [" << a.offset << ", " << a.offset + a.numel << ") and ["
            << b.offset << ", " << b.offset + b.numel << ")";
      }
    }
  }
}

TEST(CompiledPlan, SteadyStateRunsAreAllocationFree) {
  if (!clado::tensor::alloc_counting_enabled()) {
    GTEST_SKIP() << "tensor allocation counting is compiled out of this build "
                    "(Release without CLADO_ENABLE_CHECKS); the sanitizer CI job enforces this";
  }
  EnginePair pair = make_geometry_pair(/*max_batch=*/4);
  Engine& engine = *pair.engine;
  Rng rng(88);
  const Tensor batch = Tensor::randn({4, 3, 16, 16}, rng);
  float* pin = engine.batch_buffer(0);
  ASSERT_NE(pin, nullptr);
  std::memcpy(pin, batch.data(), sizeof(float) * static_cast<std::size_t>(batch.numel()));

  Tensor out;
  for (int i = 0; i < 3; ++i) engine.infer_pinned(4, out, 0);  // warmup
  const std::int64_t before = clado::tensor::alloc_count();
  for (int i = 0; i < 50; ++i) engine.infer_pinned(4, out, 0);
  EXPECT_EQ(clado::tensor::alloc_count(), before)
      << "steady-state fused inference touched the heap";
}

TEST(CompiledPlan, ReplicaPlansAgree) {
  Rng rng(121);
  Model model = make_geometry_model(rng);
  EngineSpec spec;
  spec.replicas = 2;
  spec.max_batch = 2;
  Engine engine(std::move(model), std::move(spec));
  ASSERT_NE(engine.plan(1), nullptr);
  Rng data_rng(131);
  const Tensor batch = Tensor::randn({2, 3, 16, 16}, data_rng);
  const Tensor a = engine.infer(batch, 0);
  const Tensor b = engine.infer(batch, 1);
  ASSERT_EQ(a.shape(), b.shape());
  for (std::int64_t i = 0; i < a.numel(); ++i) EXPECT_EQ(a[i], b[i]);
}

/// Residual blocks whose main path (or shortcut) STARTS with an activation:
/// fusing that activation onto the step that produced the block input would
/// mutate the values the other branch still has to read.
Model make_preact_residual_model(Rng& rng) {
  using namespace clado::nn;
  Model m;
  m.name = "preact_residual";
  m.net = std::make_unique<Sequential>();
  m.candidate_bits = {2, 8};
  m.num_classes = 5;
  m.image_size = 8;

  m.net->emplace_named<Conv2d>("stem", 3, 6, 3, 1, 1)->init(rng);
  auto pre_main = std::make_unique<Sequential>();
  pre_main->emplace_named<Activation>("preact", Act::kRelu);
  pre_main->emplace_named<Conv2d>("conv", 6, 6, 3, 1, 1)->init(rng);
  m.net->emplace_named<ResidualBlock>("preact_block", std::move(pre_main), nullptr,
                                      /*final_relu=*/false);

  auto id_main = std::make_unique<Sequential>();
  id_main->emplace_named<Identity>("id");
  auto shortcut = std::make_unique<Sequential>();
  shortcut->emplace_named<Activation>("shortact", Act::kHardSwish);
  shortcut->emplace_named<Conv2d>("shortconv", 6, 6, 1, 1, 0)->init(rng);
  m.net->emplace_named<ResidualBlock>("act_shortcut_block", std::move(id_main),
                                      std::move(shortcut), /*final_relu=*/true);

  m.net->emplace_named<GlobalAvgPool>("gap");
  m.net->emplace_named<Linear>("fc", 6, 5)->init(rng);
  m.finalize();
  return m;
}

TEST(CompiledPlan, ActivationLeadingResidualBranchesMatchEager) {
  Rng rng(161);
  EnginePair pair = make_engine_pair(make_preact_residual_model(rng), {}, /*max_batch=*/3);

  // Both branch-leading activations must survive as standalone steps; fusing
  // either in place would corrupt the other branch's input.
  std::size_t standalone_acts = 0;
  for (const auto& step : pair.engine->plan(0)->steps()) {
    standalone_acts += step.kind == clado::serve::StepKind::kAct ? 1 : 0;
  }
  EXPECT_EQ(standalone_acts, 2u);
  EXPECT_EQ(pair.engine->plan(0)->fallback_steps(), 0u);
  expect_bit_identical(pair, 3, 700);
  expect_bit_identical(pair, 1, 701);
}

TEST(CompiledPlan, SEBlockWithWeightTransformFallsBack) {
  using namespace clado::nn;
  Rng rng(171);
  Sequential net;
  net.emplace_named<Conv2d>("stem", 3, 8, 3, 1, 1)->init(rng);
  net.emplace_named<SEBlock>("se", 8, 4)->init(rng);
  net.emplace_named<GlobalAvgPool>("gap");
  net.emplace_named<Linear>("fc", 8, 4)->init(rng);

  // Leave a QAT-style transform on the SE's inner linears; the fused SE step
  // reads raw weights, so the plan must stage the block through forward().
  std::vector<QuantLayerRef> layers;
  net.collect_quant_layers("", layers);
  std::size_t transformed = 0;
  for (auto& ref : layers) {
    if (ref.name.find("se.fc") == std::string::npos) continue;
    ref.layer->set_weight_transform([](const Tensor& w) { return w * 0.5F; });
    ++transformed;
  }
  ASSERT_EQ(transformed, 2u);

  net.set_inference(true);
  clado::serve::CompiledPlan plan(net, {3, 8, 8}, /*max_batch=*/2);
  EXPECT_GE(plan.fallback_steps(), 1u);

  Rng data_rng(172);
  const Tensor batch = Tensor::randn({2, 3, 8, 8}, data_rng);
  std::memcpy(plan.input(), batch.data(), sizeof(float) * static_cast<std::size_t>(batch.numel()));
  Tensor fused_out;
  plan.run(2, fused_out);
  const Tensor eager_out = net.forward(batch);
  ASSERT_EQ(fused_out.shape(), eager_out.shape());
  for (std::int64_t i = 0; i < fused_out.numel(); ++i) EXPECT_EQ(fused_out[i], eager_out[i]);
}

TEST(CompiledPlan, ResidualBranchShapeMismatchThrowsAtCompile) {
  using namespace clado::nn;
  Rng rng(181);
  Sequential net;
  net.emplace_named<Conv2d>("stem", 3, 4, 3, 1, 1)->init(rng);
  auto main = std::make_unique<Sequential>();
  // stride 2 halves the spatial dims, so the identity add cannot line up.
  main->emplace_named<Conv2d>("conv", 4, 4, 3, 2, 1)->init(rng);
  net.emplace_named<ResidualBlock>("bad_block", std::move(main), nullptr);
  net.set_inference(true);
  EXPECT_THROW(clado::serve::CompiledPlan(net, {3, 8, 8}, 1), std::invalid_argument);
}

TEST(CompiledPlan, OversizedBatchChunksThroughThePlan) {
  // 5 samples over a capacity of 2 run as chunks {2, 2, 1}, the last one
  // partial; every row must still match the eager reference.
  EnginePair pair = make_geometry_pair(/*max_batch=*/2);
  expect_bit_identical(pair, 5, 141);
}

}  // namespace
