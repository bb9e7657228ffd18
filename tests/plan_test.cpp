// clado::serve::CompiledPlan coverage: bit-identity of every Engine's
// compiled plan with the eager forward of a frozen twin (freeze_reference)
// across the whole model zoo (including activation-quantized engines), and
// of the sensitivity sweep's kept-activation plans with the eager forward
// of the unfolded zoo (eval-mode BatchNorm steps), run_from a layer's first
// step against a full run, grouped / strided / unpadded conv geometry,
// batches chunked beyond the plan's capacity, vit_mini's attention and
// tokens steps, compile-time refusal of modules outside the plan's
// vocabulary, the liveness property of the arena planner (live buffers
// never share storage), and zero steady-state tensor allocation on every
// zoo model.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "clado/data/synthcv.h"
#include "clado/models/builders.h"
#include "clado/models/model.h"
#include "clado/nn/blocks.h"
#include "clado/nn/layers.h"
#include "clado/quant/act_quant.h"
#include "clado/quant/quantizer.h"
#include "clado/serve/engine.h"
#include "clado/serve/plan.h"
#include "clado/tensor/rng.h"
#include "clado/tensor/tensor.h"
#include "test_models_util.h"

namespace {

using clado::models::Model;
using clado::serve::CompiledPlan;
using clado::serve::Engine;
using clado::serve::EngineSpec;
using clado::serve::PlanBuffer;
using clado::serve::StepKind;
using clado::tensor::Rng;
using clado::tensor::Shape;
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
    // The Engine folds every BatchNorm at freeze, so none is left to run.
    EXPECT_EQ(pair.engine->plan(0)->dump().find("batchnorm"), std::string::npos)
        << pair.engine->plan(0)->dump();
  }
}

/// A zoo model as the sensitivity sweep sees it: random init, BatchNorm
/// running statistics moved off their init values by one training-mode
/// forward, activations calibrated, eval mode, nothing folded.
Model make_sweep_model(const std::string& name) {
  Rng rng(202);
  Model model = clado::models::build_by_name(name, rng, /*num_classes=*/10);
  clado::data::Batch calib;
  Rng data_rng(303);
  calib.images = Tensor::randn({4, model.channels, model.image_size, model.image_size}, data_rng);
  for (std::int64_t i = 0; i < 4; ++i) calib.labels.push_back(i % model.num_classes);
  model.net->set_training(true);
  model.net->forward(calib.images);
  model.calibrate_activations(calib);
  model.net->set_training(false);
  return model;
}

Shape sample_shape(const Model& model) {
  return {model.channels, model.image_size, model.image_size};
}

/// Compiles the sweep's plan shape over `model`, stages a random batch of
/// `n` samples and returns it.
std::unique_ptr<CompiledPlan> make_kept_plan(Model& model, std::int64_t n, Tensor& batch) {
  auto plan = std::make_unique<CompiledPlan>(*model.net, sample_shape(model), n,
                                             /*prepared=*/nullptr, /*keep_activations=*/true);
  Rng rng(510);
  batch = Tensor::randn({n, model.channels, model.image_size, model.image_size}, rng);
  std::memcpy(plan->input(), batch.data(), sizeof(float) * static_cast<std::size_t>(batch.numel()));
  return plan;
}

void expect_same_bits(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  for (std::int64_t i = 0; i < a.numel(); ++i) ASSERT_EQ(a[i], b[i]) << "logit " << i;
}

TEST(CompiledPlan, KeptActivationPlanMatchesUnfoldedEagerAcrossZoo) {
  std::size_t bn_steps = 0;
  for (const std::string& name : clado::models::model_names()) {
    SCOPED_TRACE(name);
    Model model = make_sweep_model(name);
    Tensor batch;
    const auto plan = make_kept_plan(model, 3, batch);
    for (const auto& step : plan->steps()) bn_steps += step.kind == StepKind::kBatchNorm ? 1 : 0;
    Tensor out;
    plan->run(3, out);
    expect_same_bits(out, model.net->forward(batch));
  }
  EXPECT_GT(bn_steps, 0u) << "no zoo model ran an un-folded BatchNorm step";
}

TEST(CompiledPlan, RunFromLayerFirstStepEqualsFullRun) {
  for (const std::string& name : clado::models::model_names()) {
    SCOPED_TRACE(name);
    Model model = make_sweep_model(name);
    Tensor batch;
    const auto plan = make_kept_plan(model, 2, batch);
    Tensor full;
    plan->run(2, full);
    for (const auto& ref : model.quant_layers) {
      SCOPED_TRACE(ref.name);
      Tensor& w = ref.layer->weight_param().value;
      const Tensor saved = w;
      w = clado::quant::quantize_weight(saved, model.candidate_bits.front(), model.scheme);
      Tensor partial;
      plan->run_from(plan->first_step(*ref.layer), 2, partial);
      plan->run(2, full);
      expect_same_bits(partial, full);
      w = saved;
      plan->run(2, full);  // the clean activations again, for the next layer
    }
  }
  // Only a kept-activation plan can start past step 0.
  Model model = make_sweep_model("resnet_a");
  CompiledPlan plain(*model.net, sample_shape(model), /*max_batch=*/2);
  Tensor out;
  EXPECT_THROW(plain.run_from(1, 2, out), std::invalid_argument);
}

std::size_t count_steps(const Engine& engine, StepKind kind) {
  std::size_t n = 0;
  for (const auto& step : engine.plan(0)->steps()) n += step.kind == kind ? 1 : 0;
  return n;
}

TEST(CompiledPlan, VitMiniCompilesAttentionAndTokenSteps) {
  EnginePair vit = make_engines("vit_mini", 2);
  const Engine& engine = *vit.engine;
  EXPECT_EQ(count_steps(engine, StepKind::kAttention), 4u) << engine.plan(0)->dump();
  EXPECT_EQ(count_steps(engine, StepKind::kTokens), 1u) << engine.plan(0)->dump();
  // Each of the 25 MPQ layers (q/k/v/out-proj/fc1/fc2 per block, plus the
  // classifier) is a linear step of its own.
  EXPECT_EQ(count_steps(engine, StepKind::kLinear), vit.reference.quant_layers.size());
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
  expect_bit_identical(pair, 5, 600);
  expect_bit_identical(pair, 1, 601);
}

void expect_live_buffers_disjoint(const CompiledPlan* plan, bool kept) {
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
  if (!kept) return;
  // Kept: every activation stays live to the end of the run.
  for (const PlanBuffer& b : bufs) {
    if (!b.scratch) {
      EXPECT_EQ(b.last_step, static_cast<std::int64_t>(plan->steps().size()));
    }
  }
}

TEST(CompiledPlan, LiveArenaBuffersNeverOverlap) {
  for (const std::string name : {"resnet_a", "mobilenet_v3_mini", "vit_mini"}) {
    SCOPED_TRACE(name);
    EnginePair pair = make_engines(name, 3);
    expect_live_buffers_disjoint(pair.engine->plan(0), /*kept=*/false);
    Model model = make_sweep_model(name);
    Tensor batch;
    expect_live_buffers_disjoint(make_kept_plan(model, 3, batch).get(), /*kept=*/true);
  }
}

TEST(CompiledPlan, SteadyStateRunsAreAllocationFree) {
  if (!clado::tensor::alloc_counting_enabled()) {
    GTEST_SKIP() << "tensor allocation counting is compiled out of this build "
                    "(Release without CLADO_ENABLE_CHECKS); the sanitizer CI job enforces this";
  }
  std::vector<std::string> inputs = {"geometry"};
  for (const std::string& name : clado::models::model_names()) inputs.push_back(name);
  for (const std::string& name : inputs) {
    SCOPED_TRACE(name);
    EnginePair pair = name == "geometry" ? make_geometry_pair(/*max_batch=*/4)
                                         : make_engines(name, /*max_batch=*/4);
    Engine& engine = *pair.engine;
    const auto& s = engine.sample_shape();
    Rng rng(88);
    const Tensor batch = Tensor::randn({4, s[0], s[1], s[2]}, rng);
    float* pin = engine.batch_buffer(0);
    ASSERT_NE(pin, nullptr);
    std::memcpy(pin, batch.data(), sizeof(float) * static_cast<std::size_t>(batch.numel()));

    Tensor out;
    for (int i = 0; i < 3; ++i) engine.infer_pinned(4, out, 0);  // warmup
    const std::int64_t before = clado::tensor::alloc_count();
    for (int i = 0; i < 50; ++i) engine.infer_pinned(4, out, 0);
    EXPECT_EQ(clado::tensor::alloc_count() - before, 0)
        << "steady-state compiled inference allocated tensors";
  }
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
  expect_bit_identical(pair, 3, 700);
  expect_bit_identical(pair, 1, 701);
}

/// A module type the plan compiler has no step for.
class Doubler : public clado::nn::Module {
 public:
  Tensor forward(const Tensor& input) override { return input * 2.0F; }
  Tensor backward(const Tensor& grad_output) override { return grad_output * 2.0F; }
  std::string type_name() const override { return "Doubler"; }
  std::unique_ptr<Module> clone() const override { return std::make_unique<Doubler>(*this); }
};

void transform_weight(clado::nn::QuantizableLayer& layer) {
  layer.set_weight_transform([](const Tensor& w) { return w * 0.5F; });
}

TEST(CompiledPlan, UncompilableModulesAreRefusedAtCompile) {
  using namespace clado::nn;
  using clado::quant::ActFakeQuant;
  struct Case {
    std::string type;  ///< the module type the error message must name
    std::function<void(Sequential&, Rng&)> build;  ///< appends after a 3->8 conv stem
  };
  const std::vector<Case> cases = {
      {"BatchNorm2d",
       [](Sequential& net, Rng&) { net.emplace<BatchNorm2d>(8)->set_training(true); }},
      {"ActFakeQuant",
       [](Sequential& net, Rng&) {
         net.emplace<ActFakeQuant>(8)->set_mode(clado::quant::ActQuantMode::kObserve);
       }},
      {"Conv2d",
       [](Sequential& net, Rng& rng) {
         auto* conv = net.emplace<Conv2d>(8, 8, 3, 1, 1);
         conv->init(rng);
         transform_weight(*conv);
       }},
      {"Linear",
       [](Sequential& net, Rng& rng) {
         net.emplace<GlobalAvgPool>();
         auto* fc = net.emplace<Linear>(8, 4);
         fc->init(rng);
         transform_weight(*fc);
       }},
      {"SEBlock",
       [](Sequential& net, Rng& rng) {
         auto* se = net.emplace<SEBlock>(8, 4);
         se->init(rng);
         std::vector<QuantLayerRef> layers;
         se->collect_quant_layers("", layers);
         transform_weight(*layers.front().layer);
       }},
      {"TakeToken",
       [](Sequential& net, Rng& rng) {
         // [8, 8, 8] patchified by 4 -> 4 patch tokens + the class token.
         net.emplace<PatchEmbed>(8, 8, 8, 4)->init(rng);
         net.emplace<TakeToken>(5);
       }},
      {"Doubler", [](Sequential& net, Rng&) { net.emplace<Doubler>(); }},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.type);
    Rng rng(171);
    Sequential net;
    net.emplace_named<Conv2d>("stem", 3, 8, 3, 1, 1)->init(rng);
    c.build(net, rng);
    try {
      clado::serve::CompiledPlan plan(net, {3, 8, 8}, /*max_batch=*/2);
      ADD_FAILURE() << "compiled:\n" << plan.dump();
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(c.type), std::string::npos) << e.what();
    }
  }
  // The Engine compiles at construction, so it refuses the same way.
  Rng rng(173);
  Model model = make_geometry_model(rng);
  model.net->emplace<Doubler>();
  EXPECT_THROW(Engine(std::move(model), EngineSpec{}), std::invalid_argument);
}

TEST(CompiledPlan, EvalBatchNormCompilesAndMatchesEager) {
  using namespace clado::nn;
  Rng rng(175);
  Sequential net;
  net.emplace_named<Conv2d>("stem", 3, 8, 3, 1, 1, 1, /*bias=*/false)->init(rng);
  auto* bn = net.emplace_named<BatchNorm2d>("bn", 8);
  net.emplace_named<Activation>("act", Act::kHardSwish);
  net.emplace_named<GlobalAvgPool>("gap");
  net.emplace_named<Linear>("fc", 8, 4)->init(rng);
  // Off-identity statistics and affine, as after training.
  std::vector<ParamRef> params;
  bn->collect_params("bn", params);
  for (const ParamRef& p : params) {
    for (auto& v : p.param->value.flat()) v = static_cast<float>(rng.normal());
  }
  for (auto& v : params.back().param->value.flat()) v = std::abs(v) + 0.1F;  // running_var
  net.set_training(false);

  CompiledPlan plan(net, {3, 8, 8}, /*max_batch=*/3);
  std::size_t bn_steps = 0;
  for (const auto& step : plan.steps()) {
    EXPECT_NE(step.kind, StepKind::kAct) << "the activation fuses onto the batchnorm step";
    bn_steps += step.kind == StepKind::kBatchNorm && step.has_act ? 1 : 0;
  }
  EXPECT_EQ(bn_steps, 1u) << plan.dump();
  const Tensor x = Tensor::randn({3, 3, 8, 8}, rng);
  std::memcpy(plan.input(), x.data(), sizeof(float) * static_cast<std::size_t>(x.numel()));
  Tensor out;
  plan.run(3, out);
  expect_same_bits(out, net.forward(x));
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
  EXPECT_THROW(clado::serve::CompiledPlan(net, {3, 8, 8}, 1), std::invalid_argument);
}

TEST(CompiledPlan, OversizedBatchChunksThroughThePlan) {
  // 5 samples over a capacity of 2 run as chunks {2, 2, 1}, the last one
  // partial; every row must still match the eager reference.
  EnginePair pair = make_geometry_pair(/*max_batch=*/2);
  expect_bit_identical(pair, 5, 141);
}

}  // namespace
