// Bit-identicality of the parallel sensitivity sweep, Model::clone deep
// copies, and exception safety of the weight-mutation sites.
#include "clado/core/sensitivity.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "clado/fault/fault.h"
#include "clado/models/builders.h"
#include "clado/nn/blocks.h"
#include "clado/nn/layers.h"
#include "clado/obs/obs.h"
#include "clado/serve/plan.h"

namespace clado::core {
namespace {

using clado::models::Model;
using clado::nn::Act;
using clado::nn::Activation;
using clado::nn::Conv2d;
using clado::nn::GlobalAvgPool;
using clado::nn::Linear;
using clado::nn::ResidualBlock;
using clado::nn::Sequential;
using clado::tensor::Rng;
using clado::tensor::Tensor;

/// Same 4-quant-layer model as sensitivity_test.cpp.
Model make_tiny_model(Rng& rng) {
  Model m;
  m.name = "tiny";
  m.net = std::make_unique<Sequential>();
  m.candidate_bits = {2, 8};
  m.scheme = clado::quant::WeightScheme::kPerTensorSymmetric;
  m.num_classes = 5;
  m.image_size = 8;

  {
    auto stem = std::make_unique<Sequential>();
    stem->emplace_named<Conv2d>("conv1", 3, 4, 3, 1, 1)->init(rng);
    stem->emplace_named<Activation>("act", Act::kRelu);
    m.net->push_back(std::move(stem), "stem");
  }
  {
    auto main = std::make_unique<Sequential>();
    main->emplace_named<Conv2d>("conv1", 4, 4, 3, 1, 1)->init(rng);
    main->emplace_named<Activation>("act", Act::kRelu);
    main->emplace_named<Conv2d>("conv2", 4, 4, 3, 1, 1)->init(rng);
    m.net->push_back(std::make_unique<ResidualBlock>(std::move(main), nullptr, true), "block");
  }
  m.net->emplace_named<GlobalAvgPool>("pool");
  m.net->emplace_named<Linear>("fc", 4, 5)->init(rng);
  m.finalize();
  return m;
}

clado::data::Batch make_batch(Rng& rng, std::int64_t n = 16) {
  clado::data::Batch batch;
  batch.images = Tensor::randn({n, 3, 8, 8}, rng);
  for (std::int64_t i = 0; i < n; ++i) batch.labels.push_back(i % 5);
  return batch;
}

std::vector<Tensor> weight_snapshot(const Model& m) {
  std::vector<Tensor> out;
  for (const auto& l : m.quant_layers) out.push_back(l.layer->weight_param().value);
  return out;
}

void expect_weights_equal(const Model& m, const std::vector<Tensor>& snapshot) {
  ASSERT_EQ(m.quant_layers.size(), snapshot.size());
  for (std::size_t i = 0; i < snapshot.size(); ++i) {
    const auto& now = m.quant_layers[i].layer->weight_param().value;
    ASSERT_EQ(now.numel(), snapshot[i].numel());
    for (std::int64_t k = 0; k < now.numel(); ++k) {
      ASSERT_EQ(now[k], snapshot[i][k]) << "layer " << i << " element " << k;
    }
  }
}

TEST(ParallelSweep, BitIdenticalToSerialAtAnyThreadCount) {
  Rng rng(21);
  Model m = make_tiny_model(rng);
  SensitivityEngine engine(m, make_batch(rng));
  const Tensor g1 = engine.full_matrix({}, 1);
  for (int threads : {2, 4, 7}) {
    const Tensor gN = engine.full_matrix({}, threads);
    ASSERT_EQ(gN.numel(), g1.numel());
    for (std::int64_t i = 0; i < g1.numel(); ++i) {
      ASSERT_EQ(gN[i], g1[i]) << threads << " threads, element " << i;
    }
  }
}

TEST(ParallelSweep, StatsMatchSerialExactly) {
  // Each worker's clean pass refills its own cache without being counted,
  // so the parallel sweep performs the exact same set of measurements —
  // the integer counters must agree, not just the matrix.
  Rng rng_a(22);
  Model ma = make_tiny_model(rng_a);
  Rng rng_b(22);
  Model mb = make_tiny_model(rng_b);
  Rng batch_a(23);
  Rng batch_b(23);
  SensitivityEngine serial(ma, make_batch(batch_a));
  SensitivityEngine parallel(mb, make_batch(batch_b));
  const Tensor gs = serial.full_matrix({}, 1);
  const Tensor gp = parallel.full_matrix({}, 4);
  for (std::int64_t i = 0; i < gs.numel(); ++i) ASSERT_EQ(gp[i], gs[i]);
  EXPECT_EQ(parallel.stats().forward_measurements, serial.stats().forward_measurements);
  EXPECT_EQ(parallel.stats().stage_executions, serial.stats().stage_executions);
  EXPECT_EQ(parallel.stats().stage_executions_naive, serial.stats().stage_executions_naive);
}

TEST(ParallelSweep, CatchUpStepsStayOutOfTheStats) {
  // Units are claimed in ascending layer order and each one's first run
  // re-executes the steps its worker's previous unit left perturbed. On one
  // worker that catch-up telescopes to first_step(I−1) − first_step(0) per
  // phase; it is cache upkeep, so the stats still match four workers'.
  Rng rng(30);
  Model m = make_tiny_model(rng);
  const auto batch = make_batch(rng);
  m.net->set_training(false);
  const clado::serve::CompiledPlan plan(*m.net, {3, 8, 8}, batch.images.size(0));
  const auto first_step = [&](std::size_t i) {
    return static_cast<std::int64_t>(plan.first_step(*m.quant_layers[i].layer));
  };
  const std::int64_t per_phase = first_step(m.quant_layers.size() - 1) - first_step(0);
  ASSERT_GT(per_phase, 0);

  const clado::obs::Counter& catchup = clado::obs::counter("sensitivity.catchup_steps");
  SensitivityEngine serial(m, batch, 1);
  const std::int64_t before = catchup.value();
  serial.single_losses();
  EXPECT_EQ(catchup.value() - before, per_phase) << "singles";
  const Tensor gs = serial.full_matrix({}, 1);
  EXPECT_EQ(catchup.value() - before, 2 * per_phase) << "singles + sweep";

  SensitivityEngine parallel(m, batch, 4);
  const Tensor gp = parallel.full_matrix({}, 4);
  for (std::int64_t i = 0; i < gs.numel(); ++i) ASSERT_EQ(gp[i], gs[i]);
  EXPECT_EQ(parallel.stats().forward_measurements, serial.stats().forward_measurements);
  EXPECT_EQ(parallel.stats().stage_executions, serial.stats().stage_executions);
  EXPECT_EQ(parallel.stats().stage_executions_naive, serial.stats().stage_executions_naive);
}

TEST(ParallelSweep, MoreThreadsThanRowsStillCorrect) {
  Rng rng(24);
  Model m = make_tiny_model(rng);
  SensitivityEngine engine(m, make_batch(rng));
  const Tensor g1 = engine.full_matrix({}, 1);
  const Tensor g16 = engine.full_matrix({}, 16);  // > 4 layers
  for (std::int64_t i = 0; i < g1.numel(); ++i) ASSERT_EQ(g16[i], g1[i]);
}

TEST(ParallelSweep, WeightsRestoredAndProgressReported) {
  Rng rng(25);
  Model m = make_tiny_model(rng);
  const auto before = weight_snapshot(m);
  SensitivityEngine engine(m, make_batch(rng));
  std::int64_t last_done = 0;
  std::int64_t last_total = 0;
  engine.full_matrix(
      [&](std::int64_t done, std::int64_t total) {
        last_done = done;
        last_total = total;
      },
      4);
  // 4 layers x 2 bits: 4*3/2 * 4 = 24 pair measurements.
  EXPECT_EQ(last_total, 24);
  EXPECT_EQ(last_done, 24);  // completion is always reported
  expect_weights_equal(m, before);
}

TEST(ParallelSweep, ThrowingProgressLeavesWeightsIntact) {
  for (int threads : {1, 4}) {
    Rng rng(26);
    Model m = make_tiny_model(rng);
    const auto before = weight_snapshot(m);
    SensitivityEngine engine(m, make_batch(rng));
    const auto poison = [](std::int64_t, std::int64_t) {
      throw std::runtime_error("abort sweep");
    };
    EXPECT_THROW(engine.full_matrix(poison, threads), std::runtime_error) << threads;
    // The guards unwind every in-flight perturbation; the primary model
    // must be byte-identical to its pre-sweep state.
    expect_weights_equal(m, before);
    // The engine stays usable: a clean retry matches a fresh engine.
    const Tensor g = engine.full_matrix({}, threads);
    EXPECT_GT(g.numel(), 0);
    expect_weights_equal(m, before);
  }
}

// single_losses() on N worker replicas measures the serial losses bit for
// bit, with the serial measurement counts.
TEST(ParallelSingles, BitIdenticalToSerialAtAnyThreadCount) {
  Rng rng(41);
  Model model = make_tiny_model(rng);
  const auto batch = make_batch(rng);
  SensitivityEngine serial(model, batch, 1);
  const auto want = serial.single_losses();
  for (const int threads : {2, 3, 8}) {
    SensitivityEngine engine(model, batch, threads);
    EXPECT_EQ(engine.single_losses(), want) << threads << " threads";
    EXPECT_EQ(engine.stats().forward_measurements, serial.stats().forward_measurements);
    EXPECT_EQ(engine.stats().stage_executions, serial.stats().stage_executions);
    EXPECT_EQ(engine.stats().stage_executions_naive, serial.stats().stage_executions_naive);
  }
}

// A one-shot NaN is re-measured by the worker that saw it; the result
// still matches the serial singles.
TEST(ParallelSingles, TransientNanIsRemeasured) {
  Rng rng(42);
  Model model = make_tiny_model(rng);
  const auto batch = make_batch(rng);
  const auto want = SensitivityEngine(model, batch, 1).single_losses();
  SensitivityEngine engine(model, batch, 4);
  clado::fault::arm_one_shot(clado::fault::Site::kNanLoss, 3);
  const auto got = engine.single_losses();
  EXPECT_EQ(clado::fault::injected_count(clado::fault::Site::kNanLoss), 1U);
  clado::fault::disarm_all();
  EXPECT_EQ(got, want);
}

// A NaN that survives re-measurement throws out of single_losses(), leaves
// every weight as it was and the singles unmeasured: the next call measures
// them in full.
TEST(ParallelSingles, PersistentNanThrowsRestoresWeightsAndStaysUnmeasured) {
  Rng rng(43);
  Model model = make_tiny_model(rng);
  const auto batch = make_batch(rng);
  const auto snapshot = weight_snapshot(model);
  const auto want = SensitivityEngine(model, batch, 1).single_losses();
  for (const int threads : {1, 4}) {
    SensitivityEngine engine(model, batch, threads);
    clado::fault::arm_from(clado::fault::Site::kNanLoss, 1);
    EXPECT_THROW(engine.single_losses(), std::runtime_error) << threads << " threads";
    clado::fault::disarm_all();
    expect_weights_equal(model, snapshot);
    EXPECT_EQ(engine.single_losses(), want) << threads << " threads";
  }
}

TEST(ModelClone, ForwardBitIdenticalAcrossZoo) {
  for (const auto& name : clado::models::model_names()) {
    Rng rng(27);
    Model m = clado::models::build_by_name(name, rng);
    Model copy = m.clone();
    EXPECT_EQ(copy.act_quants.size(), m.act_quants.size()) << name;
    ASSERT_EQ(copy.num_quant_layers(), m.num_quant_layers()) << name;

    Rng batch_rng(28);
    const Tensor x = Tensor::randn({2, m.channels, m.image_size, m.image_size}, batch_rng);
    m.net->set_training(false);
    copy.net->set_training(false);
    const Tensor y1 = m.net->forward(x);
    const Tensor y2 = copy.net->forward(x);
    ASSERT_EQ(y1.numel(), y2.numel()) << name;
    for (std::int64_t i = 0; i < y1.numel(); ++i) {
      ASSERT_EQ(y1[i], y2[i]) << name << " output " << i;
    }
  }
}

TEST(ModelClone, CloneIsIndependentOfOriginal) {
  Rng rng(29);
  Model m = make_tiny_model(rng);
  Model copy = m.clone();
  // Mutating the copy's weights must not touch the original.
  const Tensor original = m.quant_layers[0].layer->weight_param().value;
  copy.quant_layers[0].layer->weight_param().value.fill(123.0F);
  const auto& still = m.quant_layers[0].layer->weight_param().value;
  for (std::int64_t k = 0; k < still.numel(); ++k) ASSERT_EQ(still[k], original[k]);
}

}  // namespace
}  // namespace clado::core
