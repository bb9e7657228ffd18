#include "clado/core/sensitivity.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "clado/models/builders.h"
#include "clado/nn/blocks.h"
#include "clado/nn/layers.h"
#include "clado/nn/loss.h"
#include "clado/quant/qat.h"
#include "clado/quant/quantizer.h"

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

/// A 4-quant-layer model small enough for brute-force cross-checks.
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
  batch.images = clado::nn::Tensor::randn({n, 3, 8, 8}, rng);
  for (std::int64_t i = 0; i < n; ++i) batch.labels.push_back(i % 5);
  return batch;
}

double full_loss(Model& m, const clado::data::Batch& batch) {
  clado::nn::CrossEntropyLoss criterion;
  m.net->set_training(false);
  return criterion.forward(m.net->forward(batch.images), batch.labels);
}

TEST(SensitivityEngine, LayerAndStageDiscovery) {
  Rng rng(1);
  Model m = make_tiny_model(rng);
  ASSERT_EQ(m.num_quant_layers(), 4);
  EXPECT_EQ(m.quant_layers[0].name, "stem.conv1");
  EXPECT_EQ(m.quant_layers[1].name, "block.conv1");
  EXPECT_EQ(m.quant_layers[2].name, "block.conv2");
  EXPECT_EQ(m.quant_layers[3].name, "fc");
  EXPECT_EQ(m.quant_layers[0].stage, 0);
  EXPECT_EQ(m.quant_layers[1].stage, 1);
  EXPECT_EQ(m.quant_layers[2].stage, 1);
  EXPECT_EQ(m.quant_layers[3].stage, 3);
}

TEST(SensitivityEngine, BaseLossMatchesDirectEvaluation) {
  Rng rng(2);
  Model m = make_tiny_model(rng);
  const auto batch = make_batch(rng);
  const double direct = full_loss(m, batch);
  SensitivityEngine engine(m, batch);
  EXPECT_NEAR(engine.base_loss(), direct, 1e-6);
}

TEST(SensitivityEngine, DiagonalMatchesDefinition) {
  Rng rng(3);
  Model m = make_tiny_model(rng);
  const auto batch = make_batch(rng);
  SensitivityEngine engine(m, batch);
  const auto diag = engine.diagonal_sensitivities();

  for (std::int64_t i = 0; i < m.num_quant_layers(); ++i) {
    auto& w = m.quant_layers[static_cast<std::size_t>(i)].layer->weight_param().value;
    const clado::nn::Tensor saved = w;
    for (std::int64_t b = 0; b < 2; ++b) {
      clado::nn::Tensor perturbed = saved;
      perturbed += engine.delta(i, b);
      w = perturbed;
      const double loss = full_loss(m, batch);
      w = saved;
      const double expected = 2.0 * (loss - engine.base_loss());
      EXPECT_NEAR(diag[static_cast<std::size_t>(i)][static_cast<std::size_t>(b)], expected,
                  1e-5 + 1e-4 * std::abs(expected))
          << "layer " << i << " bits index " << b;
    }
  }
}

TEST(SensitivityEngine, FullMatrixMatchesUncachedReference) {
  // The central caching-correctness test: every Ĝ entry must equal the
  // four-point rule evaluated with plain full forward passes.
  Rng rng(4);
  Model m = make_tiny_model(rng);
  const auto batch = make_batch(rng);
  SensitivityEngine engine(m, batch);
  const auto g = engine.full_matrix();
  const auto& singles = engine.single_losses();
  const std::int64_t bits = 2;
  const std::int64_t n = m.num_quant_layers() * bits;

  for (std::int64_t i = 0; i < m.num_quant_layers(); ++i) {
    for (std::int64_t j = i + 1; j < m.num_quant_layers(); ++j) {
      auto& wi = m.quant_layers[static_cast<std::size_t>(i)].layer->weight_param().value;
      auto& wj = m.quant_layers[static_cast<std::size_t>(j)].layer->weight_param().value;
      const clado::nn::Tensor si = wi;
      const clado::nn::Tensor sj = wj;
      for (std::int64_t a = 0; a < bits; ++a) {
        for (std::int64_t b = 0; b < bits; ++b) {
          clado::nn::Tensor pi = si;
          pi += engine.delta(i, a);
          clado::nn::Tensor pj = sj;
          pj += engine.delta(j, b);
          wi = pi;
          wj = pj;
          const double pair_loss = full_loss(m, batch);
          wi = si;
          wj = sj;
          const double expected =
              pair_loss + engine.base_loss() -
              singles[static_cast<std::size_t>(i)][static_cast<std::size_t>(a)] -
              singles[static_cast<std::size_t>(j)][static_cast<std::size_t>(b)];
          const float got = g.data()[flat_index(i, a, bits) * n + flat_index(j, b, bits)];
          EXPECT_NEAR(got, expected, 1e-5 + 1e-3 * std::abs(expected))
              << "pair (" << i << "," << j << ") bits (" << a << "," << b << ")";
        }
      }
    }
  }
}

/// The uncached eager reference of full_matrix: Q(w, b) swapped in
/// directly and one full Sequential::forward per measurement, with the
/// engine's Eq. (12)/(13) arithmetic.
clado::nn::Tensor eager_reference_matrix(Model& m, const clado::data::Batch& batch) {
  const auto layers = static_cast<std::size_t>(m.num_quant_layers());
  const std::size_t bits = m.candidate_bits.size();
  const auto n = static_cast<std::int64_t>(layers * bits);
  std::vector<std::vector<clado::nn::Tensor>> q(layers);
  for (std::size_t i = 0; i < layers; ++i) {
    for (const int b : m.candidate_bits) {
      q[i].push_back(clado::quant::quantize_weight(m.quant_layers[i].layer->weight_param().value,
                                                   b, m.scheme));
    }
  }
  const auto weight = [&](std::size_t i) -> clado::nn::Tensor& {
    return m.quant_layers[i].layer->weight_param().value;
  };
  const double base = full_loss(m, batch);
  std::vector<std::vector<double>> singles(layers, std::vector<double>(bits));
  for (std::size_t i = 0; i < layers; ++i) {
    const clado::nn::Tensor saved = weight(i);
    for (std::size_t a = 0; a < bits; ++a) {
      weight(i) = q[i][a];
      singles[i][a] = full_loss(m, batch);
    }
    weight(i) = saved;
  }
  clado::nn::Tensor g({n, n});
  const auto at = [&](std::size_t i, std::size_t a) {
    return flat_index(static_cast<std::int64_t>(i), static_cast<std::int64_t>(a),
                      static_cast<std::int64_t>(bits));
  };
  for (std::size_t i = 0; i < layers; ++i) {
    for (std::size_t a = 0; a < bits; ++a) {
      g.data()[at(i, a) * n + at(i, a)] = static_cast<float>(2.0 * (singles[i][a] - base));
    }
    for (std::size_t j = i + 1; j < layers; ++j) {
      const clado::nn::Tensor si = weight(i);
      const clado::nn::Tensor sj = weight(j);
      for (std::size_t a = 0; a < bits; ++a) {
        for (std::size_t b = 0; b < bits; ++b) {
          weight(i) = q[i][a];
          weight(j) = q[j][b];
          const double pair = full_loss(m, batch);
          const auto omega = static_cast<float>(pair + base - singles[i][a] - singles[j][b]);
          g.data()[at(i, a) * n + at(j, b)] = omega;
          g.data()[at(j, b) * n + at(i, a)] = omega;
        }
      }
      weight(i) = si;
      weight(j) = sj;
    }
  }
  return g;
}

// The zoo-wide oracle of the prefix-cached, multi-worker sweep: every Ĝ
// entry of every zoo model, swept unfolded and calibrated at 1 and 3
// workers, equals the uncached eager reference bit for bit.
TEST(SensitivityEngine, ZooFullMatrixMatchesUncachedEagerReference) {
  for (const std::string& name : clado::models::model_names()) {
    SCOPED_TRACE(name);
    Rng rng(212);
    Model m = clado::models::build_by_name(name, rng, /*num_classes=*/10);
    clado::data::Batch batch;
    batch.images = clado::nn::Tensor::randn({2, m.channels, m.image_size, m.image_size}, rng);
    batch.labels = {3, 7};
    // Move BatchNorm statistics off their init values, then calibrate.
    m.net->set_training(true);
    m.net->forward(batch.images);
    m.calibrate_activations(batch);
    const clado::nn::Tensor want = eager_reference_matrix(m, batch);
    for (const int threads : {1, 3, 4}) {
      SensitivityEngine engine(m, batch, threads);
      const clado::nn::Tensor got = engine.full_matrix({}, threads);
      ASSERT_EQ(got.shape(), want.shape());
      for (std::int64_t k = 0; k < got.numel(); ++k) {
        ASSERT_EQ(got[k], want[k]) << threads << " threads, entry " << k;
      }
    }
  }
}

/// A module type the sweep's plan has no step for.
class Doubler : public clado::nn::Module {
 public:
  clado::nn::Tensor forward(const clado::nn::Tensor& x) override { return x * 2.0F; }
  clado::nn::Tensor backward(const clado::nn::Tensor& g) override { return g * 2.0F; }
  std::string type_name() const override { return "Doubler"; }
  std::unique_ptr<Module> clone() const override { return std::make_unique<Doubler>(*this); }
};

TEST(SensitivityEngine, UncompilableModelIsRefusedAtConstruction) {
  Rng rng(12);
  Model m = make_tiny_model(rng);
  m.net->emplace<Doubler>();
  try {
    SensitivityEngine engine(m, make_batch(rng));
    ADD_FAILURE() << "a model holding a Doubler was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("Doubler"), std::string::npos) << e.what();
  }
}

TEST(SensitivityEngine, LayersOutOfExecutionOrderAreRefused) {
  // A sweep row runs its pairs last-first over the prefix cache, which is
  // sound only when no layer is first read before the one preceding it.
  Rng rng(13);
  Model m = make_tiny_model(rng);
  std::swap(m.quant_layers[0], m.quant_layers[3]);
  EXPECT_THROW(SensitivityEngine(m, make_batch(rng)), std::invalid_argument);
}

TEST(SensitivityEngine, MatrixIsSymmetricWithZeroSameLayerBlocks) {
  Rng rng(5);
  Model m = make_tiny_model(rng);
  SensitivityEngine engine(m, make_batch(rng));
  const auto g = engine.full_matrix();
  const std::int64_t n = g.size(0);
  for (std::int64_t a = 0; a < n; ++a) {
    for (std::int64_t b = 0; b < n; ++b) {
      EXPECT_EQ(g.data()[a * n + b], g.data()[b * n + a]);
    }
  }
  // Same-layer different-bit entries are structurally zero (mutually
  // exclusive one-hot choices).
  for (std::int64_t i = 0; i < m.num_quant_layers(); ++i) {
    EXPECT_EQ(g.data()[flat_index(i, 0, 2) * n + flat_index(i, 1, 2)], 0.0F);
  }
}

TEST(SensitivityEngine, MeasurementCountMatchesFormula) {
  Rng rng(6);
  Model m = make_tiny_model(rng);
  SensitivityEngine engine(m, make_batch(rng));
  engine.full_matrix();
  const std::int64_t I = m.num_quant_layers();
  const std::int64_t B = 2;
  // 1 clean + B·I singles + B·I tail rebuilds + B²·I(I−1)/2 pairs.
  const std::int64_t expected = 1 + B * I + B * I + B * B * I * (I - 1) / 2;
  EXPECT_EQ(engine.stats().forward_measurements, expected);
}

TEST(SensitivityEngine, PrefixCachingSavesStageExecutions) {
  Rng rng(7);
  Model m = make_tiny_model(rng);
  SensitivityEngine engine(m, make_batch(rng));
  engine.full_matrix();
  EXPECT_LT(engine.stats().stage_executions, engine.stats().stage_executions_naive);
}

TEST(SensitivityEngine, WeightsRestoredAfterSweep) {
  Rng rng(8);
  Model m = make_tiny_model(rng);
  std::vector<clado::nn::Tensor> before;
  for (auto& l : m.quant_layers) before.push_back(l.layer->weight_param().value);
  SensitivityEngine engine(m, make_batch(rng));
  engine.full_matrix();
  for (std::size_t i = 0; i < before.size(); ++i) {
    const auto& now = m.quant_layers[i].layer->weight_param().value;
    for (std::int64_t k = 0; k < before[i].numel(); ++k) {
      ASSERT_EQ(now[k], before[i][k]) << "layer " << i;
    }
  }
}

TEST(SensitivityEngine, DeterministicAcrossInstances) {
  Rng rng_a(9);
  Model ma = make_tiny_model(rng_a);
  Rng rng_b(9);
  Model mb = make_tiny_model(rng_b);
  Rng batch_rng_a(10);
  Rng batch_rng_b(10);
  SensitivityEngine ea(ma, make_batch(batch_rng_a));
  SensitivityEngine eb(mb, make_batch(batch_rng_b));
  const auto ga = ea.full_matrix();
  const auto gb = eb.full_matrix();
  for (std::int64_t i = 0; i < ga.numel(); ++i) EXPECT_EQ(ga[i], gb[i]);
}

TEST(SensitivityEngine, MpqcoProxyMatchesDirectOutputPerturbation) {
  Rng rng(11);
  Model m = make_tiny_model(rng);
  const auto batch = make_batch(rng);
  SensitivityEngine engine(m, batch);
  const auto proxy = engine.mpqco_proxy();

  // Reference for the first layer (its input is the raw image batch):
  // ‖conv(x, w+Δ) − conv(x, w)‖² / N.
  auto* conv = m.quant_layers[0].layer;
  const clado::nn::Tensor& w = conv->weight_param().value;
  for (std::int64_t b = 0; b < 2; ++b) {
    clado::nn::Tensor wq = w;
    wq += engine.delta(0, b);
    // Bias cancels in the difference, so linear_map on the delta is exact.
    m.net->forward(batch.images);  // refresh stashed inputs
    const clado::nn::Tensor diff = conv->linear_map_on_last_input(engine.delta(0, b));
    const double expected =
        static_cast<double>(diff.sq_norm()) / static_cast<double>(batch.images.size(0));
    EXPECT_NEAR(proxy[0][static_cast<std::size_t>(b)], expected,
                1e-6 + 1e-4 * std::abs(expected));
    // And the linear map itself matches forwarding the perturbed weights.
    const clado::nn::Tensor y1 = conv->linear_map_on_last_input(w);
    const clado::nn::Tensor y2 = conv->linear_map_on_last_input(wq);
    double direct = 0.0;
    for (std::int64_t k = 0; k < y1.numel(); ++k) {
      direct += std::pow(static_cast<double>(y2[k]) - y1[k], 2);
    }
    EXPECT_NEAR(direct / static_cast<double>(batch.images.size(0)), expected,
                1e-5 + 1e-3 * expected);
  }
}

TEST(MatrixMasks, KeepDiagonal) {
  clado::nn::Tensor g({4, 4}, std::vector<float>{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16});
  const auto d = keep_diagonal(g);
  for (std::int64_t i = 0; i < 4; ++i) {
    for (std::int64_t j = 0; j < 4; ++j) {
      EXPECT_EQ(d.at({i, j}), i == j ? g.at({i, j}) : 0.0F);
    }
  }
}

TEST(MatrixMasks, MaskInterBlockZeroesOnlyCrossBlockEntries) {
  // 3 layers x 2 bits; layers 0,1 share a block, layer 2 is separate.
  clado::nn::Tensor g({6, 6}, 1.0F);
  const auto masked = mask_inter_block(g, {0, 0, 1}, 2);
  // Intra-block (layers 0-1) survives.
  EXPECT_EQ(masked.at({0, 2}), 1.0F);
  EXPECT_EQ(masked.at({3, 1}), 1.0F);
  // Cross-block (layer 0 vs 2) is zeroed.
  EXPECT_EQ(masked.at({0, 4}), 0.0F);
  EXPECT_EQ(masked.at({5, 2}), 0.0F);
  // Diagonal blocks survive.
  EXPECT_EQ(masked.at({4, 5}), 1.0F);
  EXPECT_EQ(masked.at({4, 4}), 1.0F);
}

TEST(MatrixMasks, MaskRejectsSizeMismatch) {
  clado::nn::Tensor g({6, 6});
  EXPECT_THROW(mask_inter_block(g, {0, 1}, 2), std::invalid_argument);
}

}  // namespace
}  // namespace clado::core
