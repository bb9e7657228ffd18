// clado::backend coverage: precision selection and layer preparation, and —
// the acceptance bar for the subsystem — serve::Engine executing a
// mixed 4/8-bit assignment through real integer kernels: per-layer backend
// tags in the plan dump, bit-identity with the reference integer path
// (qlinear / qconv2d) on statically quantized inputs, and logits parity
// with the fake-quant simulation within a documented tolerance.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "clado/backend/backend.h"
#include "clado/data/synthcv.h"
#include "clado/models/builders.h"
#include "clado/models/model.h"
#include "clado/nn/layers.h"
#include "clado/quant/act_quant.h"
#include "clado/quant/freeze.h"
#include "clado/quant/int8.h"
#include "clado/quant/qat.h"
#include "clado/serve/engine.h"
#include "clado/serve/plan.h"
#include "clado/tensor/kernels.h"
#include "clado/tensor/rng.h"
#include "clado/tensor/tensor.h"
#include "int8_oracle.h"
#include "test_models_util.h"

namespace {

namespace backend = clado::backend;
using backend::Precision;
using clado::models::Model;
using clado::serve::BackendMode;
using clado::serve::Engine;
using clado::serve::EngineSpec;
using clado::tensor::Rng;
using clado::tensor::Tensor;

// ---- precision selection ----------------------------------------------------

TEST(Precision, BitsMapOntoBackends) {
  EXPECT_EQ(backend::precision_for_bits(0), Precision::kFp32);
  EXPECT_EQ(backend::precision_for_bits(-1), Precision::kFp32);
  EXPECT_EQ(backend::precision_for_bits(9), Precision::kFp32);
  EXPECT_EQ(backend::precision_for_bits(32), Precision::kFp32);
  for (int b = 1; b <= 4; ++b) EXPECT_EQ(backend::precision_for_bits(b), Precision::kInt4) << b;
  for (int b = 5; b <= 8; ++b) EXPECT_EQ(backend::precision_for_bits(b), Precision::kInt8) << b;
}

TEST(Precision, NamesAreStable) {
  EXPECT_STREQ(backend::precision_name(Precision::kFp32), "fp32");
  EXPECT_STREQ(backend::precision_name(Precision::kInt8), "int8");
  EXPECT_STREQ(backend::precision_name(Precision::kInt4), "int4");
}

// ---- prepare_layer ----------------------------------------------------------

clado::quant::WeightCodes make_codes(int bits, float scale, std::vector<std::int8_t> codes) {
  clado::quant::WeightCodes wc;
  wc.bits = bits;
  wc.scale = scale;
  wc.codes = std::move(codes);
  return wc;
}

/// Reads every code of a prepared layer back through the kernel that
/// consumes it: batch row p of the [k, 1, 1] linear input is the one-hot
/// vector e_p, so output [p, j] is code (j, p) times rescale 1.
std::vector<std::int8_t> codes_through_kernel(const backend::PreparedLayer& prep) {
  namespace kernels = clado::tensor::kernels;
  const kernels::Level level = kernels::active_level();
  kernels::ConvGeometry g;
  g.in_channels = prep.k;
  g.height = 1;
  g.width = 1;
  g.out_channels = prep.n;
  g.kernel = 1;
  const kernels::QConvWorkspace ws = kernels::qconv2d_s8_workspace(level, g);
  std::vector<std::int16_t> scratch(static_cast<std::size_t>(ws.codes));
  std::vector<std::int32_t> table(static_cast<std::size_t>(ws.indices));
  kernels::qconv2d_s8_table(level, g, table.data());
  std::vector<std::int8_t> one_hot(static_cast<std::size_t>(prep.k * prep.k), 0);
  for (std::int64_t p = 0; p < prep.k; ++p) one_hot[static_cast<std::size_t>(p * prep.k + p)] = 1;
  std::vector<float> out(static_cast<std::size_t>(prep.k * prep.n));
  kernels::qconv2d_s8(level, g, prep.k, one_hot.data(), 0, prep.weights(), 1.0F, nullptr,
                      table.data(), scratch.data(), out.data());
  std::vector<std::int8_t> codes(static_cast<std::size_t>(prep.n * prep.k));
  for (std::int64_t p = 0; p < prep.k; ++p) {
    for (std::int64_t j = 0; j < prep.n; ++j) {
      codes[static_cast<std::size_t>(j * prep.k + p)] =
          static_cast<std::int8_t>(out[static_cast<std::size_t>(p * prep.n + j)]);
    }
  }
  return codes;
}

TEST(PrepareLayer, Int8PacksCodesTheKernelReadsBack) {
  // n = 5 and odd k: the packed layout pads both the 4-row group and the
  // final k-pair, and the kernel must still see exactly these codes.
  Rng rng(3);
  std::vector<std::int8_t> codes(5 * 7);
  for (auto& c : codes) c = static_cast<std::int8_t>(static_cast<int>(rng.uniform_int(256)) - 128);
  codes[0] = -128;
  codes[1] = 127;
  const auto wc = make_codes(8, 0.25F, codes);
  const backend::PreparedLayer prep = backend::prepare_layer(wc, 5, 7);
  EXPECT_EQ(prep.precision, Precision::kInt8);
  EXPECT_EQ(prep.n, 5);
  EXPECT_EQ(prep.k, 7);
  EXPECT_EQ(prep.w_scale, 0.25F);
  EXPECT_EQ(static_cast<std::int64_t>(prep.w_pairs.size()),
            clado::tensor::kernels::qweights_pairs(5, 7));
  ASSERT_EQ(prep.w_sums.size(), 5u);
  for (std::size_t j = 0; j < 5; ++j) {
    std::int32_t sum = 0;
    for (std::size_t p = 0; p < 7; ++p) sum += codes[j * 7 + p];
    EXPECT_EQ(prep.w_sums[j], sum) << "row " << j;
  }
  EXPECT_EQ(codes_through_kernel(prep), codes);
}

TEST(PrepareLayer, Int4WidensIntoTheSameLayoutAndRejectsWideCodes) {
  const auto wc = make_codes(4, 0.5F, {-8, 7, 0, 3, -1, 5});
  const backend::PreparedLayer prep = backend::prepare_layer(wc, 2, 3);
  EXPECT_EQ(prep.precision, Precision::kInt4);
  EXPECT_EQ(static_cast<std::int64_t>(prep.w_pairs.size()),
            clado::tensor::kernels::qweights_pairs(2, 3));
  EXPECT_EQ(prep.w_sums, (std::vector<std::int32_t>{-1, 7}));
  EXPECT_EQ(codes_through_kernel(prep), wc.codes);

  EXPECT_THROW(backend::prepare_layer(make_codes(4, 0.5F, {-8, 8, 0, 0, 0, 0}), 2, 3),
               std::invalid_argument);
}

TEST(PrepareLayer, BitsZeroStaysFp32AndSizeMismatchThrows) {
  clado::quant::WeightCodes fp;
  fp.bits = 0;
  const backend::PreparedLayer prep = backend::prepare_layer(fp, 4, 9);
  EXPECT_EQ(prep.precision, Precision::kFp32);
  EXPECT_TRUE(prep.w_pairs.empty());
  EXPECT_TRUE(prep.w_sums.empty());

  const auto wc = make_codes(8, 1.0F, {1, 2, 3});
  EXPECT_THROW(backend::prepare_layer(wc, 2, 2), std::invalid_argument);
}

// ---- engine: mode resolution and error paths --------------------------------

Model make_calibrated_resnet_a() {
  Rng rng(202);
  Model model = clado::models::build_by_name("resnet_a", rng, /*num_classes=*/10);
  clado::data::Batch calib;
  Rng data_rng(303);
  calib.images = Tensor::randn({4, model.channels, model.image_size, model.image_size}, data_rng);
  for (std::int64_t i = 0; i < 4; ++i) calib.labels.push_back(i % model.num_classes);
  model.calibrate_activations(calib);
  return model;
}

/// Alternating 4/8-bit assignment — non-uniform, both integer backends live.
std::vector<int> mixed_bits(std::size_t layers) {
  std::vector<int> bits(layers);
  for (std::size_t i = 0; i < layers; ++i) bits[i] = (i % 2 == 0) ? 4 : 8;
  return bits;
}

EngineSpec backend_spec(std::vector<int> bits, std::int64_t max_batch) {
  EngineSpec spec;
  spec.bits = std::move(bits);
  spec.label = "backend";
  spec.max_batch = max_batch;
  spec.backend = BackendMode::kOn;
  return spec;
}

TEST(BackendEngine, EnvVarParsesStrictlyAndDefaultsOff) {
  Rng rng(43);
  Model model = clado::testing::make_tiny_model(rng);
  ::unsetenv("CLADO_BACKEND");
  {
    EngineSpec spec;
    spec.bits = std::vector<int>(model.quant_layers.size(), 8);
    Engine engine(model.clone(), std::move(spec));
    EXPECT_FALSE(engine.backend_enabled());  // kAuto + unset = off
    EXPECT_TRUE(engine.prepared_layers().empty());
  }
  ::setenv("CLADO_BACKEND", "1", 1);
  {
    EngineSpec spec;
    spec.bits = std::vector<int>(model.quant_layers.size(), 8);
    Engine engine(model.clone(), std::move(spec));
    EXPECT_TRUE(engine.backend_enabled());
  }
  {
    // Explicit kOff wins over the env var.
    EngineSpec spec;
    spec.bits = std::vector<int>(model.quant_layers.size(), 8);
    spec.backend = BackendMode::kOff;
    Engine engine(model.clone(), std::move(spec));
    EXPECT_FALSE(engine.backend_enabled());
  }
  ::setenv("CLADO_BACKEND", "yes", 1);
  {
    EngineSpec spec;
    spec.bits = std::vector<int>(model.quant_layers.size(), 8);
    EXPECT_THROW(Engine(model.clone(), std::move(spec)), std::invalid_argument);
  }
  ::unsetenv("CLADO_BACKEND");
}

// ---- engine: mixed-precision execution (the acceptance check) ---------------

TEST(BackendEngine, MixedAssignmentRunsEveryQuantLayerOnItsBackend) {
  Model model = make_calibrated_resnet_a();
  const std::size_t layers = model.quant_layers.size();
  const std::vector<int> bits = mixed_bits(layers);
  Engine engine(std::move(model), backend_spec(bits, 4));

  ASSERT_TRUE(engine.backend_enabled());
  const auto& prepared = engine.prepared_layers();
  ASSERT_EQ(prepared.size(), layers);
  for (std::size_t i = 0; i < layers; ++i) {
    EXPECT_EQ(prepared[i].precision, backend::precision_for_bits(bits[i])) << "layer " << i;
    EXPECT_EQ(static_cast<std::int64_t>(prepared[i].w_pairs.size()),
              clado::tensor::kernels::qweights_pairs(prepared[i].n, prepared[i].k));
    EXPECT_EQ(static_cast<std::int64_t>(prepared[i].w_sums.size()), prepared[i].n);
  }

  // resnet_a has no grouped convs, so every quantized layer must execute
  // through its assigned-precision backend.
  const clado::serve::CompiledPlan* plan = engine.plan(0);
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->backend_steps(), layers);

  // Per-layer backend tags in the plan dump: both integer precisions are
  // live, and both static (post-fake-quant) and dynamic input
  // quantization paths appear (the stem sees the raw image).
  const std::string dump = plan->dump();
  EXPECT_NE(dump.find("backend=int4"), std::string::npos) << dump;
  EXPECT_NE(dump.find("backend=int8"), std::string::npos) << dump;
  EXPECT_NE(dump.find("in=dynamic"), std::string::npos) << dump;
  EXPECT_EQ(dump.find("backend=fp32"), std::string::npos) << dump;

  // And it actually infers.
  Rng rng(601);
  const auto& s = engine.sample_shape();
  const Tensor batch = Tensor::randn({3, s[0], s[1], s[2]}, rng);
  const Tensor logits = engine.infer(batch);
  ASSERT_EQ(logits.shape(), (clado::tensor::Shape{3, 10}));
  for (std::int64_t i = 0; i < logits.numel(); ++i) ASSERT_TRUE(std::isfinite(logits[i]));
}

TEST(BackendEngine, LogitsTrackFakeQuantSimulationWithinTolerance) {
  // The backend quantizes layer inputs to int8 (losslessly where a fake
  // quant step precedes the layer, dynamically elsewhere), so its logits
  // are the fake-quant simulation's plus bounded activation-quantization
  // noise from the non-fake-quantized seams (the raw-image stem, the relu
  // between a block's convs). Empirically the divergence on resnet_a at
  // mixed 4/8 is ~0.21 on O(1) logits; 0.35 gives slack across hosts
  // without masking real bugs (a wrong backend, scale, or zero point
  // shifts logits by whole units).
  Model model = make_calibrated_resnet_a();
  Model twin = model.clone();
  const std::vector<int> bits = mixed_bits(model.quant_layers.size());

  Engine integer(std::move(model), backend_spec(bits, 4));
  EngineSpec fake_spec;
  fake_spec.bits = bits;
  fake_spec.label = "fake-quant";
  fake_spec.max_batch = 4;
  fake_spec.backend = BackendMode::kOff;
  Engine fake(std::move(twin), std::move(fake_spec));

  Rng rng(607);
  const auto& s = integer.sample_shape();
  const Tensor batch = Tensor::randn({4, s[0], s[1], s[2]}, rng);
  const Tensor a = integer.infer(batch);
  const Tensor b = fake.infer(batch);
  ASSERT_EQ(a.shape(), b.shape());
  float max_diff = 0.0F;
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    max_diff = std::max(max_diff, std::abs(a[i] - b[i]));
  }
  EXPECT_LT(max_diff, 0.35F) << "backend vs fake-quant logit divergence";
}

class BackendEngineChunks : public ::testing::TestWithParam<BackendMode> {};

TEST_P(BackendEngineChunks, ChunksOversizedBatchesThroughThePlan) {
  // Every engine runs big batches through its plan in chunks. Chunk
  // boundaries are the only numeric seam (on integer engines, dynamic input
  // quantization is per chunk), so infer(6) must equal the concatenation
  // of infer on the same {2, 2, 2} partition.
  Model model = make_calibrated_resnet_a();
  EngineSpec spec = backend_spec(mixed_bits(model.quant_layers.size()), 2);
  spec.backend = GetParam();
  Engine engine(std::move(model), std::move(spec));
  ASSERT_EQ(engine.backend_enabled(), GetParam() == BackendMode::kOn);

  Rng rng(613);
  const auto& s = engine.sample_shape();
  const std::int64_t per = s[0] * s[1] * s[2];
  const Tensor batch = Tensor::randn({6, s[0], s[1], s[2]}, rng);
  const Tensor whole = engine.infer(batch);
  ASSERT_EQ(whole.shape(), (clado::tensor::Shape{6, 10}));

  for (std::int64_t chunk = 0; chunk < 3; ++chunk) {
    Tensor part({2, s[0], s[1], s[2]});
    std::memcpy(part.data(), batch.data() + chunk * 2 * per,
                sizeof(float) * static_cast<std::size_t>(2 * per));
    const Tensor logits = engine.infer(part);
    for (std::int64_t r = 0; r < 2; ++r) {
      for (std::int64_t c = 0; c < 10; ++c) {
        ASSERT_EQ(whole[(chunk * 2 + r) * 10 + c], logits[r * 10 + c])
            << "chunk " << chunk << " row " << r << " logit " << c;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(BackendOnAndOff, BackendEngineChunks,
                         ::testing::Values(BackendMode::kOn, BackendMode::kOff));

// ---- engine: bit-identity with the reference integer path -------------------

/// Flatten -> 8-bit fake quant -> Linear: the linear's input buffer is
/// defined by a fake-quant step, so the backend quantizes it statically and
/// the whole computation is an exact replay of quant::qlinear.
Model make_fq_linear_model(Rng& rng) {
  using namespace clado::nn;
  Model m;
  m.name = "fq_linear";
  m.net = std::make_unique<Sequential>();
  m.candidate_bits = {4, 8};
  m.scheme = clado::quant::WeightScheme::kPerTensorSymmetric;
  m.num_classes = 5;
  m.image_size = 8;
  m.net->emplace_named<Flatten>("flatten");
  auto* aq = m.net->emplace_named<clado::quant::ActFakeQuant>("aq_in", 8);
  m.act_quants.push_back(aq);
  m.net->emplace_named<Linear>("fc", 3 * 8 * 8, 5)->init(rng);
  m.finalize();
  return m;
}

void calibrate(Model& model, std::uint64_t seed, std::int64_t n = 8) {
  clado::data::Batch calib;
  Rng rng(seed);
  calib.images = Tensor::randn({n, model.channels, model.image_size, model.image_size}, rng);
  for (std::int64_t i = 0; i < n; ++i) calib.labels.push_back(i % model.num_classes);
  model.calibrate_activations(calib);
}

/// Static input-quantization parameters of a frozen 8-bit ActFakeQuant:
/// same grid shifted from u8 onto s8 (the backend's step.in_zp).
clado::quant::QParams static_qparams(const clado::quant::ActFakeQuant& aq) {
  clado::quant::QParams p;
  p.scale = aq.scale();
  p.zero_point = static_cast<std::int32_t>(std::nearbyint(aq.zero_point())) - 128;
  return p;
}

/// The codes and scale freeze_quantized snaps `model`'s single quant layer
/// to at `bits` — what the Engine's prepared layer packs, captured
/// independently of it (freezing also overwrites `model`'s weights, which
/// the oracles never read).
clado::quant::WeightCodes frozen_codes(Model& model, int bits) {
  std::vector<clado::quant::WeightCodes> codes;
  clado::quant::freeze_quantized(*model.net, model.quant_layers, {bits}, model.scheme, &codes);
  return codes.at(0);
}

TEST(BackendEngine, UniformInt8LinearIsBitIdenticalToQlinear) {
  Rng rng(71);
  Model model = make_fq_linear_model(rng);
  calibrate(model, 73);
  Model twin = model.clone();
  Engine engine(std::move(model), backend_spec({8}, 4));
  ASSERT_EQ(engine.plan(0)->backend_steps(), 1u);
  const std::string dump = engine.plan(0)->dump();
  EXPECT_NE(dump.find("backend=int8"), std::string::npos) << dump;
  EXPECT_NE(dump.find("in=static"), std::string::npos) << dump;

  Rng data_rng(79);
  const Tensor batch = Tensor::randn({3, 3, 8, 8}, data_rng);
  const Tensor got = engine.infer(batch);

  // Reference: fake-quant the flattened input, quantize it on the same
  // grid, and run the existing integer linear.
  twin.net->set_training(false);
  auto* aq = twin.act_quants.at(0);
  const Tensor flat = batch.reshape({3, 192});
  const Tensor fq_out = aq->forward(flat);
  const clado::quant::QTensor qx = clado::quant::quantize_int8(fq_out, static_qparams(*aq));

  const clado::quant::WeightCodes wc = frozen_codes(twin, 8);
  ASSERT_EQ(engine.prepared_layers().at(0).w_scale, wc.scale);
  clado::quant::QTensor qw;
  qw.shape = {5, 192};
  qw.data = wc.codes;
  qw.scale = wc.scale;
  qw.zero_point = 0;
  auto* fc = dynamic_cast<clado::nn::Linear*>(twin.quant_layers.at(0).layer);
  ASSERT_NE(fc, nullptr);
  const Tensor want = clado::quant::qlinear(qx, qw, fc->bias_data());

  ASSERT_EQ(got.shape(), want.shape());
  for (std::int64_t i = 0; i < got.numel(); ++i) {
    ASSERT_EQ(got[i], want[i]) << "logit " << i;
  }
}

/// Conv geometry of one bit-identity case. The model is [8-bit fake quant]
/// -> Conv2d -> Flatten, so engine logits are exactly the conv's integer
/// output, NCHW-flattened.
struct ConvCase {
  const char* name;
  std::int64_t in_c, image, out_c, kernel, stride, pad;
  bool fake_quant;  ///< false: the conv reads the raw image (in=dynamic)
};

std::ostream& operator<<(std::ostream& os, const ConvCase& c) { return os << c.name; }

std::int64_t conv_out(const ConvCase& c) { return (c.image + 2 * c.pad - c.kernel) / c.stride + 1; }

Model make_conv_model(const ConvCase& c, Rng& rng) {
  using namespace clado::nn;
  Model m;
  m.name = c.name;
  m.net = std::make_unique<Sequential>();
  m.candidate_bits = {4, 8};
  m.scheme = clado::quant::WeightScheme::kPerTensorSymmetric;
  m.channels = c.in_c;
  m.image_size = c.image;
  m.num_classes = c.out_c * conv_out(c) * conv_out(c);
  if (c.fake_quant) {
    m.act_quants.push_back(m.net->emplace_named<clado::quant::ActFakeQuant>("aq_in", 8));
  }
  m.net->emplace_named<Conv2d>("conv", c.in_c, c.out_c, c.kernel, c.stride, c.pad)->init(rng);
  m.net->emplace_named<Flatten>("flatten");
  m.finalize();
  return m;
}

constexpr std::int64_t kConvMaxBatch = 8;

/// Batch sizes each case runs: 1, 3, max_batch, and one that the engine
/// chunks past max_batch (8 + 3).
const std::int64_t kConvBatches[] = {1, 3, kConvMaxBatch, kConvMaxBatch + 3};

/// Integer oracle for one engine chunk: `part` quantized as the plan does
/// (on the frozen fake-quant grid, or by min/max over the chunk when the
/// conv reads the raw image), then `conv` maps the QTensor to logits.
template <typename ConvFn>
Tensor chunked_oracle(Model& twin, const ConvCase& c, const Tensor& batch, ConvFn conv) {
  twin.net->set_training(false);
  const std::int64_t n = batch.size(0);
  const std::int64_t per = c.in_c * c.image * c.image;
  const std::int64_t logits = c.out_c * conv_out(c) * conv_out(c);
  Tensor want({n, logits});
  for (std::int64_t at = 0; at < n; at += kConvMaxBatch) {
    const std::int64_t take = std::min(kConvMaxBatch, n - at);
    Tensor part({take, c.in_c, c.image, c.image});
    std::memcpy(part.data(), batch.data() + at * per,
                sizeof(float) * static_cast<std::size_t>(take * per));
    clado::quant::QTensor qx;
    if (c.fake_quant) {
      auto* aq = twin.act_quants.at(0);
      qx = clado::quant::quantize_int8(aq->forward(part), static_qparams(*aq));
    } else {
      qx = clado::quant::quantize_int8_minmax(part);
    }
    const Tensor y = conv(qx);
    std::memcpy(want.data() + at * logits, y.data(),
                sizeof(float) * static_cast<std::size_t>(take * logits));
  }
  return want;
}

class BackendConvBitIdentity : public ::testing::TestWithParam<ConvCase> {};

/// Serves `c` at uniform `bits` and holds every chunk's logits to qconv2d
/// on the same codes. int4 codes are int8 codes in [-8, 7], so one
/// reference serves both precisions.
void expect_conv_matches_qconv2d(const ConvCase& c, int bits, Precision precision,
                                 std::uint64_t model_seed, std::uint64_t calib_seed,
                                 std::uint64_t data_seed) {
  Rng rng(model_seed);
  Model model = make_conv_model(c, rng);
  calibrate(model, calib_seed);
  Model twin = model.clone();
  Engine engine(std::move(model), backend_spec({bits}, kConvMaxBatch));
  ASSERT_EQ(engine.plan(0)->backend_steps(), 1u);
  const std::string dump = engine.plan(0)->dump();
  EXPECT_NE(dump.find(std::string("backend=") + backend::precision_name(precision)),
            std::string::npos)
      << dump;
  EXPECT_NE(dump.find(c.fake_quant ? "in=static" : "in=dynamic"), std::string::npos) << dump;

  const clado::quant::WeightCodes wc = frozen_codes(twin, bits);
  ASSERT_EQ(engine.prepared_layers().at(0).precision, precision);
  ASSERT_EQ(engine.prepared_layers().at(0).w_scale, wc.scale);
  clado::quant::QTensor qw;
  qw.shape = {c.out_c, c.in_c, c.kernel, c.kernel};
  qw.data = wc.codes;
  qw.scale = wc.scale;
  qw.zero_point = 0;
  auto* conv = dynamic_cast<clado::nn::Conv2d*>(twin.quant_layers.at(0).layer);
  ASSERT_NE(conv, nullptr);

  Rng data_rng(data_seed);
  for (const std::int64_t n : kConvBatches) {
    const Tensor batch = Tensor::randn({n, c.in_c, c.image, c.image}, data_rng);
    const Tensor got = engine.infer(batch);
    const Tensor want = chunked_oracle(twin, c, batch, [&](const clado::quant::QTensor& qx) {
      return clado::quant::qconv2d(qx, qw, conv->bias_data(), c.stride, c.pad);
    });
    ASSERT_EQ(got.shape(), want.shape());
    for (std::int64_t i = 0; i < got.numel(); ++i) {
      ASSERT_EQ(got[i], want[i]) << "batch " << n << " logit " << i;
    }
  }
}

TEST_P(BackendConvBitIdentity, UniformInt8ConvIsBitIdenticalToQconv2d) {
  expect_conv_matches_qconv2d(GetParam(), 8, Precision::kInt8, 83, 89, 97);
}

TEST_P(BackendConvBitIdentity, Int4ConvIsBitIdenticalToQconv2d) {
  expect_conv_matches_qconv2d(GetParam(), 4, Precision::kInt4, 101, 103, 107);
}

// Geometry the kernel's tiles and panels can get wrong: stride 2 with pad
// 1 and k = 27 (odd: not a multiple of the k-pair or the vector width),
// out_c = 5 (not a multiple of the 4-channel tile), a 7x7 output (49
// positions, not a multiple of the 16-lane panel), the same geometry with
// no fake quant in front (in=dynamic), and the one-position pad-0 case.
INSTANTIATE_TEST_SUITE_P(
    RaggedGeometry, BackendConvBitIdentity,
    ::testing::Values(ConvCase{"s2p1_k27_oc5_7x7", 3, 13, 5, 3, 2, 1, true},
                      ConvCase{"s2p1_k27_oc5_7x7_dynamic", 3, 13, 5, 3, 2, 1, false},
                      ConvCase{"s1p1_k36_oc6_7x7", 4, 7, 6, 3, 1, 1, true},
                      ConvCase{"s1p0_k27_oc5_1x1", 3, 3, 5, 3, 1, 0, true}),
    [](const ::testing::TestParamInfo<ConvCase>& info) { return std::string(info.param.name); });

}  // namespace
