// The zero-allocation contract of serve::CompiledPlan, counted at the
// allocator: this binary replaces the global operator new / new[] with
// counting versions (which is why it is a binary of its own — the
// replacement would otherwise count for every test it links with). Unlike
// Tensor::alloc_count, the count sees std::vector and every other heap
// user, so a steady-state run() that allocates anywhere fails here at any
// kernel level (the scalar-kernels CI job runs this binary with
// CLADO_KERNEL=scalar). The sweep's per-measurement loss is held to the
// same count.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "clado/backend/backend.h"
#include "clado/data/synthcv.h"
#include "clado/models/builders.h"
#include "clado/models/model.h"
#include "clado/nn/loss.h"
#include "clado/nn/module.h"
#include "clado/quant/freeze.h"
#include "clado/serve/plan.h"
#include "clado/tensor/rng.h"
#include "clado/tensor/tensor.h"

namespace {

std::atomic<std::int64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, (size + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace {

using clado::models::Model;
using clado::tensor::Rng;
using clado::tensor::Tensor;

/// A backend-on plan compiled the way serve::Engine compiles one: BatchNorm
/// folded and weights frozen at a 4/8-bit alternating assignment, each
/// quantized layer prepared for the integer kernel.
struct BackendPlan {
  Model model;
  std::vector<clado::backend::PreparedLayer> prepared;
  std::unique_ptr<clado::serve::CompiledPlan> plan;
};

std::unique_ptr<BackendPlan> make_backend_plan(const std::string& name, std::int64_t max_batch) {
  auto out = std::make_unique<BackendPlan>();
  Rng rng(7);
  out->model = clado::models::build_by_name(name, rng, /*num_classes=*/10);
  Model& model = out->model;
  clado::data::Batch calib;
  Rng data_rng(11);
  calib.images = Tensor::randn({8, model.channels, model.image_size, model.image_size}, data_rng);
  for (std::int64_t i = 0; i < 8; ++i) calib.labels.push_back(i % model.num_classes);
  model.calibrate_activations(calib);
  model.net->set_training(false);

  std::vector<int> bits(model.quant_layers.size());
  for (std::size_t i = 0; i < bits.size(); ++i) bits[i] = i % 2 == 0 ? 4 : 8;
  std::vector<clado::quant::WeightCodes> codes;
  clado::quant::freeze_quantized(*model.net, model.quant_layers, bits, model.scheme, &codes);

  clado::serve::PreparedMap map;
  out->prepared.reserve(model.quant_layers.size());
  for (std::size_t i = 0; i < model.quant_layers.size(); ++i) {
    auto* layer = model.quant_layers[i].layer;
    const std::int64_t rows = layer->quant_out_channels();
    out->prepared.push_back(clado::backend::prepare_layer(
        codes[i], rows, layer->weight_param().value.numel() / rows));
    map.emplace(dynamic_cast<const clado::nn::Module*>(layer), &out->prepared.back());
  }
  out->plan = std::make_unique<clado::serve::CompiledPlan>(
      *model.net, clado::tensor::Shape{model.channels, model.image_size, model.image_size},
      max_batch, &map);
  return out;
}

class PlanAllocations : public ::testing::TestWithParam<const char*> {};

TEST_P(PlanAllocations, SteadyStateRunsNeverTouchTheHeap) {
  constexpr std::int64_t kMaxBatch = 8;
  const auto bp = make_backend_plan(GetParam(), kMaxBatch);
  clado::serve::CompiledPlan& plan = *bp->plan;
  // Every conv and linear runs on the integer kernel.
  ASSERT_EQ(plan.backend_steps(), bp->model.quant_layers.size()) << plan.dump();

  Rng rng(13);
  const Tensor batch = Tensor::randn({kMaxBatch, bp->model.channels, bp->model.image_size,
                                      bp->model.image_size}, rng);
  for (const std::int64_t n : {std::int64_t{1}, kMaxBatch}) {
    Tensor out;
    const auto stage_and_run = [&] {
      std::copy(batch.data(), batch.data() + n * plan.sample_numel(), plan.input());
      plan.run(n, out);
    };
    for (int warm = 0; warm < 2; ++warm) stage_and_run();  // sizes `out` once
    const std::int64_t before = g_allocations.load();
    for (int i = 0; i < 20; ++i) stage_and_run();
    EXPECT_EQ(g_allocations.load() - before, 0)
        << GetParam() << " n=" << n << ": steady-state run() allocated";
  }
}

INSTANTIATE_TEST_SUITE_P(BackendOn, PlanAllocations, ::testing::Values("resnet_a", "resnet_b"));

// Every sensitivity measurement ends in cross_entropy: it allocates nothing
// and returns CrossEntropyLoss::forward's loss bit for bit.
TEST(LossAllocations, CrossEntropyAllocatesNothingAndMatchesForward) {
  Rng rng(17);
  Tensor logits = Tensor::randn({32, 10}, rng);
  logits *= 4.0F;  // spread the rows so every softmax term matters
  std::vector<std::int64_t> labels;
  for (std::int64_t r = 0; r < 32; ++r) labels.push_back((r * 7) % 10);
  const double want = clado::nn::CrossEntropyLoss().forward(logits, labels);

  const std::int64_t before = g_allocations.load();
  const double got = clado::nn::cross_entropy(logits, labels);
  EXPECT_EQ(g_allocations.load() - before, 0) << "cross_entropy allocated";
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got), std::bit_cast<std::uint64_t>(want));
}

}  // namespace
