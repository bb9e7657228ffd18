#include "clado/nn/blocks.h"

#include <gtest/gtest.h>

#include "clado/nn/attention.h"
#include "gradcheck_util.h"

namespace clado::nn {
namespace {

using clado::tensor::Rng;
using clado::testing::check_gradients;

std::unique_ptr<Sequential> tiny_conv_path(Rng& rng, std::int64_t in_c, std::int64_t out_c,
                                           std::int64_t stride) {
  auto seq = std::make_unique<Sequential>();
  auto* conv = seq->emplace_named<Conv2d>("conv1", in_c, out_c, 3, stride, 1, 1, false);
  conv->init(rng);
  seq->emplace_named<Activation>("act", Act::kRelu);
  auto* conv2 = seq->emplace_named<Conv2d>("conv2", out_c, out_c, 3, 1, 1, 1, false);
  conv2->init(rng);
  return seq;
}

TEST(ResidualBlock, IdentityShortcutAddsInput) {
  Rng rng(1);
  auto main = std::make_unique<Sequential>();
  auto* conv = main->emplace_named<Conv2d>("conv", 2, 2, 1, 1, 0, 1, false);
  conv->weight_param().value.fill(0.0F);  // main path contributes nothing
  ResidualBlock block(std::move(main), nullptr, /*final_relu=*/false);
  const Tensor x = Tensor::randn({1, 2, 3, 3}, rng);
  const Tensor y = block.forward(x);
  for (std::int64_t i = 0; i < x.numel(); ++i) EXPECT_FLOAT_EQ(y[i], x[i]);
}

TEST(ResidualBlock, FinalReluClampsNegatives) {
  auto main = std::make_unique<Sequential>();
  auto* conv = main->emplace_named<Conv2d>("conv", 1, 1, 1, 1, 0, 1, false);
  conv->weight_param().value.fill(0.0F);
  ResidualBlock block(std::move(main), nullptr, /*final_relu=*/true);
  const Tensor x({1, 1, 1, 2}, std::vector<float>{-3.0F, 4.0F});
  const Tensor y = block.forward(x);
  EXPECT_FLOAT_EQ(y[0], 0.0F);
  EXPECT_FLOAT_EQ(y[1], 4.0F);
}

TEST(ResidualBlock, GradCheckWithIdentityShortcut) {
  Rng rng(2);
  ResidualBlock block(tiny_conv_path(rng, 2, 2, 1), nullptr, true);
  const Tensor x = Tensor::randn({2, 2, 4, 4}, rng);
  const Tensor proj = Tensor::randn({2, 2, 4, 4}, rng);
  check_gradients(block, x, proj);
}

TEST(ResidualBlock, GradCheckWithDownsampleShortcut) {
  Rng rng(3);
  auto shortcut = std::make_unique<Sequential>();
  auto* sc = shortcut->emplace_named<Conv2d>("0", 2, 4, 1, 2, 0, 1, false);
  sc->init(rng);
  ResidualBlock block(tiny_conv_path(rng, 2, 4, 2), std::move(shortcut), true);
  const Tensor x = Tensor::randn({2, 2, 4, 4}, rng);
  const Tensor proj = Tensor::randn({2, 4, 2, 2}, rng);
  check_gradients(block, x, proj);
}

TEST(ResidualBlock, CollectsQuantLayersFromBothPaths) {
  Rng rng(4);
  auto shortcut = std::make_unique<Sequential>();
  shortcut->emplace_named<Conv2d>("0", 2, 4, 1, 2, 0, 1, false)->init(rng);
  ResidualBlock block(tiny_conv_path(rng, 2, 4, 2), std::move(shortcut), true);
  std::vector<QuantLayerRef> layers;
  block.collect_quant_layers("blk", layers);
  ASSERT_EQ(layers.size(), 3U);
  EXPECT_EQ(layers[0].name, "blk.conv1");
  EXPECT_EQ(layers[1].name, "blk.conv2");
  EXPECT_EQ(layers[2].name, "blk.downsample.0");
}

TEST(SEBlock, GateIsBounded) {
  Rng rng(5);
  SEBlock se(4, 2);
  se.init(rng);
  const Tensor x = Tensor::randn({2, 4, 3, 3}, rng, 3.0F);
  const Tensor y = se.forward(x);
  // Hard-sigmoid gate in [0, 1]: |y| <= |x| elementwise.
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    EXPECT_LE(std::abs(y[i]), std::abs(x[i]) + 1e-6F);
  }
}

TEST(SEBlock, GradCheck) {
  Rng rng(6);
  SEBlock se(4, 2);
  se.init(rng);
  const Tensor x = Tensor::randn({2, 4, 3, 3}, rng);
  const Tensor proj = Tensor::randn({2, 4, 3, 3}, rng);
  check_gradients(se, x, proj, 1e-3, 3e-2);
}

TEST(SEBlock, HasTwoQuantLayers) {
  SEBlock se(8, 4);
  std::vector<QuantLayerRef> layers;
  se.collect_quant_layers("se", layers);
  ASSERT_EQ(layers.size(), 2U);
  EXPECT_EQ(layers[0].name, "se.fc1");
  EXPECT_EQ(layers[1].name, "se.fc2");
}

TEST(MultiHeadSelfAttention, OutputShapeMatchesInput) {
  Rng rng(7);
  MultiHeadSelfAttention attn(8, 2);
  attn.init(rng);
  const Tensor x = Tensor::randn({2, 5, 8}, rng);
  const Tensor y = attn.forward(x);
  EXPECT_EQ(y.shape(), x.shape());
}

TEST(MultiHeadSelfAttention, RejectsIndivisibleHeads) {
  EXPECT_THROW(MultiHeadSelfAttention(10, 3), std::invalid_argument);
}

TEST(MultiHeadSelfAttention, GradCheck) {
  Rng rng(8);
  MultiHeadSelfAttention attn(8, 2);
  attn.init(rng);
  const Tensor x = Tensor::randn({2, 4, 8}, rng);
  const Tensor proj = Tensor::randn({2, 4, 8}, rng);
  check_gradients(attn, x, proj, 1e-3, 3e-2);
}

TEST(MultiHeadSelfAttention, FourQuantLayers) {
  MultiHeadSelfAttention attn(8, 2);
  std::vector<QuantLayerRef> layers;
  attn.collect_quant_layers("attn", layers);
  ASSERT_EQ(layers.size(), 4U);
  EXPECT_EQ(layers[0].name, "attn.query");
  EXPECT_EQ(layers[3].name, "attn.output.dense");
}

TEST(TransformerBlock, GradCheck) {
  Rng rng(9);
  TransformerBlock block(8, 2, 16);
  block.init(rng);
  const Tensor x = Tensor::randn({1, 4, 8}, rng);
  const Tensor proj = Tensor::randn({1, 4, 8}, rng);
  check_gradients(block, x, proj, 1e-3, 4e-2);
}

TEST(TransformerBlock, SixQuantLayers) {
  TransformerBlock block(8, 2, 16);
  std::vector<QuantLayerRef> layers;
  block.collect_quant_layers("layer.0", layers);
  ASSERT_EQ(layers.size(), 6U);
  EXPECT_EQ(layers[0].name, "layer.0.attention.attention.query");
  EXPECT_EQ(layers[4].name, "layer.0.intermediate.dense");
  EXPECT_EQ(layers[5].name, "layer.0.output.dense");
}

TEST(PatchEmbed, TokenCountAndShape) {
  Rng rng(10);
  PatchEmbed embed(3, 16, 16, 4);
  embed.init(rng);
  const Tensor x = Tensor::randn({2, 3, 16, 16}, rng);
  const Tensor y = embed.forward(x);
  EXPECT_EQ(y.shape(), (Shape{2, 17, 16}));  // 4x4 grid + class token
}

TEST(PatchEmbed, GradCheck) {
  Rng rng(11);
  PatchEmbed embed(2, 6, 8, 4);
  embed.init(rng);
  const Tensor x = Tensor::randn({2, 2, 8, 8}, rng);
  const Tensor proj = Tensor::randn({2, 5, 6}, rng);
  check_gradients(embed, x, proj);
}

TEST(PatchEmbed, RejectsNonDivisiblePatch) {
  EXPECT_THROW(PatchEmbed(3, 8, 10, 4), std::invalid_argument);
}

TEST(TakeToken, SelectsAndBackprops) {
  const Tensor x({1, 3, 2}, std::vector<float>{1, 2, 3, 4, 5, 6});
  TakeToken take(1);
  const Tensor y = take.forward(x);
  EXPECT_EQ(y.shape(), (Shape{1, 2}));
  EXPECT_FLOAT_EQ(y[0], 3.0F);
  EXPECT_FLOAT_EQ(y[1], 4.0F);
  const Tensor g = take.backward(Tensor({1, 2}, std::vector<float>{7, 8}));
  EXPECT_FLOAT_EQ(g[2], 7.0F);
  EXPECT_FLOAT_EQ(g[3], 8.0F);
  EXPECT_FLOAT_EQ(g[0], 0.0F);
  EXPECT_FLOAT_EQ(g[5], 0.0F);
}

TEST(TakeToken, GradCheck) {
  Rng rng(12);
  TakeToken take(0);
  const Tensor x = Tensor::randn({2, 3, 4}, rng);
  const Tensor proj = Tensor::randn({2, 4}, rng);
  check_gradients(take, x, proj);
}

}  // namespace
}  // namespace clado::nn
