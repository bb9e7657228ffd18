#include "clado/tensor/serialize.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "clado/fault/fault.h"

namespace clado::tensor {
namespace {

class SerializeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() / "clado_serialize_test";
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string path(const char* name) const { return (dir_ / name).string(); }
  std::filesystem::path dir_;
};

TEST_F(SerializeTest, RoundTripPreservesShapesAndValues) {
  Rng rng(1);
  StateDict dict;
  dict.emplace("conv.weight", Tensor::randn({4, 3, 3, 3}, rng));
  dict.emplace("fc.bias", Tensor::randn({10}, rng));
  dict.emplace("scalarish", Tensor({1}, 3.25F));
  save_state_dict(dict, path("model.bin"));

  const StateDict loaded = load_state_dict(path("model.bin"));
  ASSERT_EQ(loaded.size(), dict.size());
  for (const auto& [name, tensor] : dict) {
    const auto it = loaded.find(name);
    ASSERT_NE(it, loaded.end()) << name;
    ASSERT_EQ(it->second.shape(), tensor.shape());
    for (std::int64_t i = 0; i < tensor.numel(); ++i) {
      EXPECT_EQ(it->second[i], tensor[i]);
    }
  }
}

TEST_F(SerializeTest, EmptyDictRoundTrips) {
  save_state_dict({}, path("empty.bin"));
  EXPECT_TRUE(load_state_dict(path("empty.bin")).empty());
}

TEST_F(SerializeTest, LoadRejectsBadMagic) {
  std::ofstream bad(path("garbage.bin"), std::ios::binary);
  bad << "XXXXYYYYZZZZ0000";
  bad.close();
  EXPECT_THROW(load_state_dict(path("garbage.bin")), std::runtime_error);
}

TEST_F(SerializeTest, LoadRejectsTruncatedFile) {
  save_state_dict({{"weights", Tensor({128}, 1.0F)}}, path("full.bin"));
  // Truncate mid-payload.
  const auto full_size = std::filesystem::file_size(path("full.bin"));
  std::filesystem::resize_file(path("full.bin"), full_size / 2);
  EXPECT_THROW(load_state_dict(path("full.bin")), std::runtime_error);
}

TEST_F(SerializeTest, LoadMissingFileThrows) {
  EXPECT_THROW(load_state_dict(path("never_written.bin")), std::runtime_error);
}

TEST_F(SerializeTest, Crc32MatchesKnownVectorAndChains) {
  // IEEE 802.3 check value for "123456789".
  const char* s = "123456789";
  EXPECT_EQ(crc32(s, 9), 0xCBF43926U);
  // Incremental computation continues from a prior seed.
  EXPECT_EQ(crc32(s + 4, 5, crc32(s, 4)), 0xCBF43926U);
  EXPECT_EQ(crc32(nullptr, 0), 0U);
}

TEST_F(SerializeTest, LegacyV1FileStillLoads) {
  // Hand-written v1 container: magic, version=1, then the payload with no
  // checksum — the format every pre-v2 artifact on disk uses.
  {
    std::ofstream f(path("v1.bin"), std::ios::binary);
    const auto put = [&f](const void* p, std::size_t n) {
      f.write(static_cast<const char*>(p), static_cast<std::streamsize>(n));
    };
    const std::uint32_t magic = 0x434C4144;
    const std::uint32_t version = 1;
    const std::uint64_t count = 1;
    put(&magic, 4);
    put(&version, 4);
    put(&count, 8);
    const std::string name = "fc.bias";
    const auto name_len = static_cast<std::uint32_t>(name.size());
    const std::uint32_t rank = 1;
    const std::int64_t dim0 = 3;
    const float data[3] = {1.5F, -2.0F, 0.25F};
    put(&name_len, 4);
    put(name.data(), name.size());
    put(&rank, 4);
    put(&dim0, 8);
    put(data, sizeof(data));
  }

  const auto probe = try_load_state_dict(path("v1.bin"));
  ASSERT_TRUE(probe.ok());
  const StateDict loaded = load_state_dict(path("v1.bin"));
  ASSERT_EQ(loaded.size(), 1U);
  const auto it = loaded.find("fc.bias");
  ASSERT_NE(it, loaded.end());
  ASSERT_EQ(it->second.shape(), Shape{3});
  EXPECT_EQ(it->second[0], 1.5F);
  EXPECT_EQ(it->second[1], -2.0F);
  EXPECT_EQ(it->second[2], 0.25F);
}

TEST_F(SerializeTest, FlippedPayloadByteFailsTheChecksum) {
  save_state_dict({{"w", Tensor({16}, 1.0F)}}, path("flip.bin"));
  ASSERT_TRUE(load_state_dict(path("flip.bin")).size() == 1);

  // Header is magic+version+CRC (12 bytes); offset 40 is inside the tensor
  // data, where a flipped bit would otherwise load as a silently-wrong
  // float.
  {
    std::fstream f(path("flip.bin"), std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(40);
    char c = 0;
    f.read(&c, 1);
    c = static_cast<char>(c ^ 0x01);
    f.seekp(40);
    f.write(&c, 1);
  }

  EXPECT_EQ(try_load_state_dict(path("flip.bin")).status, LoadStatus::kCorrupt);
  EXPECT_THROW(load_state_dict(path("flip.bin")), std::runtime_error);
}

TEST_F(SerializeTest, TryLoadDistinguishesMissingCorruptAndVersion) {
  EXPECT_EQ(try_load_state_dict(path("absent.bin")).status, LoadStatus::kMissing);

  {
    std::ofstream bad(path("badmagic.bin"), std::ios::binary);
    bad << "XXXXYYYYZZZZ0000";
  }
  EXPECT_EQ(try_load_state_dict(path("badmagic.bin")).status, LoadStatus::kCorrupt);

  {
    std::ofstream future(path("future.bin"), std::ios::binary);
    const std::uint32_t magic = 0x434C4144;
    const std::uint32_t version = 99;
    future.write(reinterpret_cast<const char*>(&magic), 4);
    future.write(reinterpret_cast<const char*>(&version), 4);
  }
  EXPECT_EQ(try_load_state_dict(path("future.bin")).status, LoadStatus::kVersionMismatch);

  save_state_dict({{"t", Tensor({2}, 2.0F)}}, path("good.bin"));
  const auto good = try_load_state_dict(path("good.bin"));
  EXPECT_EQ(good.status, LoadStatus::kOk);
  EXPECT_TRUE(good.ok());
  EXPECT_EQ(good.dict.size(), 1U);

  EXPECT_STREQ(load_status_name(LoadStatus::kMissing), "missing");
  EXPECT_STREQ(load_status_name(LoadStatus::kVersionMismatch), "version_mismatch");
}

TEST_F(SerializeTest, SaveIsAtomicUnderInjectedWriteFailure) {
  save_state_dict({{"v", Tensor({4}, 1.0F)}}, path("atomic.bin"));
  EXPECT_FALSE(std::filesystem::exists(path("atomic.bin") + ".tmp"));

  clado::fault::arm_from(clado::fault::Site::kIoWrite, 1);
  EXPECT_THROW(save_state_dict({{"v", Tensor({4}, 2.0F)}}, path("atomic.bin")),
               clado::fault::FaultInjected);
  clado::fault::disarm_all();

  // The failed save left the previous complete file behind, untouched.
  const StateDict loaded = load_state_dict(path("atomic.bin"));
  ASSERT_EQ(loaded.size(), 1U);
  EXPECT_EQ(loaded.at("v")[0], 1.0F);
  EXPECT_FALSE(std::filesystem::exists(path("atomic.bin") + ".tmp"));
}

TEST_F(SerializeTest, InjectedReadFaultSurfacesAsCorrupt) {
  save_state_dict({{"v", Tensor({4}, 1.0F)}}, path("readfault.bin"));
  clado::fault::arm_one_shot(clado::fault::Site::kIoRead, 1);
  EXPECT_EQ(try_load_state_dict(path("readfault.bin")).status, LoadStatus::kCorrupt);
  clado::fault::disarm_all();
  // One-shot: the next read is clean.
  EXPECT_TRUE(try_load_state_dict(path("readfault.bin")).ok());
}

}  // namespace
}  // namespace clado::tensor
