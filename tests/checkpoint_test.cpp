// Kill-and-resume coverage for the sweep checkpoint: an interrupted
// full_matrix run restarted from its checkpoint must produce a matrix
// bit-identical to an uninterrupted sweep (serial and multi-threaded), and
// a corrupt or stale checkpoint must be rejected and recomputed, never
// resumed from.
#include "clado/core/sensitivity.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "clado/fault/fault.h"
#include "clado/obs/obs.h"
#include "test_models_util.h"

namespace clado::core {
namespace {

using clado::tensor::Rng;

// One deterministic (model, batch) pair per call: two calls with the same
// seed build bit-identical engines, which is how the tests simulate a
// process dying and a fresh process resuming.
struct EngineFixture {
  Model model;
  Batch batch;
  EngineFixture(Model m, Batch b) : model(std::move(m)), batch(std::move(b)) {}
};

EngineFixture make_fixture(std::uint64_t seed = 21) {
  Rng rng(seed);
  Model model = clado::testing::make_tiny_model(rng);
  Batch batch = clado::testing::make_noise_batch(rng);
  return {std::move(model), std::move(batch)};
}

void expect_bit_identical(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.numel(), b.numel());
  ASSERT_TRUE(a.shape() == b.shape());
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    ASSERT_EQ(a[i], b[i]) << "element " << i;
  }
}

std::int64_t counter_value(const char* name) { return clado::obs::counter(name).value(); }

void flip_byte(const std::filesystem::path& path, std::streamoff offset) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good()) << path;
  f.seekg(offset);
  char c = 0;
  f.read(&c, 1);
  ASSERT_TRUE(f.good());
  c = static_cast<char>(c ^ 0x5A);
  f.seekp(offset);
  f.write(&c, 1);
  ASSERT_TRUE(f.good());
}

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() / "clado_checkpoint_test";
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    ::unsetenv("CLADO_CHECKPOINT_DIR");
    ::unsetenv("CLADO_CHECKPOINT_STRIDE");
    clado::fault::disarm_all();
  }
  void TearDown() override {
    clado::fault::disarm_all();
    ::unsetenv("CLADO_CHECKPOINT_DIR");
    ::unsetenv("CLADO_CHECKPOINT_STRIDE");
    std::filesystem::remove_all(dir_);
  }

  std::filesystem::path ckpt_file() const { return dir_ / "sweep_4x2.ckpt"; }

  // Reference: an uninterrupted, checkpoint-free sweep. set_checkpoint({})
  // forces checkpointing off regardless of the environment.
  Tensor reference_matrix(int threads = 1) {
    EngineFixture s = make_fixture();
    SensitivityEngine engine(s.model, s.batch);
    engine.set_checkpoint({});
    return engine.full_matrix({}, threads);
  }

  // Runs a sweep with checkpointing into dir_ and a persistent NaN fault
  // armed from `kill_hit` loss measurements onward; the sweep must fail
  // after exhausting its retries, leaving completed rows in the file.
  void killed_run(std::uint64_t kill_hit, int threads) {
    EngineFixture s = make_fixture();
    SensitivityEngine engine(s.model, s.batch);
    engine.set_checkpoint({dir_.string(), 1});
    clado::fault::arm_from(clado::fault::Site::kNanLoss, kill_hit);
    EXPECT_THROW(engine.full_matrix({}, threads), std::runtime_error);
    clado::fault::disarm_all();
  }

  Tensor resumed_run(int threads, SensitivityStats* stats_out = nullptr) {
    EngineFixture s = make_fixture();
    SensitivityEngine engine(s.model, s.batch);
    engine.set_checkpoint({dir_.string(), 1});
    Tensor g = engine.full_matrix({}, threads);
    if (stats_out != nullptr) *stats_out = engine.stats();
    return g;
  }

  std::filesystem::path dir_;
};

TEST_F(CheckpointTest, SerialKillAndResumeIsBitIdentical) {
  const Tensor ref = reference_matrix();

  // Rows are claimed in ascending order: hit 35 lands mid-row-2 of the
  // serial sweep (8 single-loss evals, then rows 0/1/2/3 of 14/10/6/2 evals
  // at hits 9–22, 23–32, 33–38 and 39–40), so exactly rows 0 and 1 are
  // committed.
  const std::int64_t resumed_before = counter_value("sensitivity.checkpoint_rows_resumed");
  killed_run(35, 1);
  ASSERT_TRUE(std::filesystem::exists(ckpt_file()));

  const Tensor g = resumed_run(1);
  expect_bit_identical(g, ref);
  EXPECT_EQ(counter_value("sensitivity.checkpoint_rows_resumed") - resumed_before, 2);
}

TEST_F(CheckpointTest, ParallelKillAndResumeIsBitIdentical) {
  const Tensor ref = reference_matrix();

  // Which rows survive depends on worker interleaving; the contract under
  // test is only that whatever was committed resumes bit-identically.
  killed_run(20, 4);
  ASSERT_TRUE(std::filesystem::exists(ckpt_file()));

  const Tensor g = resumed_run(4);
  expect_bit_identical(g, ref);
}

TEST_F(CheckpointTest, CorruptCheckpointIsRejectedAndRecomputed) {
  const Tensor ref = reference_matrix();
  killed_run(35, 1);
  ASSERT_TRUE(std::filesystem::exists(ckpt_file()));

  // Flip a payload byte (the 12-byte header is magic/version/CRC; offset 64
  // is well inside the entry data). The CRC check must reject the file.
  flip_byte(ckpt_file(), 64);

  const std::int64_t rejected_before = counter_value("sensitivity.checkpoint_rejected");
  const Tensor g = resumed_run(1);
  expect_bit_identical(g, ref);
  EXPECT_EQ(counter_value("sensitivity.checkpoint_rejected") - rejected_before, 1);
}

TEST_F(CheckpointTest, StaleCheckpointFromDifferentModelIsRejected) {
  // A complete checkpoint written by a *different* model (same 4x2 shape,
  // different weights => different base loss fingerprint) must not be
  // resumed from.
  {
    EngineFixture other = make_fixture(99);
    SensitivityEngine engine(other.model, other.batch);
    engine.set_checkpoint({dir_.string(), 1});
    engine.full_matrix({}, 1);
  }
  ASSERT_TRUE(std::filesystem::exists(ckpt_file()));

  const std::int64_t rejected_before = counter_value("sensitivity.checkpoint_rejected");
  const Tensor g = resumed_run(1);
  expect_bit_identical(g, reference_matrix());
  EXPECT_EQ(counter_value("sensitivity.checkpoint_rejected") - rejected_before, 1);
}

TEST_F(CheckpointTest, CompleteCheckpointSkipsTheSweepEntirely) {
  SensitivityStats full_stats;
  {
    EngineFixture s = make_fixture();
    SensitivityEngine engine(s.model, s.batch);
    engine.set_checkpoint({dir_.string(), 1});
    engine.full_matrix({}, 1);
    full_stats = engine.stats();
  }

  // Fresh engine, complete checkpoint: only the base loss and the single-
  // layer losses are re-measured; all 24 pair measurements come from the
  // file, and the completion progress call still fires.
  std::vector<std::pair<std::int64_t, std::int64_t>> calls;
  EngineFixture s = make_fixture();
  SensitivityEngine engine(s.model, s.batch);
  engine.set_checkpoint({dir_.string(), 1});
  const Tensor g = engine.full_matrix(
      [&](std::int64_t done, std::int64_t total) { calls.emplace_back(done, total); }, 1);

  expect_bit_identical(g, reference_matrix());
  EXPECT_LT(engine.stats().forward_measurements, full_stats.forward_measurements);
  ASSERT_FALSE(calls.empty());
  EXPECT_EQ(calls.back(), (std::pair<std::int64_t, std::int64_t>{24, 24}));
}

TEST_F(CheckpointTest, EnvironmentVariableOptsIn) {
  ::setenv("CLADO_CHECKPOINT_DIR", dir_.string().c_str(), 1);
  {
    EngineFixture s = make_fixture();
    SensitivityEngine engine(s.model, s.batch);  // no set_checkpoint
    engine.full_matrix({}, 1);
  }
  EXPECT_TRUE(std::filesystem::exists(ckpt_file()));

  // And the env-configured engine resumes from it (all 4 rows).
  const std::int64_t resumed_before = counter_value("sensitivity.checkpoint_rows_resumed");
  EngineFixture s = make_fixture();
  SensitivityEngine engine(s.model, s.batch);
  const Tensor g = engine.full_matrix({}, 1);
  expect_bit_identical(g, reference_matrix());
  EXPECT_EQ(counter_value("sensitivity.checkpoint_rows_resumed") - resumed_before, 4);
}

TEST_F(CheckpointTest, ExplicitEmptyConfigForcesCheckpointingOff) {
  ::setenv("CLADO_CHECKPOINT_DIR", dir_.string().c_str(), 1);
  EngineFixture s = make_fixture();
  SensitivityEngine engine(s.model, s.batch);
  engine.set_checkpoint({});
  engine.full_matrix({}, 1);
  EXPECT_FALSE(std::filesystem::exists(ckpt_file()));
}

TEST_F(CheckpointTest, BadStrideEnvFailsLoudly) {
  ::setenv("CLADO_CHECKPOINT_DIR", dir_.string().c_str(), 1);
  ::setenv("CLADO_CHECKPOINT_STRIDE", "every-other", 1);
  EngineFixture s = make_fixture();
  SensitivityEngine engine(s.model, s.batch);
  EXPECT_THROW(engine.full_matrix({}, 1), std::invalid_argument);
}

TEST_F(CheckpointTest, SaveFailuresNeverAffectTheResult) {
  const Tensor ref = reference_matrix();
  // Every checkpoint write fails; the sweep must neither notice nor leave
  // a (partial) file behind — durability is strictly best-effort.
  clado::fault::arm_from(clado::fault::Site::kIoWrite, 1);
  const std::int64_t failures_before = counter_value("sensitivity.checkpoint_save_failures");
  const Tensor g = resumed_run(1);
  clado::fault::disarm_all();
  expect_bit_identical(g, ref);
  EXPECT_GE(counter_value("sensitivity.checkpoint_save_failures") - failures_before, 4);
  EXPECT_FALSE(std::filesystem::exists(ckpt_file()));
}

}  // namespace
}  // namespace clado::core
