#include "clado/fault/fault.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "clado/core/algorithms.h"
#include "clado/core/sensitivity.h"
#include "clado/obs/obs.h"
#include "test_models_util.h"

namespace clado::fault {
namespace {

using clado::models::Model;
using clado::tensor::Rng;

// The fault registry is process-global; every test starts and ends disarmed
// so ordering cannot leak armed sites or hit counters between tests.
class FaultTest : public ::testing::Test {
 protected:
  void SetUp() override { disarm_all(); }
  void TearDown() override { disarm_all(); }
};

TEST_F(FaultTest, SiteNamesAreStable) {
  // These names are API: env vars and obs counter names are derived from
  // them, so renaming one silently orphans configured experiments.
  EXPECT_STREQ(site_name(Site::kIoWrite), "io_write");
  EXPECT_STREQ(site_name(Site::kIoRead), "io_read");
  EXPECT_STREQ(site_name(Site::kNanLoss), "nan_loss");
  EXPECT_STREQ(site_name(Site::kPoolTask), "pool_task");
  EXPECT_STREQ(site_name(Site::kSolverOracle), "solver_oracle");
}

TEST_F(FaultTest, DisarmedSiteIsInertAndUncounted) {
  EXPECT_FALSE(armed(Site::kNanLoss));
  for (int i = 0; i < 5; ++i) EXPECT_FALSE(should_inject(Site::kNanLoss));
  EXPECT_NO_THROW(maybe_throw(Site::kIoWrite, "never"));
  EXPECT_EQ(poison_nan(Site::kNanLoss, 1.5), 1.5);
  // Hit accounting is skipped entirely while disarmed (the zero-cost path).
  EXPECT_EQ(hit_count(Site::kNanLoss), 0U);
  EXPECT_EQ(injected_count(Site::kNanLoss), 0U);
}

TEST_F(FaultTest, OneShotFiresExactlyOnNthHit) {
  arm_one_shot(Site::kNanLoss, 3);
  EXPECT_TRUE(armed(Site::kNanLoss));
  std::vector<bool> fired;
  for (int i = 0; i < 6; ++i) fired.push_back(should_inject(Site::kNanLoss));
  EXPECT_EQ(fired, (std::vector<bool>{false, false, true, false, false, false}));
  EXPECT_EQ(hit_count(Site::kNanLoss), 6U);
  EXPECT_EQ(injected_count(Site::kNanLoss), 1U);
}

TEST_F(FaultTest, FromFiresOnEveryHitFromNthOnward) {
  arm_from(Site::kIoRead, 4);
  std::vector<bool> fired;
  for (int i = 0; i < 6; ++i) fired.push_back(should_inject(Site::kIoRead));
  EXPECT_EQ(fired, (std::vector<bool>{false, false, false, true, true, true}));
  EXPECT_EQ(injected_count(Site::kIoRead), 3U);
}

TEST_F(FaultTest, ProbabilityModeIsDeterministicPerSeed) {
  const auto pattern_for = [](std::uint64_t seed) {
    disarm_all();
    set_seed(seed);
    arm_probability(Site::kPoolTask, 0.5);
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) fired.push_back(should_inject(Site::kPoolTask));
    return fired;
  };
  const auto a = pattern_for(123);
  const auto b = pattern_for(123);
  EXPECT_EQ(a, b);
  // p = 0.5 over 64 hits: all-fire or none-fire would mean the hash is
  // degenerate, not that we got unlucky (probability ~2^-64).
  const auto fired_count = static_cast<int>(std::count(a.begin(), a.end(), true));
  EXPECT_GT(fired_count, 0);
  EXPECT_LT(fired_count, 64);
}

TEST_F(FaultTest, ProbabilityExtremesAreExact) {
  arm_probability(Site::kSolverOracle, 0.0);
  for (int i = 0; i < 32; ++i) EXPECT_FALSE(should_inject(Site::kSolverOracle));
  arm_probability(Site::kSolverOracle, 1.0);
  for (int i = 0; i < 32; ++i) EXPECT_TRUE(should_inject(Site::kSolverOracle));
}

TEST_F(FaultTest, ArmSpecParsesAllThreeGrammars) {
  arm_spec(Site::kNanLoss, "2");
  EXPECT_FALSE(should_inject(Site::kNanLoss));
  EXPECT_TRUE(should_inject(Site::kNanLoss));
  EXPECT_FALSE(should_inject(Site::kNanLoss));

  arm_spec(Site::kNanLoss, "from:2");
  EXPECT_FALSE(should_inject(Site::kNanLoss));
  EXPECT_TRUE(should_inject(Site::kNanLoss));
  EXPECT_TRUE(should_inject(Site::kNanLoss));

  EXPECT_NO_THROW(arm_spec(Site::kNanLoss, "prob:0.5"));
}

TEST_F(FaultTest, ArmSpecRejectsGarbageLoudly) {
  // Same strictness policy as env_int_strict: a typo must not silently run
  // a different experiment.
  EXPECT_THROW(arm_spec(Site::kNanLoss, ""), std::invalid_argument);
  EXPECT_THROW(arm_spec(Site::kNanLoss, "garbage"), std::invalid_argument);
  EXPECT_THROW(arm_spec(Site::kNanLoss, "0"), std::invalid_argument);
  EXPECT_THROW(arm_spec(Site::kNanLoss, "3x"), std::invalid_argument);
  EXPECT_THROW(arm_spec(Site::kNanLoss, "from:"), std::invalid_argument);
  EXPECT_THROW(arm_spec(Site::kNanLoss, "from:0"), std::invalid_argument);
  EXPECT_THROW(arm_spec(Site::kNanLoss, "prob:"), std::invalid_argument);
  EXPECT_THROW(arm_spec(Site::kNanLoss, "prob:2"), std::invalid_argument);
  EXPECT_THROW(arm_spec(Site::kNanLoss, "prob:0.5q"), std::invalid_argument);
  EXPECT_FALSE(armed(Site::kNanLoss));
}

TEST_F(FaultTest, MaybeThrowTagsTheSiteInItsMessage) {
  arm_from(Site::kSolverOracle, 1);
  try {
    maybe_throw(Site::kSolverOracle, "oracle down");
    FAIL() << "maybe_throw did not throw";
  } catch (const FaultInjected& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("oracle down"), std::string::npos);
    EXPECT_NE(what.find("[fault:solver_oracle]"), std::string::npos);
  }
}

TEST_F(FaultTest, PoisonNanReturnsQuietNan) {
  arm_from(Site::kNanLoss, 1);
  EXPECT_TRUE(std::isnan(poison_nan(Site::kNanLoss, 1.5)));
}

TEST_F(FaultTest, InjectionsAreVisibleInObsCounters) {
  const std::int64_t before = clado::obs::counter("fault.injected.io_write").value();
  arm_one_shot(Site::kIoWrite, 1);
  EXPECT_TRUE(should_inject(Site::kIoWrite));
  EXPECT_EQ(clado::obs::counter("fault.injected.io_write").value(), before + 1);
}

TEST_F(FaultTest, DisarmAllResetsEverything) {
  arm_from(Site::kIoRead, 1);
  ASSERT_TRUE(should_inject(Site::kIoRead));
  disarm_all();
  EXPECT_FALSE(armed(Site::kIoRead));
  EXPECT_EQ(hit_count(Site::kIoRead), 0U);
  EXPECT_EQ(injected_count(Site::kIoRead), 0U);
  EXPECT_FALSE(should_inject(Site::kIoRead));
}

// ---------------------------------------------------------------------------
// End-to-end: with each site armed one-at-a-time, the pipeline (checkpointed
// sweep -> PSD projection -> solver chain) must still return a feasible
// assignment — the injected failure is absorbed by the matching recovery
// layer, never surfaced to the caller.
// ---------------------------------------------------------------------------

struct PipelineRun {
  std::vector<int> choice;
  double bytes = 0.0;
  double target = 0.0;
  bool used_fallback = false;
};

PipelineRun run_pipeline(const std::filesystem::path& ckpt_dir) {
  Rng rng(31);
  Model m = clado::testing::make_tiny_model(rng);
  auto batch = clado::testing::make_noise_batch(rng);
  const double budget = 0.5 * m.uniform_size_bytes(8);
  clado::core::PipelineOptions opt;
  opt.sweep_threads = 2;  // exercise the multi-worker sweep
  clado::core::MpqPipeline pipe(m, std::move(batch), opt);
  pipe.engine().set_checkpoint({ckpt_dir.string(), 1});
  const auto a = pipe.assign(clado::core::Algorithm::kClado, budget);
  return {a.choice, a.bytes, a.target_bytes, a.used_fallback};
}

TEST_F(FaultTest, PipelineSurvivesEverySiteArmedOnce) {
  const auto dir = std::filesystem::temp_directory_path() / "clado_fault_pipeline";
  std::filesystem::remove_all(dir);

  // Unfaulted reference (fresh checkpoint dir, so nothing is resumed).
  std::filesystem::create_directories(dir);
  const PipelineRun ref = run_pipeline(dir);
  ASSERT_EQ(ref.choice.size(), 4U);
  ASSERT_LE(ref.bytes, ref.target + 1e-6);

  // Only the sites the solver pipeline actually crosses; the serve-path
  // sites (accept, frame_decode, registry_swap) are exercised end-to-end
  // by fleet_test and the live fault-soak drill instead, and pool_task
  // (the sweep's workers are plain threads, outside any pool) by
  // thread_pool_test.
  const Site pipeline_sites[] = {Site::kIoWrite, Site::kIoRead, Site::kNanLoss,
                                 Site::kSolverOracle};
  for (const Site site : pipeline_sites) {
    SCOPED_TRACE(site_name(site));
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    disarm_all();

    if (site == Site::kIoRead) {
      // The read path only runs when a checkpoint exists; seed one from an
      // identically-constructed engine so the fault corrupts a real load.
      Rng rng(31);
      Model m = clado::testing::make_tiny_model(rng);
      clado::core::SensitivityEngine seed_engine(m, clado::testing::make_noise_batch(rng));
      seed_engine.set_checkpoint({dir.string(), 1});
      seed_engine.full_matrix({}, 1);
    }

    arm_one_shot(site, 1);
    const PipelineRun faulted = run_pipeline(dir);
    // The fault must actually have fired — a survived run that never hit
    // its site would vacuously pass.
    EXPECT_EQ(injected_count(site), 1U);
    disarm_all();

    EXPECT_EQ(faulted.choice.size(), 4U);
    EXPECT_LE(faulted.bytes, faulted.target + 1e-6);
    if (site != Site::kSolverOracle) {
      // Recovery re-measures or retries deterministic work, so every
      // pre-solver fault yields the exact reference assignment.
      EXPECT_EQ(faulted.choice, ref.choice);
      EXPECT_FALSE(faulted.used_fallback);
    } else {
      // The degradation chain served this one; provenance must say so.
      EXPECT_TRUE(faulted.used_fallback);
    }
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace clado::fault
