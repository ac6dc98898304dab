/**
 * @file
 * Integration tests through the experiment harness: all four simulated
 * architectures trace real captured workloads, complete, agree on ray
 * counts, and show the paper's qualitative relationships on secondary
 * rays (DRS SIMD efficiency above Aila's; DMK pays SI instructions; TBC
 * in between).
 */

#include <gtest/gtest.h>

#include "harness/harness.h"

namespace drs::harness {
namespace {

/** Small but non-trivial shared fixture: conference at tiny scale. */
class HarnessFixture : public ::testing::Test
{
  protected:
    static void SetUpTestSuite()
    {
        ExperimentScale scale;
        scale.sceneScale = 0.15f;
        scale.width = 128;
        scale.height = 96;
        scale.samplesPerPixel = 1;
        scale.raysPerBounce = 8192;
        scale.numSmx = 2;
        prepared_ = new PreparedScene(
            prepareScene(scene::SceneId::Conference, scale));
        config_ = new RunConfig();
        config_->gpu.numSmx = 2;
    }

    static void TearDownTestSuite()
    {
        delete prepared_;
        delete config_;
        prepared_ = nullptr;
        config_ = nullptr;
    }

    static PreparedScene *prepared_;
    static RunConfig *config_;
};

PreparedScene *HarnessFixture::prepared_ = nullptr;
RunConfig *HarnessFixture::config_ = nullptr;

TEST_F(HarnessFixture, ArchNames)
{
    EXPECT_EQ(archName(Arch::Aila), "aila");
    EXPECT_EQ(archName(Arch::Drs), "drs");
    EXPECT_EQ(archName(Arch::Dmk), "dmk");
    EXPECT_EQ(archName(Arch::Tbc), "tbc");
}

TEST_F(HarnessFixture, AllArchitecturesTraceAllRays)
{
    const auto &rays = prepared_->trace.bounce(2).rays;
    for (Arch arch : {Arch::Aila, Arch::Drs, Arch::Dmk, Arch::Tbc}) {
        const auto stats = runBatch(arch, *prepared_->tracer, rays,
                                    *config_);
        EXPECT_EQ(stats.raysTraced, rays.size()) << archName(arch);
        EXPECT_GT(stats.cycles, 0u) << archName(arch);
        EXPECT_GT(stats.histogram.simdEfficiency(), 0.0) << archName(arch);
        EXPECT_LE(stats.histogram.simdEfficiency(), 1.0) << archName(arch);
    }
}

TEST_F(HarnessFixture, DrsBeatsAilaSimdEfficiencyOnSecondaryRays)
{
    const auto &rays = prepared_->trace.bounce(2).rays;
    const auto aila = runBatch(Arch::Aila, *prepared_->tracer, rays,
                               *config_);
    const auto drs = runBatch(Arch::Drs, *prepared_->tracer, rays,
                              *config_);
    EXPECT_GT(drs.histogram.simdEfficiency(),
              aila.histogram.simdEfficiency());
}

TEST_F(HarnessFixture, PrimaryRaysMoreEfficientThanSecondary)
{
    // Figure 2's core observation for the software baseline.
    const auto b1 = runBatch(Arch::Aila, *prepared_->tracer,
                             prepared_->trace.bounce(1).rays, *config_);
    const auto b2 = runBatch(Arch::Aila, *prepared_->tracer,
                             prepared_->trace.bounce(2).rays, *config_);
    EXPECT_GT(b1.histogram.simdEfficiency(),
              b2.histogram.simdEfficiency());
}

TEST_F(HarnessFixture, DmkReportsSpawnOverheadDrsDoesNot)
{
    const auto &rays = prepared_->trace.bounce(2).rays;
    const auto dmk = runBatch(Arch::Dmk, *prepared_->tracer, rays, *config_);
    const auto drs = runBatch(Arch::Drs, *prepared_->tracer, rays, *config_);
    EXPECT_GT(dmk.histogram.spawnFraction(), 0.0);
    EXPECT_EQ(drs.histogram.spawnFraction(), 0.0);
}

TEST_F(HarnessFixture, DrsReportsShuffleActivity)
{
    const auto &rays = prepared_->trace.bounce(2).rays;
    const auto drs = runBatch(Arch::Drs, *prepared_->tracer, rays, *config_);
    EXPECT_GT(drs.raySwapsCompleted, 0u);
    EXPECT_GT(drs.rdctrlIssued, 0u);
    EXPECT_GT(drs.rfAccessesShuffle, 0u);
    EXPECT_GT(drs.meanSwapCycles(), 0.0);
}

TEST_F(HarnessFixture, RunCaptureAggregatesBounces)
{
    const auto result = runCapture(Arch::Aila, *prepared_->tracer,
                                   prepared_->trace, *config_, 3);
    ASSERT_EQ(result.perBounce.size(), 3u);
    std::uint64_t rays = 0;
    std::uint64_t cycles = 0;
    for (const auto &b : result.perBounce) {
        rays += b.raysTraced;
        cycles += b.cycles;
    }
    EXPECT_EQ(result.overall.raysTraced, rays);
    EXPECT_EQ(result.overall.cycles, cycles);
    EXPECT_GT(result.overallMrays(0.98), 0.0);
}

TEST_F(HarnessFixture, IdealizedDrsAtLeastAsFastAsReal)
{
    const auto &rays = prepared_->trace.bounce(2).rays;
    RunConfig real = *config_;
    RunConfig ideal = *config_;
    ideal.drs.idealized = true;
    const auto r = runBatch(Arch::Drs, *prepared_->tracer, rays, real);
    const auto i = runBatch(Arch::Drs, *prepared_->tracer, rays, ideal);
    // Instant shuffling all but eliminates rdctrl issue stalls; raw
    // Mrays/s is too noisy to compare at this drain-dominated scale.
    EXPECT_LT(i.rdctrlStallRate(), r.rdctrlStallRate());
    EXPECT_LT(i.rdctrlStallRate(), 0.10);
}

TEST(ExperimentScale, EnvironmentOverrides)
{
    setenv("DRS_RAYS", "1234", 1);
    setenv("DRS_SCALE", "0.5", 1);
    setenv("DRS_SMX", "3", 1);
    const auto scale = ExperimentScale::fromEnvironment();
    EXPECT_EQ(scale.raysPerBounce, 1234u);
    EXPECT_FLOAT_EQ(scale.sceneScale, 0.5f);
    EXPECT_EQ(scale.numSmx, 3);
    unsetenv("DRS_RAYS");
    unsetenv("DRS_SCALE");
    unsetenv("DRS_SMX");
}

TEST(ExperimentScale, RejectsMalformedEnvironmentValues)
{
    const ExperimentScale defaults;
    // Not-a-number, trailing garbage, and non-positive values must all
    // be ignored (with a stderr warning) instead of silently becoming 0
    // or a truncated prefix.
    for (const char *bad : {"lots", "12oo", "-5", "0", "nan", ""}) {
        setenv("DRS_RAYS", bad, 1);
        setenv("DRS_SMX", bad, 1);
        const auto scale = ExperimentScale::fromEnvironment();
        EXPECT_EQ(scale.raysPerBounce, defaults.raysPerBounce)
            << "DRS_RAYS=\"" << bad << '"';
        EXPECT_EQ(scale.numSmx, defaults.numSmx)
            << "DRS_SMX=\"" << bad << '"';
    }
    unsetenv("DRS_RAYS");
    unsetenv("DRS_SMX");

    // Trailing whitespace is harmless and accepted.
    setenv("DRS_SMX", "5 ", 1);
    EXPECT_EQ(ExperimentScale::fromEnvironment().numSmx, 5);
    unsetenv("DRS_SMX");
}

} // namespace
} // namespace drs::harness
