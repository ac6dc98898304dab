/**
 * @file
 * Cycle-attribution profiler tests: the issue-slot ledger's conservation
 * invariant (unit-level and end-to-end on real runs of every
 * architecture), the pure-observer contract (SimStats bit-identical with
 * sampling/attribution on or off), and the windowed sampler's bounded
 * timeline (pairwise coalescing, frames that tile the run).
 */

#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "harness/harness.h"
#include "obs/attribution.h"
#include "obs/sampler.h"

namespace drs::harness {
namespace {

using obs::IssueAttribution;
using obs::SlotBucket;
using obs::TimeSampler;
using obs::TravPhase;

TEST(IssueAttributionUnit, RecordsTotalsAndConserves)
{
    IssueAttribution ledger;
    ledger.enable(8);
    ASSERT_TRUE(ledger.enabled());

    for (int cycle = 0; cycle < 3; ++cycle) {
        ledger.record(SlotBucket::IssuedFull, TravPhase::Inner, 4);
        ledger.record(SlotBucket::IssuedPartial, TravPhase::Leaf, 2);
        ledger.record(SlotBucket::StalledRdctrl, TravPhase::None, 1);
        ledger.record(SlotBucket::NoReadyWarp, TravPhase::None, 1);
        ledger.endCycle();
    }

    EXPECT_EQ(ledger.cycles(), 3u);
    EXPECT_EQ(ledger.totalSlots(), 24u);
    EXPECT_EQ(ledger.bucketTotal(SlotBucket::IssuedFull), 12u);
    EXPECT_EQ(ledger.count(SlotBucket::IssuedPartial, TravPhase::Leaf), 6u);
    EXPECT_EQ(ledger.count(SlotBucket::IssuedPartial, TravPhase::Inner), 0u);
    EXPECT_NO_THROW(ledger.verifyConservation());
}

TEST(IssueAttributionUnit, EndCycleMismatchThrows)
{
    IssueAttribution ledger;
    ledger.enable(8);
    ledger.record(SlotBucket::IssuedFull, TravPhase::Inner, 7);
    EXPECT_THROW(ledger.endCycle(), std::logic_error);

    IssueAttribution over;
    over.enable(8);
    over.record(SlotBucket::IssuedFull, TravPhase::Inner, 9);
    EXPECT_THROW(over.endCycle(), std::logic_error);
}

TEST(IssueAttributionUnit, UnclosedCycleFailsConservation)
{
    IssueAttribution ledger;
    ledger.enable(8);
    ledger.record(SlotBucket::Drained, TravPhase::None, 3);
    // Slots recorded but the cycle never closed: the ledger is mid-cycle
    // and must refuse to pass an end-to-end audit.
    EXPECT_THROW(ledger.verifyConservation(), std::logic_error);
}

TEST(IssueAttributionUnit, MergeAddsLedgers)
{
    IssueAttribution a, b;
    a.enable(4);
    b.enable(4);
    a.record(SlotBucket::IssuedFull, TravPhase::Fetch, 4);
    a.endCycle();
    b.record(SlotBucket::StalledMemory, TravPhase::Leaf, 4);
    b.endCycle();

    a.merge(b);
    EXPECT_EQ(a.cycles(), 2u);
    EXPECT_EQ(a.totalSlots(), 8u);
    EXPECT_EQ(a.bucketTotal(SlotBucket::StalledMemory), 4u);
    EXPECT_NO_THROW(a.verifyConservation());
}

TEST(TimeSamplerUnit, ClosesWindowsAtInterval)
{
    TimeSampler sampler;
    sampler.enable(10, 64, nullptr);
    for (std::uint64_t cycle = 1; cycle <= 25; ++cycle)
        sampler.tick(cycle * 3, cycle * 60, cycle / 5);

    const auto frames = sampler.frames();
    ASSERT_EQ(frames.size(), 3u); // two closed + one partial
    EXPECT_EQ(frames[0].begin, 0u);
    EXPECT_EQ(frames[0].end, 10u);
    EXPECT_EQ(frames[1].begin, 10u);
    EXPECT_EQ(frames[2].end, 25u);
    // Deltas must tile the cumulative series.
    EXPECT_EQ(frames[0].instructions + frames[1].instructions +
                  frames[2].instructions,
              75u);
}

TEST(TimeSamplerUnit, CoalescesPairwiseAndDoublesInterval)
{
    TimeSampler sampler;
    sampler.enable(4, 8, nullptr);
    const std::uint64_t cycles = 400;
    for (std::uint64_t cycle = 1; cycle <= cycles; ++cycle)
        sampler.tick(cycle * 2, cycle * 32, cycle);

    // 100 base windows into a budget of 8: the interval must have doubled
    // until everything fit, and the frames still tile the whole run.
    EXPECT_GT(sampler.interval(), 4u);
    EXPECT_EQ(sampler.interval() % 4, 0u);
    const auto frames = sampler.frames();
    ASSERT_FALSE(frames.empty());
    EXPECT_LE(frames.size(), 8u);
    std::uint64_t instructions = 0, previous_end = 0;
    for (const auto &frame : frames) {
        EXPECT_EQ(frame.begin, previous_end);
        previous_end = frame.end;
        instructions += frame.instructions;
    }
    EXPECT_EQ(previous_end, cycles);
    EXPECT_EQ(instructions, cycles * 2);
}

ExperimentScale
testScale()
{
    ExperimentScale scale;
    scale.sceneScale = 0.15f;
    scale.width = 128;
    scale.height = 96;
    scale.samplesPerPixel = 1;
    scale.raysPerBounce = 4096;
    scale.numSmx = 4;
    return scale;
}

const std::vector<Arch> kAllArchs = {
    Arch::Aila, Arch::Drs, Arch::Dmk,
    Arch::Tbc};

class AttributionFixture : public ::testing::Test
{
  protected:
    static void SetUpTestSuite()
    {
        prepared_ = new PreparedScene(prepareScene(
            scene::SceneId::Conference, testScale()));
    }

    static void TearDownTestSuite()
    {
        delete prepared_;
        prepared_ = nullptr;
    }

    static RunConfig makeConfig()
    {
        RunConfig config;
        config.gpu.numSmx = testScale().numSmx;
        return config;
    }

    static RunConfig sampledConfig(RunObservations *out)
    {
        RunConfig config = makeConfig();
        config.sample.enabled = true;
        config.sample.interval = 64;
        config.observationsOut = out;
        return config;
    }

    static std::span<const geom::Ray> bounceRays(int bounce)
    {
        return prepared_->trace.bounce(bounce).rays;
    }

    static PreparedScene *prepared_;
};

PreparedScene *AttributionFixture::prepared_ = nullptr;

TEST_F(AttributionFixture, ConservationHoldsOnEveryArch)
{
    // The second bounce diverges hard — the interesting case for slot
    // accounting. check = 1 additionally runs the ledger audit inside
    // every SMX's collectStats.
    for (const Arch &arch : kAllArchs) {
        RunObservations observations;
        RunConfig config = sampledConfig(&observations);
        config.check = 1;
        const auto stats = runBatch(arch, *prepared_->tracer,
                                             bounceRays(2), config);
        ASSERT_NE(observations.attribution, nullptr)
            << archName(arch);

        const obs::IssueAttribution merged =
            observations.attribution->merged();
        EXPECT_NO_THROW(merged.verifyConservation())
            << archName(arch);
        EXPECT_GT(merged.cycles(), 0u);
        EXPECT_EQ(merged.totalSlots(),
                  merged.cycles() *
                      static_cast<std::uint64_t>(merged.slotsPerCycle()));

        // Issued slots are exactly the instructions the histogram saw.
        EXPECT_EQ(merged.bucketTotal(SlotBucket::IssuedFull) +
                      merged.bucketTotal(SlotBucket::IssuedPartial),
                  stats.histogram.instructions())
            << archName(arch);
    }
}

TEST_F(AttributionFixture, SamplingIsPureObserver)
{
    for (const Arch &arch : kAllArchs) {
        const auto baseline = runBatch(arch, *prepared_->tracer,
                                       bounceRays(2), makeConfig());
        RunObservations observations;
        const auto sampled = runBatch(arch, *prepared_->tracer,
                                      bounceRays(2),
                                      sampledConfig(&observations));
        EXPECT_EQ(baseline, sampled)
            << archName(arch) << ": sampling changed the simulation";
        EXPECT_NE(observations.sampler, nullptr);
    }
}

TEST_F(AttributionFixture, TimelineTilesTheRun)
{
    RunObservations observations;
    const auto stats =
        runBatch(Arch::Drs, *prepared_->tracer,
                          bounceRays(1), sampledConfig(&observations));
    ASSERT_NE(observations.sampler, nullptr);

    // The merged timeline accounts for every instruction and completed
    // ray of the whole GPU, with contiguous windows.
    std::uint64_t instructions = 0, rays = 0;
    const auto frames = observations.sampler->mergedFrames();
    ASSERT_FALSE(frames.empty());
    for (const auto &frame : frames) {
        EXPECT_LE(frame.begin, frame.end);
        instructions += frame.instructions;
        rays += frame.raysCompleted;
    }
    EXPECT_EQ(instructions, stats.histogram.instructions());
    EXPECT_EQ(rays, stats.raysTraced);
}

} // namespace
} // namespace drs::harness
