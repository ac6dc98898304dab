/**
 * @file
 * Determinism regression tests for the parallel execution engine: for
 * every architecture, running the simulator with concurrent SMX stepping
 * (RunConfig::smxThreads > 1) or running sweeps on a thread pool
 * (SweepRunner jobs > 1) must produce SimStats that are field-for-field
 * identical to the sequential engine. The guarantee rests on the
 * cycle-barrier commit of shared-side memory requests in SMX-index order
 * (see DESIGN.md, "Parallel execution model").
 */

#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "harness/harness.h"
#include "harness/sweep.h"

namespace drs::harness {
namespace {

ExperimentScale
testScale()
{
    ExperimentScale scale;
    scale.sceneScale = 0.15f;
    scale.width = 128;
    scale.height = 96;
    scale.samplesPerPixel = 1;
    scale.raysPerBounce = 4096;
    scale.numSmx = 4; // > 1 so the parallel engine actually fans out
    return scale;
}

const std::vector<Arch> kAllArchs = {Arch::Aila, Arch::Drs, Arch::Dmk,
                                     Arch::Tbc};

/** Conference at tiny scale, shared by every test in this file. */
class ParallelFixture : public ::testing::Test
{
  protected:
    static void SetUpTestSuite()
    {
        prepared_ = new PreparedScene(
            prepareScene(scene::SceneId::Conference, testScale()));
    }

    static void TearDownTestSuite()
    {
        delete prepared_;
        prepared_ = nullptr;
    }

    static RunConfig makeConfig(int smx_threads)
    {
        RunConfig config;
        config.gpu.numSmx = testScale().numSmx;
        config.smxThreads = smx_threads;
        return config;
    }

    static std::span<const geom::Ray> bounceRays(int bounce)
    {
        return prepared_->trace.bounce(bounce).rays;
    }

    static PreparedScene *prepared_;
};

PreparedScene *ParallelFixture::prepared_ = nullptr;

TEST_F(ParallelFixture, SmxParallelismIsBitIdentical)
{
    // The incoherent second bounce exercises the memory system (and the
    // DRS shuffle machinery) much harder than primaries do.
    for (const Arch &arch : kAllArchs) {
        for (const int bounce : {1, 2}) {
            const auto sequential = runBatch(arch, *prepared_->tracer,
                                             bounceRays(bounce),
                                             makeConfig(1));
            const auto parallel = runBatch(arch, *prepared_->tracer,
                                           bounceRays(bounce),
                                           makeConfig(4));
            EXPECT_EQ(sequential, parallel)
                << archName(arch) << " bounce " << bounce
                << ": smxThreads=4 diverged from the sequential engine";
            EXPECT_GT(parallel.raysTraced, 0u);
        }
    }
}

TEST_F(ParallelFixture, SmxThreadsBeyondSmxCountStillIdentical)
{
    const auto sequential =
        runBatch(Arch::Drs, *prepared_->tracer, bounceRays(1), makeConfig(1));
    const auto oversubscribed =
        runBatch(Arch::Drs, *prepared_->tracer, bounceRays(1),
                 makeConfig(64));
    EXPECT_EQ(sequential, oversubscribed);
}

TEST_F(ParallelFixture, SweepParallelismIsBitIdentical)
{
    auto build_jobs = [](SweepRunner &runner) {
        for (const Arch &arch : kAllArchs)
            for (const int bounce : {1, 2}) {
                SweepJob job;
                job.scene = scene::SceneId::Conference;
                job.arch = arch;
                job.config = makeConfig(1);
                job.bounce = bounce;
                runner.add(job);
            }
    };

    SweepRunner serial(testScale(), 1);
    build_jobs(serial);
    const auto serial_results = serial.run();

    SweepRunner concurrent(testScale(), 4);
    build_jobs(concurrent);
    const auto concurrent_results = concurrent.run();

    ASSERT_EQ(serial_results.size(), concurrent_results.size());
    for (std::size_t i = 0; i < serial_results.size(); ++i) {
        EXPECT_TRUE(serial_results[i].ran);
        EXPECT_TRUE(concurrent_results[i].ran);
        EXPECT_EQ(serial_results[i].stats, concurrent_results[i].stats)
            << "sweep job " << i << " diverged between jobs=1 and jobs=4";
    }

    // One scene, one scale: the cache must have built it exactly once
    // per runner no matter how many jobs raced for it.
    EXPECT_EQ(serial.cacheMisses(), 1u);
    EXPECT_EQ(concurrent.cacheMisses(), 1u);
    EXPECT_EQ(concurrent.cacheHits(), serial_results.size() - 1);
}

TEST_F(ParallelFixture, SweepAndSmxParallelismCompose)
{
    // Both levels at once (jobs > 1 AND smxThreads > 1) against the
    // fully sequential reference.
    const auto reference =
        runBatch(Arch::Drs, *prepared_->tracer, bounceRays(2),
                 makeConfig(1));

    SweepRunner runner(testScale(), 2);
    SweepJob job;
    job.scene = scene::SceneId::Conference;
    job.arch = Arch::Drs;
    job.config = makeConfig(2);
    job.bounce = 2;
    const std::size_t a = runner.add(job);
    const std::size_t b = runner.add(job);
    const auto results = runner.run();

    EXPECT_EQ(results[a].stats, reference);
    EXPECT_EQ(results[b].stats, reference);
}

TEST_F(ParallelFixture, CollectCaptureMatchesRunCapture)
{
    const auto direct = runCapture(Arch::Aila, *prepared_->tracer,
                                   prepared_->trace, makeConfig(1), 2);

    SweepRunner runner(testScale(), 2);
    const auto indices = runner.addCapture(scene::SceneId::Conference,
                                           Arch::Aila, makeConfig(1), 2);
    const auto capture = collectCapture(runner.run(), indices);

    ASSERT_EQ(capture.perBounce.size(), direct.perBounce.size());
    for (std::size_t b = 0; b < direct.perBounce.size(); ++b)
        EXPECT_EQ(capture.perBounce[b], direct.perBounce[b]);
    EXPECT_EQ(capture.overall, direct.overall);
}

} // namespace
} // namespace drs::harness
