/**
 * @file
 * Determinism regression tests for the cycle engine and the sweep
 * runner: the event-driven engine must match stepping every SMX every
 * cycle by hand, and running sweeps on a thread pool (SweepRunner
 * jobs > 1) must produce SimStats that are field-for-field identical to
 * running the same jobs one at a time. The first guarantee rests on the
 * engine stepping the SMXs due in a cycle in index order, which orders
 * their L2 accesses (see DESIGN.md, "Parallel execution model").
 */

#include <memory>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/dmk_control.h"
#include "baselines/ser_control.h"
#include "baselines/tbc_smx.h"
#include "check/check.h"
#include "core/drs_control.h"
#include "harness/harness.h"
#include "harness/sweep.h"
#include "kernels/aila_kernel.h"
#include "kernels/drs_kernel.h"
#include "kernels/pathpred_kernel.h"
#include "kernels/ser_kernel.h"
#include "simt/engine.h"

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
    scale.numSmx = 4; // > 1 so SMXs share the L2
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

    static RunConfig makeConfig()
    {
        RunConfig config;
        config.gpu.numSmx = testScale().numSmx;
        return config;
    }

    static std::span<const geom::Ray> bounceRays(int bounce)
    {
        return prepared_->trace.bounce(bounce).rays;
    }

    static PreparedScene *prepared_;
};

PreparedScene *ParallelFixture::prepared_ = nullptr;

/**
 * One SMX's kernel and controller for @p arch over @p stripe, built as
 * the arch's plugin builds them (arch_builtin.cc, arch_survey.cc).
 */
simt::SmxSetup
handBuiltSetup(const std::string &arch, const render::PathTracer &tracer,
               std::span<const geom::Ray> stripe, std::size_t first,
               const RunConfig &config)
{
    simt::SmxSetup setup;
    if (arch == "aila") {
        setup.kernel = std::make_unique<kernels::AilaKernel>(
            tracer.bvh(), tracer.sceneTriangles(), stripe, first,
            config.aila);
        setup.numWarps = config.aila.numWarps;
    } else if (arch == "pathpred") {
        setup.kernel = std::make_unique<kernels::PathPredKernel>(
            tracer.bvh(), tracer.sceneTriangles(), stripe, first,
            config.pathpred);
        setup.numWarps = config.pathpred.numWarps;
    } else if (arch == "drs" || arch == "dmk") {
        kernels::DrsKernelConfig kernel_config;
        kernel_config.numWarps = arch == "drs" ? config.drs.spawnableWarps()
                                               : config.dmk.numWarps;
        kernel_config.backupRows = arch == "drs" ? config.drs.backupRows : 0;
        auto kernel = std::make_unique<kernels::DrsKernel>(
            tracer.bvh(), tracer.sceneTriangles(), stripe, first,
            kernel_config);
        setup.numWarps = kernel_config.numWarps;
        if (arch == "drs")
            setup.controller = std::make_unique<core::DrsControl>(
                config.drs, kernel->workspace(), kernel_config.numWarps);
        else
            setup.controller = std::make_unique<baselines::DmkControl>(
                config.dmk, kernel->travWorkspace());
        setup.kernel = std::move(kernel);
    } else if (arch == "tbc") {
        kernels::AilaConfig aila = config.aila;
        aila.numWarps = config.tbc.numWarps;
        auto kernel = std::make_unique<kernels::AilaKernel>(
            tracer.bvh(), tracer.sceneTriangles(), stripe, first, aila);
        setup.executor = [&tbc = config.tbc, &aila_kernel = *kernel](
                             const simt::GpuConfig &gpu,
                             simt::SharedMemorySide &shared) {
            return std::make_unique<baselines::TbcSmx>(gpu, tbc, aila_kernel,
                                                       shared);
        };
        setup.kernel = std::move(kernel);
    } else if (arch == "ser") {
        kernels::SerKernelConfig kernel_config;
        kernel_config.numWarps = config.ser.numWarps;
        kernel_config.cutSize = config.ser.cutSize;
        auto kernel = std::make_unique<kernels::SerKernel>(
            tracer.bvh(), tracer.sceneTriangles(), stripe, first,
            kernel_config);
        setup.numWarps = kernel_config.numWarps;
        setup.controller =
            std::make_unique<baselines::SerControl>(config.ser, *kernel);
        setup.kernel = std::move(kernel);
    }
    return setup;
}

/**
 * Run @p arch over @p rays on two SMXs sharing one L2: through runEngine's
 * event-driven loop, or (@p per_cycle) by stepping every live SMX in
 * index order every cycle. Returns each SMX's SimStats and, last, the
 * L2's.
 */
std::vector<simt::SimStats>
runTwoSmx(const std::string &arch, const render::PathTracer &tracer,
          std::span<const geom::Ray> rays, bool per_cycle,
          const simt::CheckContext *check)
{
    constexpr int kSmx = 2;
    RunConfig config;
    config.gpu.numSmx = kSmx;
    // Caches far smaller than the BVH: most accesses reach the L2, and
    // the two SMXs evict each other's lines there, so the order of their
    // same-cycle accesses shows in every architecture's stats. With the
    // Table 1 caches the L1s absorb almost all of TBC's.
    simt::MemoryConfig &memory = config.gpu.memory;
    memory.l1Data.sizeBytes = 3 * 1024;
    memory.l1Texture.sizeBytes = 3 * 1024;
    memory.l2.sizeBytes = 24 * 1024;
    simt::SharedMemorySide shared(memory);
    std::vector<simt::SmxSetup> setups;
    std::vector<std::unique_ptr<simt::SmxExecutor>> owned;
    std::vector<simt::SmxExecutor *> smxs;
    for (int i = 0; i < kSmx; ++i) {
        const auto [first, count] =
            simt::rayStripe(rays.size(), kSmx, i, config.gpu.simdLanes);
        setups.push_back(handBuiltSetup(arch, tracer,
                                        rays.subspan(first, count), first,
                                        config));
        simt::SmxSetup &setup = setups.back();
        if (setup.executor) {
            owned.push_back(setup.executor(config.gpu, shared));
        } else {
            auto smx = std::make_unique<simt::Smx>(
                config.gpu, *setup.kernel, setup.controller.get(),
                setup.numWarps, shared);
            if (setup.controller)
                setup.controller->attach(*smx);
            owned.push_back(std::move(smx));
        }
        owned.back()->setCheck(check);
        smxs.push_back(owned.back().get());
    }

    if (per_cycle) {
        for (std::uint64_t cycle = 0;; ++cycle) {
            if (cycle >= config.maxCycles)
                throw std::runtime_error("per-cycle reference ran away");
            bool live = false;
            for (simt::SmxExecutor *smx : smxs) {
                if (!smx->done()) {
                    smx->step();
                    live = true;
                }
            }
            if (!live)
                break;
        }
    } else {
        simt::runEngine(smxs, config.maxCycles);
    }

    std::vector<simt::SimStats> stats;
    for (simt::SmxExecutor *smx : smxs)
        stats.push_back(smx->collectStats());
    stats.emplace_back().l2 = shared.l2Stats();
    return stats;
}

TEST_F(ParallelFixture, EventEngineMatchesPerCycleStepping)
{
    // The incoherent second bounce exercises the memory system (and the
    // DRS shuffle machinery) much harder than primaries do.
    const auto rays = bounceRays(2);
    const check::Checker checker;
    for (const std::string arch :
         {"aila", "dmk", "drs", "ser", "pathpred", "tbc"}) {
        for (const simt::CheckContext *check :
             {static_cast<const simt::CheckContext *>(nullptr),
              static_cast<const simt::CheckContext *>(&checker)}) {
            const auto reference =
                runTwoSmx(arch, *prepared_->tracer, rays, true, check);
            const auto events =
                runTwoSmx(arch, *prepared_->tracer, rays, false, check);
            ASSERT_EQ(reference.size(), events.size());
            for (std::size_t i = 0; i < reference.size(); ++i)
                EXPECT_EQ(reference[i], events[i])
                    << arch << (check ? " checked" : "") << ", stats " << i
                    << ": the event engine diverged from per-cycle "
                       "stepping";
            EXPECT_GT(reference[0].raysTraced, 0u) << arch;
            EXPECT_GT(reference[0].cycles, 0u) << arch;
            // Stalled warps sleep until the swap engine or the rows may
            // have changed: the drs leg must exercise that rule.
            if (arch == "drs") {
                EXPECT_GT(reference[0].rdctrlStallCycles, 0u);
            }
        }
    }
}

TEST_F(ParallelFixture, SweepParallelismIsBitIdentical)
{
    auto build_jobs = [](SweepRunner &runner) {
        for (const Arch &arch : kAllArchs)
            for (const int bounce : {1, 2}) {
                SweepJob job;
                job.scene = scene::SceneId::Conference;
                job.arch = arch;
                job.config = makeConfig();
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

TEST_F(ParallelFixture, ConcurrentSweepJobsMatchDirectRun)
{
    // Two identical jobs on a two-thread sweep against one direct
    // runBatch of the same batch.
    const auto reference =
        runBatch(Arch::Drs, *prepared_->tracer, bounceRays(2), makeConfig());

    SweepRunner runner(testScale(), 2);
    SweepJob job;
    job.scene = scene::SceneId::Conference;
    job.arch = Arch::Drs;
    job.config = makeConfig();
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
                                   prepared_->trace, makeConfig(), 2);

    SweepRunner runner(testScale(), 2);
    const auto indices = runner.addCapture(scene::SceneId::Conference,
                                           Arch::Aila, makeConfig(), 2);
    const auto capture = collectCapture(runner.run(), indices);

    ASSERT_EQ(capture.perBounce.size(), direct.perBounce.size());
    for (std::size_t b = 0; b < direct.perBounce.size(); ++b)
        EXPECT_EQ(capture.perBounce[b], direct.perBounce[b]);
    EXPECT_EQ(capture.overall, direct.overall);
}

} // namespace
} // namespace drs::harness
