/**
 * @file
 * Unit and correctness tests for the DMK and TBC baselines: both must
 * trace every ray to the same hit as the CPU reference, and their
 * characteristic overheads (spawn instructions, bank conflicts, block
 * compaction) must be visible in the statistics.
 */

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/dmk_control.h"
#include "baselines/tbc_smx.h"
#include "kernels/drs_kernel.h"
#include "bvh/builder.h"
#include "bvh/traverse.h"
#include "geom/rng.h"
#include "scene/scenes.h"
#include "simt/gpu.h"
#include "simt/smx.h"

namespace drs::baselines {
namespace {

using geom::Hit;
using geom::Ray;
using geom::Vec3;
using simt::TravState;

struct TestSetup
{
    scene::Scene scene = scene::makeTestScene();
    bvh::Bvh bvh;
    std::vector<Ray> rays;

    explicit TestSetup(int ray_count = 512, std::uint64_t seed = 41)
    {
        bvh = bvh::build(scene.triangles());
        geom::Pcg32 rng(seed);
        for (int i = 0; i < ray_count; ++i) {
            Ray ray;
            ray.origin = {rng.nextFloat(1, 9), rng.nextFloat(0.5f, 5.5f),
                          rng.nextFloat(1, 9)};
            ray.direction = geom::normalize(
                Vec3{rng.nextFloat(-1, 1), rng.nextFloat(-1, 1),
                     rng.nextFloat(-1, 1)});
            if (geom::lengthSquared(ray.direction) > 0)
                rays.push_back(ray);
        }
    }

    Hit reference(const Ray &ray) const
    {
        return bvh::intersect(bvh, scene.triangles(), ray);
    }
};

// ------------------------------------------------------------------ DMK

TEST(Dmk, TracesAllRaysCorrectly)
{
    TestSetup setup;
    kernels::DrsKernelConfig kernel_config;
    kernel_config.numWarps = 8;
    kernel_config.backupRows = 0;
    kernels::DrsKernel kernel(setup.bvh, setup.scene.triangles(), setup.rays,
                              0, kernel_config);
    DmkConfig config;
    DmkControl control(config, kernel.travWorkspace());
    simt::GpuConfig gpu;
    simt::SharedMemorySide shared(gpu.memory);
    simt::Smx smx(gpu, kernel, &control, kernel_config.numWarps, shared);
    control.attach(smx);
    smx.run(100'000'000);
    ASSERT_TRUE(smx.done());
    EXPECT_EQ(kernel.raysCompleted(), setup.rays.size());
    for (std::size_t i = 0; i < setup.rays.size(); ++i) {
        const Hit expected = setup.reference(setup.rays[i]);
        ASSERT_EQ(kernel.travWorkspace().results()[i].triangle,
                  expected.triangle)
            << "ray " << i;
    }
}

TEST(Dmk, SpawnsProduceSiInstructionsAndConflicts)
{
    TestSetup setup(1024, 43);
    kernels::DrsKernelConfig kernel_config;
    kernel_config.numWarps = 8;
    kernel_config.backupRows = 0;
    kernels::DrsKernel kernel(setup.bvh, setup.scene.triangles(), setup.rays,
                              0, kernel_config);
    DmkConfig config;
    DmkControl control(config, kernel.travWorkspace());
    simt::GpuConfig gpu;
    simt::SharedMemorySide shared(gpu.memory);
    simt::Smx smx(gpu, kernel, &control, kernel_config.numWarps, shared);
    control.attach(smx);
    smx.run(100'000'000);
    ASSERT_TRUE(smx.done());

    EXPECT_GT(control.stats().spawns, 0u);
    EXPECT_EQ(control.stats().raysDumped, control.stats().raysLoaded);
    const auto stats = smx.collectStats();
    EXPECT_GT(stats.histogram.spawnInstructions(), 0u);
    EXPECT_GT(stats.histogram.spawnFraction(), 0.0);
}

TEST(Dmk, PoolsDrainCompletely)
{
    TestSetup setup(700, 47);
    kernels::DrsKernelConfig kernel_config;
    kernel_config.numWarps = 4;
    kernel_config.backupRows = 0;
    kernels::DrsKernel kernel(setup.bvh, setup.scene.triangles(), setup.rays,
                              0, kernel_config);
    DmkConfig config;
    DmkControl control(config, kernel.travWorkspace());
    simt::GpuConfig gpu;
    simt::SharedMemorySide shared(gpu.memory);
    simt::Smx smx(gpu, kernel, &control, kernel_config.numWarps, shared);
    control.attach(smx);
    smx.run(100'000'000);
    ASSERT_TRUE(smx.done());
    EXPECT_EQ(control.pooledRays(TravState::Inner), 0u);
    EXPECT_EQ(control.pooledRays(TravState::Leaf), 0u);
    EXPECT_EQ(kernel.raysCompleted(), setup.rays.size());
}

TEST(Dmk, ConflictCostZeroForConflictFreeSlots)
{
    TestSetup setup(32);
    kernels::DrsKernelConfig kernel_config;
    kernel_config.numWarps = 1;
    kernel_config.backupRows = 0;
    kernels::DrsKernel kernel(setup.bvh, setup.scene.triangles(), setup.rays,
                              0, kernel_config);
    DmkConfig config;
    config.spawnBanks = 32;
    DmkControl control(config, kernel.travWorkspace());
    // 32 consecutive slots map to 32 distinct banks: no conflicts.
    // (Indirectly validated through a full run with one warp, where dump
    // slabs are contiguous.)
    simt::GpuConfig gpu;
    simt::SharedMemorySide shared(gpu.memory);
    simt::Smx smx(gpu, kernel, &control, 1, shared);
    control.attach(smx);
    smx.run(100'000'000);
    ASSERT_TRUE(smx.done());
}

TEST(Dmk, ConflictCostMatchesPerVariableReference)
{
    // The reference: one bank histogram per ray variable, variable v of
    // slot s in bank (s + v) % banks, summing (worst - 1) over them.
    const auto reference = [](const std::vector<int> &slots, int banks,
                              int variables) {
        std::uint32_t total = 0;
        for (int var = 0; var < variables; ++var) {
            std::vector<int> population(static_cast<std::size_t>(banks), 0);
            int worst = 0;
            for (const int slot : slots)
                worst = std::max(worst, ++population[static_cast<std::size_t>(
                                            (slot + var) % banks)]);
            total += static_cast<std::uint32_t>(worst - 1);
        }
        return total;
    };

    TestSetup setup(32);
    kernels::DrsKernelConfig kernel_config;
    kernel_config.numWarps = 1;
    kernel_config.backupRows = 0;
    kernels::DrsKernel kernel(setup.bvh, setup.scene.triangles(), setup.rays,
                              0, kernel_config);
    geom::Pcg32 rng(97);
    for (const int banks : {1, 2, 7, 16, 32, 33}) {
        for (const int variables : {1, 5, 17}) {
            DmkConfig config;
            config.spawnBanks = banks;
            config.cost.rayVariables = variables;
            DmkControl control(config, kernel.travWorkspace());
            for (int trial = 0; trial < 50; ++trial) {
                std::vector<int> slots(1 + rng.nextUInt(32));
                for (int &slot : slots)
                    slot = static_cast<int>(rng.nextUInt(200));
                EXPECT_EQ(control.conflictCost(slots),
                          reference(slots, banks, variables))
                    << banks << " banks, " << variables << " variables, "
                    << slots.size() << " slots";
            }
        }
    }
}

// ------------------------------------------------------------------ TBC

TEST(Tbc, TracesAllRaysCorrectly)
{
    TestSetup setup;
    TbcConfig config;
    config.numWarps = 12;
    config.warpsPerBlock = 6;
    kernels::AilaConfig aila;
    aila.numWarps = config.numWarps;
    kernels::AilaKernel kernel(setup.bvh, setup.scene.triangles(),
                               setup.rays, 0, aila);
    simt::GpuConfig gpu;
    simt::SharedMemorySide shared(gpu.memory);
    TbcSmx smx(gpu, config, kernel, shared);
    smx.run(200'000'000);
    ASSERT_TRUE(smx.done());
    EXPECT_EQ(kernel.raysCompleted(), setup.rays.size());
    for (std::size_t i = 0; i < setup.rays.size(); ++i) {
        const Hit expected = setup.reference(setup.rays[i]);
        ASSERT_EQ(kernel.travWorkspace().results()[i].triangle,
                  expected.triangle)
            << "ray " << i;
    }
}

TEST(Tbc, RejectsIndivisibleWarpCount)
{
    TestSetup setup(32);
    TbcConfig config;
    config.numWarps = 7; // not divisible by warpsPerBlock = 6
    kernels::AilaConfig aila;
    aila.numWarps = config.numWarps;
    kernels::AilaKernel kernel(setup.bvh, setup.scene.triangles(),
                               setup.rays, 0, aila);
    simt::GpuConfig gpu;
    simt::SharedMemorySide shared(gpu.memory);
    EXPECT_THROW(TbcSmx(gpu, config, kernel, shared),
                 std::invalid_argument);
}

TEST(Tbc, RejectsZeroWarpCounts)
{
    TestSetup setup(32);
    kernels::AilaConfig aila;
    kernels::AilaKernel kernel(setup.bvh, setup.scene.triangles(),
                               setup.rays, 0, aila);
    simt::GpuConfig gpu;
    simt::SharedMemorySide shared(gpu.memory);
    TbcConfig no_block_warps;
    no_block_warps.warpsPerBlock = 0; // used to divide by zero
    EXPECT_THROW(TbcSmx(gpu, no_block_warps, kernel, shared),
                 std::invalid_argument);
    TbcConfig no_warps;
    no_warps.numWarps = 0; // used to run no blocks and finish at cycle 0
    EXPECT_THROW(TbcSmx(gpu, no_warps, kernel, shared),
                 std::invalid_argument);
}

TEST(Tbc, StatsPopulated)
{
    TestSetup setup(1024, 53);
    TbcConfig config;
    config.numWarps = 12;
    kernels::AilaConfig aila;
    aila.numWarps = config.numWarps;
    kernels::AilaKernel kernel(setup.bvh, setup.scene.triangles(),
                               setup.rays, 0, aila);
    simt::GpuConfig gpu;
    simt::SharedMemorySide shared(gpu.memory);
    TbcSmx smx(gpu, config, kernel, shared);
    smx.run(200'000'000);
    const auto stats = smx.collectStats();
    EXPECT_GT(stats.cycles, 0u);
    EXPECT_GT(stats.histogram.instructions(), 0u);
    EXPECT_EQ(stats.raysTraced, setup.rays.size());
    EXPECT_GT(stats.l1Texture.accesses, 0u);
}

TEST(Tbc, GpuDriverAggregatesAcrossSmxs)
{
    TestSetup setup(1024, 59);
    simt::GpuConfig gpu;
    gpu.numSmx = 3;
    TbcConfig config;
    config.numWarps = 12;
    auto stats = simt::runGpu(gpu, [&](int smx) {
        auto [first, count] =
            simt::rayStripe(setup.rays.size(), gpu.numSmx, smx);
        kernels::AilaConfig aila;
        aila.numWarps = config.numWarps;
        // The kernel keeps a view of its stripe, so it must be a view of
        // rays that outlive the run.
        auto kernel = std::make_unique<kernels::AilaKernel>(
            setup.bvh, setup.scene.triangles(),
            std::span<const Ray>(setup.rays).subspan(first, count), first,
            aila);
        simt::SmxSetup unit;
        unit.executor = [&config, &aila_kernel = *kernel](
                            const simt::GpuConfig &gpu_config,
                            simt::SharedMemorySide &shared) {
            return std::make_unique<TbcSmx>(gpu_config, config, aila_kernel,
                                            shared);
        };
        unit.kernel = std::move(kernel);
        return unit;
    });
    EXPECT_EQ(stats.raysTraced, setup.rays.size());
    EXPECT_GT(stats.histogram.simdEfficiency(), 0.0);
}

} // namespace
} // namespace drs::baselines
