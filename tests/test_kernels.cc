/**
 * @file
 * Unit tests for the traversal workspace semantics and the two kernels'
 * correctness: every ray traced through the simulated SMX must produce
 * exactly the hit the CPU reference traversal finds.
 */

#include <gtest/gtest.h>

#include "bvh/builder.h"
#include "bvh/traverse.h"
#include "core/drs_control.h"
#include "geom/rng.h"
#include "kernels/aila_kernel.h"
#include "kernels/drs_kernel.h"
#include "render/path_tracer.h"
#include "scene/scenes.h"
#include "simt/smx.h"

namespace drs::kernels {
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

    explicit TestSetup(int ray_count = 256, std::uint64_t seed = 7)
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

// ------------------------------------------------------------ Workspace

TEST(TravWorkspace, FetchInitializesSlot)
{
    TestSetup setup;
    TravWorkspace ws(setup.bvh, setup.scene.triangles(), setup.rays, 0, 4,
                     32);
    EXPECT_EQ(ws.state(0, 0), TravState::Fetch);
    ASSERT_TRUE(ws.fetchStep(0, 0));
    EXPECT_EQ(ws.state(0, 0), TravState::Inner);
    EXPECT_EQ(ws.slot(0, 0).rayId, 0);
    ASSERT_TRUE(ws.fetchStep(0, 1));
    EXPECT_EQ(ws.slot(0, 1).rayId, 1);
    EXPECT_EQ(ws.poolRemaining(), setup.rays.size() - 2);
}

TEST(TravWorkspace, PoolExhaustion)
{
    TestSetup setup(3);
    TravWorkspace ws(setup.bvh, setup.scene.triangles(), setup.rays, 0, 1,
                     32);
    EXPECT_TRUE(ws.fetchStep(0, 0));
    EXPECT_TRUE(ws.fetchStep(0, 1));
    EXPECT_TRUE(ws.fetchStep(0, 2));
    EXPECT_FALSE(ws.fetchStep(0, 3));
    EXPECT_TRUE(ws.poolEmpty());
}

TEST(TravWorkspace, SingleThreadedTraversalMatchesReference)
{
    TestSetup setup(128);
    TravWorkspace ws(setup.bvh, setup.scene.triangles(), setup.rays, 0, 1,
                     32);
    // Drive one slot through the full state machine for each ray.
    for (std::size_t i = 0; i < setup.rays.size(); ++i) {
        ASSERT_TRUE(ws.fetchStep(0, 0));
        int guard = 0;
        while (ws.state(0, 0) != TravState::Fetch && guard++ < 100000) {
            if (ws.state(0, 0) == TravState::Inner) {
                ws.innerStep(0, 0);
            } else {
                ASSERT_TRUE(ws.leafHasWork(0, 0));
                ws.leafStep(0, 0);
            }
        }
        ASSERT_LT(guard, 100000);
    }
    EXPECT_EQ(ws.raysCompleted(), setup.rays.size());
    for (std::size_t i = 0; i < setup.rays.size(); ++i) {
        const Hit expected = setup.reference(setup.rays[i]);
        const Hit &actual = ws.results()[i];
        ASSERT_EQ(actual.triangle, expected.triangle) << "ray " << i;
        if (expected.valid()) {
            ASSERT_NEAR(actual.t, expected.t, 1e-5f) << "ray " << i;
        }
    }
}

TEST(TravWorkspace, MoveAndSwapPreservePayload)
{
    TestSetup setup;
    TravWorkspace ws(setup.bvh, setup.scene.triangles(), setup.rays, 0, 4,
                     32);
    ws.fetchStep(0, 0);
    ws.fetchStep(0, 1);
    const auto id0 = ws.slot(0, 0).rayId;
    const auto id1 = ws.slot(0, 1).rayId;

    ws.moveRay(0, 0, 2, 5);
    EXPECT_EQ(ws.state(0, 0), TravState::Fetch);
    EXPECT_EQ(ws.slot(2, 5).rayId, id0);

    ws.swapRays(0, 1, 2, 5);
    EXPECT_EQ(ws.slot(0, 1).rayId, id0);
    EXPECT_EQ(ws.slot(2, 5).rayId, id1);
    EXPECT_EQ(ws.liveRays(), 2u);
}

TEST(TravWorkspace, DeferLeafStillFindsClosestHit)
{
    TestSetup setup(200, 11);
    TravWorkspace ws(setup.bvh, setup.scene.triangles(), setup.rays, 0, 1,
                     32);
    for (std::size_t i = 0; i < setup.rays.size(); ++i) {
        ASSERT_TRUE(ws.fetchStep(0, 0));
        int guard = 0;
        bool defer_next = true;
        while (ws.state(0, 0) != TravState::Fetch && guard++ < 100000) {
            if (ws.state(0, 0) == TravState::Inner) {
                ws.innerStep(0, 0);
            } else if (defer_next && ws.deferLeaf(0, 0)) {
                defer_next = false; // alternate defer/process
            } else {
                ws.leafStep(0, 0);
                defer_next = true;
            }
        }
        ASSERT_LT(guard, 100000);
        const Hit expected = setup.reference(setup.rays[i]);
        ASSERT_EQ(ws.results()[i].triangle, expected.triangle) << i;
    }
}

// --------------------------------------------------- Aila kernel on SMX

TEST(AilaKernel, TracesAllRaysCorrectly)
{
    TestSetup setup(512);
    AilaConfig config;
    config.numWarps = 8;
    AilaKernel kernel(setup.bvh, setup.scene.triangles(), setup.rays, 0,
                      config);
    simt::GpuConfig gpu;
    simt::SharedMemorySide shared(gpu.memory);
    simt::Smx smx(gpu, kernel, nullptr, config.numWarps, shared);
    smx.run(50'000'000);
    ASSERT_TRUE(smx.done());
    EXPECT_EQ(kernel.raysCompleted(), setup.rays.size());
    for (std::size_t i = 0; i < setup.rays.size(); ++i) {
        const Hit expected = setup.reference(setup.rays[i]);
        ASSERT_EQ(kernel.travWorkspace().results()[i].triangle,
                  expected.triangle)
            << "ray " << i;
    }
}

TEST(AilaKernel, SpeculativeTraversalCorrectAndCounted)
{
    TestSetup setup(512, 13);
    AilaConfig config;
    config.numWarps = 8;
    config.speculativeTraversal = true;
    AilaKernel kernel(setup.bvh, setup.scene.triangles(), setup.rays, 0,
                      config);
    simt::GpuConfig gpu;
    simt::SharedMemorySide shared(gpu.memory);
    simt::Smx smx(gpu, kernel, nullptr, config.numWarps, shared);
    smx.run(50'000'000);
    ASSERT_TRUE(smx.done());
    for (std::size_t i = 0; i < setup.rays.size(); ++i) {
        const Hit expected = setup.reference(setup.rays[i]);
        ASSERT_EQ(kernel.travWorkspace().results()[i].triangle,
                  expected.triangle)
            << "ray " << i;
    }
}

TEST(AilaKernel, PersistentThreadsReuseWarps)
{
    // Far more rays than thread slots: warps must refetch repeatedly.
    TestSetup setup(2048, 17);
    AilaConfig config;
    config.numWarps = 2; // 64 thread slots for 2048 rays
    AilaKernel kernel(setup.bvh, setup.scene.triangles(), setup.rays, 0,
                      config);
    simt::GpuConfig gpu;
    simt::SharedMemorySide shared(gpu.memory);
    simt::Smx smx(gpu, kernel, nullptr, config.numWarps, shared);
    smx.run(200'000'000);
    ASSERT_TRUE(smx.done());
    EXPECT_EQ(kernel.raysCompleted(), setup.rays.size());
}

// ---------------------------------------------------- DRS kernel on SMX

TEST(DrsKernel, TracesAllRaysCorrectly)
{
    TestSetup setup(512, 23);
    DrsKernelConfig config;
    config.numWarps = 8;
    config.backupRows = 1;
    DrsKernel kernel(setup.bvh, setup.scene.triangles(), setup.rays, 0,
                     config);
    core::DrsConfig drs_config;
    core::DrsControl control(drs_config, kernel.workspace(),
                             config.numWarps);
    simt::GpuConfig gpu;
    simt::SharedMemorySide shared(gpu.memory);
    simt::Smx smx(gpu, kernel, &control, config.numWarps, shared);
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

TEST(DrsKernel, IdealizedShufflingCorrect)
{
    TestSetup setup(512, 29);
    DrsKernelConfig config;
    config.numWarps = 8;
    DrsKernel kernel(setup.bvh, setup.scene.triangles(), setup.rays, 0,
                     config);
    core::DrsConfig drs_config;
    drs_config.idealized = true;
    core::DrsControl control(drs_config, kernel.workspace(),
                             config.numWarps);
    simt::GpuConfig gpu;
    simt::SharedMemorySide shared(gpu.memory);
    simt::Smx smx(gpu, kernel, &control, config.numWarps, shared);
    control.attach(smx);
    smx.run(100'000'000);
    ASSERT_TRUE(smx.done());
    for (std::size_t i = 0; i < setup.rays.size(); ++i) {
        const Hit expected = setup.reference(setup.rays[i]);
        ASSERT_EQ(kernel.travWorkspace().results()[i].triangle,
                  expected.triangle)
            << "ray " << i;
    }
}

/** Parameterized: DRS correctness across backup-row configurations. */
class DrsBackupRowSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(DrsBackupRowSweep, CorrectAcrossBackupRows)
{
    TestSetup setup(384, 31);
    DrsKernelConfig config;
    config.numWarps = 6;
    config.backupRows = GetParam();
    DrsKernel kernel(setup.bvh, setup.scene.triangles(), setup.rays, 0,
                     config);
    core::DrsConfig drs_config;
    drs_config.backupRows = GetParam();
    core::DrsControl control(drs_config, kernel.workspace(),
                             config.numWarps);
    simt::GpuConfig gpu;
    simt::SharedMemorySide shared(gpu.memory);
    simt::Smx smx(gpu, kernel, &control, config.numWarps, shared);
    control.attach(smx);
    smx.run(100'000'000);
    ASSERT_TRUE(smx.done());
    EXPECT_EQ(kernel.raysCompleted(), setup.rays.size());
    for (std::size_t i = 0; i < setup.rays.size(); ++i) {
        const Hit expected = setup.reference(setup.rays[i]);
        ASSERT_EQ(kernel.travWorkspace().results()[i].triangle,
                  expected.triangle);
    }
}

INSTANTIATE_TEST_SUITE_P(BackupRows, DrsBackupRowSweep,
                         ::testing::Values(1, 2, 4, 8));

/** Parameterized: DRS correctness across swap-buffer configurations. */
class DrsSwapBufferSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(DrsSwapBufferSweep, CorrectAcrossSwapBuffers)
{
    TestSetup setup(384, 37);
    DrsKernelConfig config;
    config.numWarps = 6;
    DrsKernel kernel(setup.bvh, setup.scene.triangles(), setup.rays, 0,
                     config);
    core::DrsConfig drs_config;
    drs_config.swapBuffers = GetParam();
    core::DrsControl control(drs_config, kernel.workspace(),
                             config.numWarps);
    simt::GpuConfig gpu;
    simt::SharedMemorySide shared(gpu.memory);
    simt::Smx smx(gpu, kernel, &control, config.numWarps, shared);
    control.attach(smx);
    smx.run(100'000'000);
    ASSERT_TRUE(smx.done());
    EXPECT_EQ(kernel.raysCompleted(), setup.rays.size());
}

INSTANTIATE_TEST_SUITE_P(SwapBuffers, DrsSwapBufferSweep,
                         ::testing::Values(6, 9, 12, 18));

TEST(DrsKernel, RowCountFollowsConfig)
{
    DrsKernelConfig config;
    config.numWarps = 10;
    config.backupRows = 4;
    EXPECT_EQ(config.rowCount(), 16);
}

} // namespace
} // namespace drs::kernels
