/**
 * @file
 * Unit tests for the invariant-checking subsystem (src/check): the
 * DRS_CHECK gate, the traversal-workspace checker, the reconvergence-
 * stack checker, counter/SimStats lockstep, the lockstep functional
 * reference interpreter, the loud constructor validation, and the
 * end-to-end guarantee that checking is a pure observer (checked runs
 * produce bit-identical SimStats to unchecked ones on every
 * architecture).
 */

#include <cstdlib>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "bvh/builder.h"
#include "bvh/traverse.h"
#include "check/check.h"
#include "check/reference.h"
#include "geom/rng.h"
#include "harness/harness.h"
#include "kernels/aila_kernel.h"
#include "kernels/trav_workspace.h"
#include "render/path_tracer.h"
#include "scene/scenes.h"
#include "simt/gpu.h"
#include "simt/kernel_ir.h"
#include "simt/warp.h"

namespace drs::simt {

/** Corrupts a workspace's row census for the checker tests. */
struct RowWorkspaceTestPeer
{
    static void flipMask(RowWorkspace &ws, int row, TravState state,
                         int lane)
    {
        ws.masks_[static_cast<std::size_t>(row)]
                 [static_cast<std::size_t>(state)] ^= 1u << lane;
    }
    static void setLiveRays(RowWorkspace &ws, std::size_t live)
    {
        ws.liveRays_ = live;
    }
};

} // namespace drs::simt

namespace drs::check {
namespace {

using geom::Hit;
using geom::Ray;
using geom::Vec3;

/** Small scene + random rays, shared by the workspace/reference tests. */
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
};

/** RAII guard: set DRS_CHECK for one test, restore the old value after. */
class ScopedCheckEnv
{
  public:
    ScopedCheckEnv()
    {
        const char *old = std::getenv("DRS_CHECK");
        hadOld_ = old != nullptr;
        if (hadOld_)
            old_ = old;
    }

    ~ScopedCheckEnv()
    {
        if (hadOld_)
            ::setenv("DRS_CHECK", old_.c_str(), 1);
        else
            ::unsetenv("DRS_CHECK");
    }

    void set(const char *value) { ::setenv("DRS_CHECK", value, 1); }
    void unset() { ::unsetenv("DRS_CHECK"); }

  private:
    bool hadOld_ = false;
    std::string old_;
};

// --------------------------------------------------------- checkEnabled

TEST(CheckEnabled, ExplicitModeWinsOverEnvironment)
{
    ScopedCheckEnv env;
    env.set("1");
    EXPECT_FALSE(checkEnabled(0));
    EXPECT_TRUE(checkEnabled(1));
    env.set("0");
    EXPECT_TRUE(checkEnabled(1));
}

TEST(CheckEnabled, EnvironmentParsing)
{
    ScopedCheckEnv env;
    env.unset();
    EXPECT_FALSE(checkEnabled(-1));
    env.set("");
    EXPECT_FALSE(checkEnabled(-1));
    env.set("0");
    EXPECT_FALSE(checkEnabled(-1));
    env.set("1");
    EXPECT_TRUE(checkEnabled(-1));
    // Anything else is fail-safe off (with a one-time warning), never a
    // silent "on": a typo must not change what a run measures.
    env.set("yes");
    EXPECT_FALSE(checkEnabled(-1));
}

// ---------------------------------------------------- workspace checker

TEST(Workspace, FreshWorkspacePassesStrictAndRelaxed)
{
    TestSetup setup(64);
    kernels::TravWorkspace ws(setup.bvh, setup.scene.triangles(),
                              setup.rays, 0, 2, 32);
    EXPECT_NO_THROW(verifyWorkspace(ws, /*strict=*/true));
    EXPECT_NO_THROW(verifyWorkspace(ws, /*strict=*/false));
    ws.fetchStep(0, 0);
    ws.fetchStep(0, 1);
    EXPECT_NO_THROW(verifyWorkspace(ws, /*strict=*/true));
}

TEST(Workspace, DetectsStaleRayIdInEmptySlot)
{
    TestSetup setup(64);
    kernels::TravWorkspace ws(setup.bvh, setup.scene.triangles(),
                              setup.rays, 0, 2, 32);
    ws.fetchStep(0, 0);
    // Corrupt: mark the slot empty but leave the ray id behind.
    ws.slot(0, 0).state = simt::TravState::Fetch;
    EXPECT_THROW(verifyWorkspace(ws, /*strict=*/false), InvariantViolation);
}

TEST(Workspace, DetectsDuplicateRayId)
{
    TestSetup setup(64);
    kernels::TravWorkspace ws(setup.bvh, setup.scene.triangles(),
                              setup.rays, 0, 2, 32);
    ws.fetchStep(0, 0);
    ws.fetchStep(0, 1);
    ws.slot(0, 1).rayId = ws.slot(0, 0).rayId; // two slots, one ray
    EXPECT_THROW(verifyWorkspace(ws, /*strict=*/false), InvariantViolation);
}

TEST(Workspace, DetectsOutOfStripeRayId)
{
    TestSetup setup(64);
    kernels::TravWorkspace ws(setup.bvh, setup.scene.triangles(),
                              setup.rays, 0, 2, 32);
    ws.fetchStep(0, 0);
    ws.slot(0, 0).rayId =
        static_cast<std::int64_t>(setup.rays.size()) + 5;
    EXPECT_THROW(verifyWorkspace(ws, /*strict=*/false), InvariantViolation);
}

TEST(Workspace, DetectsLeafCursorOverrun)
{
    TestSetup setup(64);
    kernels::TravWorkspace ws(setup.bvh, setup.scene.triangles(),
                              setup.rays, 0, 2, 32);
    ws.fetchStep(0, 0);
    ws.slot(0, 0).leafCursor = ws.slot(0, 0).leafEnd + 1;
    EXPECT_THROW(verifyWorkspace(ws, /*strict=*/false), InvariantViolation);
}

TEST(Workspace, StrictConservationCatchesLostRay)
{
    TestSetup setup(64);
    kernels::TravWorkspace ws(setup.bvh, setup.scene.triangles(),
                              setup.rays, 0, 2, 32);
    ws.fetchStep(0, 0);
    // Move the fetched ray out of the rows, as the DMK parks rays in
    // spawn memory: slot emptied, never completed. The relaxed mode
    // (architectures that legally park rays elsewhere) accepts this;
    // strict conservation must not.
    const kernels::RaySlot parked = ws.takeRay(0, 0);
    EXPECT_GE(parked.rayId, 0);
    EXPECT_NO_THROW(verifyWorkspace(ws, /*strict=*/false));
    EXPECT_THROW(verifyWorkspace(ws, /*strict=*/true), InvariantViolation);
}

TEST(Workspace, TakeAndPutRayKeepTheCensus)
{
    TestSetup setup(64);
    kernels::TravWorkspace ws(setup.bvh, setup.scene.triangles(),
                              setup.rays, 0, 2, 32);
    ws.fetchStep(0, 3);
    EXPECT_EQ(ws.laneMask(0, simt::TravState::Inner), 1u << 3);
    kernels::RaySlot ray = ws.takeRay(0, 3);
    EXPECT_EQ(ws.liveRays(), 0u);
    ws.putRay(1, 30, std::move(ray));
    EXPECT_EQ(ws.laneMask(1, simt::TravState::Inner), 1u << 30);
    EXPECT_EQ(ws.laneMask(0, simt::TravState::Fetch), 0xffffffffu);
    EXPECT_EQ(ws.liveRays(), 1u);
    EXPECT_NO_THROW(verifyWorkspace(ws, /*strict=*/true));
}

TEST(Workspace, DetectsCorruptCensusMask)
{
    TestSetup setup(64);
    kernels::TravWorkspace ws(setup.bvh, setup.scene.triangles(),
                              setup.rays, 0, 2, 32);
    ws.fetchStep(1, 4);
    // Claim the inner ray is a leaf ray; the live count stays right.
    simt::RowWorkspaceTestPeer::flipMask(ws, 1, simt::TravState::Inner, 4);
    simt::RowWorkspaceTestPeer::flipMask(ws, 1, simt::TravState::Leaf, 4);
    EXPECT_THROW(verifyWorkspace(ws, /*strict=*/false), InvariantViolation);
}

TEST(Workspace, DetectsCorruptCensusLiveCount)
{
    TestSetup setup(64);
    kernels::TravWorkspace ws(setup.bvh, setup.scene.triangles(),
                              setup.rays, 0, 2, 32);
    ws.fetchStep(0, 0);
    simt::RowWorkspaceTestPeer::setLiveRays(ws, 2);
    EXPECT_THROW(verifyWorkspace(ws, /*strict=*/false), InvariantViolation);
}

TEST(Workspace, RejectsLaneCountsOutsideTheMaskWidth)
{
    TestSetup setup(64);
    for (const int lanes : {0, 33}) {
        EXPECT_THROW(kernels::TravWorkspace(setup.bvh,
                                            setup.scene.triangles(),
                                            setup.rays, 0, 2, lanes),
                     std::invalid_argument)
            << "lanes = " << lanes;
    }
}

// --------------------------------------------------------- warp checker

/** 0 -> 1; 1 -> {2, 5}; 2 -> {3, 4}; 3 -> 2; 4 -> 1; 5 = exit. */
simt::Program
makeNestedLoopProgram()
{
    auto block = [](std::string name, std::vector<int> succ) {
        simt::Block b;
        b.name = std::move(name);
        b.successors = std::move(succ);
        b.instructionCount = 1;
        return b;
    };
    std::vector<simt::Block> blocks;
    blocks.push_back(block("pre", {1}));
    blocks.push_back(block("outer", {2, 5}));
    blocks.push_back(block("inner", {3, 4}));
    blocks.push_back(block("body", {2}));
    blocks.push_back(block("latch", {1}));
    blocks.push_back(block("exit", {}));
    return simt::Program(std::move(blocks), 5);
}

TEST(WarpChecker, AcceptsHealthyDivergenceStacks)
{
    const simt::Program program = makeNestedLoopProgram();
    const Checker checker;
    simt::Warp warp(0, 0, 0, 5, 32);
    checker.checkWarp(warp, program);

    std::vector<int> next(32, 1);
    warp.applySuccessors(next, program);
    checker.checkWarp(warp, program);
    for (int i = 0; i < 32; ++i)
        next[static_cast<std::size_t>(i)] = (i < 16) ? 2 : 5;
    warp.applySuccessors(next, program);
    checker.checkWarp(warp, program);
    for (int i = 0; i < 16; ++i)
        next[static_cast<std::size_t>(i)] = (i < 8) ? 3 : 4;
    warp.applySuccessors(next, program);
    EXPECT_EQ(warp.stackDepth(), 3u);
    EXPECT_NO_THROW(checker.checkWarp(warp, program));
}

TEST(WarpChecker, DetectsUnrelatedReconvergencePoint)
{
    const simt::Program program = makeNestedLoopProgram();
    const Checker checker;
    simt::Warp warp(0, 0, 0, 5, 32);
    // An entry whose rpc is neither its parent's pc nor a sibling's rpc
    // is not part of any legal IPDOM divergence.
    warp.pushUniformBody(2, 0xffffffffu, 3);
    EXPECT_THROW(checker.checkWarp(warp, program), InvariantViolation);
}

TEST(WarpChecker, DetectsSiblingMaskOverlap)
{
    const simt::Program program = makeNestedLoopProgram();
    const Checker checker;
    simt::Warp warp(0, 0, 0, 5, 32);
    // Two sides of the same divergence (both reconverge at the bottom
    // entry's pc) claiming the same lane: a thread in two places at once.
    warp.pushUniformBody(1, 0x3u, 0);
    warp.pushUniformBody(2, 0x1u, 0);
    EXPECT_THROW(checker.checkWarp(warp, program), InvariantViolation);
}

TEST(WarpChecker, DetectsMaskOutsideWarpWidth)
{
    const simt::Program program = makeNestedLoopProgram();
    const Checker checker;
    simt::Warp warp(0, 0, 0, 5, 8); // 8-lane warp
    warp.pushUniformBody(1, 0xff00u, 0); // lanes 8..15 do not exist
    EXPECT_THROW(checker.checkWarp(warp, program), InvariantViolation);
}

// ------------------------------------------------ counter/stats lockstep

TEST(StatsLockstep, PassesOnRealRunAndDetectsDrift)
{
    TestSetup setup(256);
    render::PathTracer tracer(setup.scene);
    harness::RunConfig config;
    config.gpu.numSmx = 2;
    const simt::SimStats stats =
        runBatch(harness::Arch::Drs, tracer, setup.rays, config);
    EXPECT_NO_THROW(verifyStatsLockstep(stats));

    // Any scalar drifting from its observability counter must trip the
    // lockstep check.
    simt::SimStats drifted = stats;
    drifted.rdctrlIssued += 1;
    EXPECT_THROW(verifyStatsLockstep(drifted), InvariantViolation);

    drifted = stats;
    drifted.l1Data.accesses += 1;
    EXPECT_THROW(verifyStatsLockstep(drifted), InvariantViolation);
}

// --------------------------------------------------- reference interpreter

TEST(Reference, MatchesCpuTraversalExactly)
{
    TestSetup setup(256);
    const ReferenceResult result = runReference(
        setup.bvh, setup.scene.triangles(), setup.rays, {});
    ASSERT_EQ(result.hits.size(), setup.rays.size());
    for (std::size_t i = 0; i < setup.rays.size(); ++i) {
        const Hit expected =
            bvh::intersect(setup.bvh, setup.scene.triangles(),
                           setup.rays[i]);
        EXPECT_EQ(result.hits[i].triangle, expected.triangle) << "ray " << i;
        if (expected.valid()) {
            EXPECT_EQ(result.hits[i].t, expected.t) << "ray " << i;
        }
    }
    // One fetch per ray plus the final empty-pool probe; the exit block
    // is never counted as visited.
    using B = kernels::AilaBlocks;
    EXPECT_EQ(result.blockVisits[B::kFetch], setup.rays.size() + 1);
    EXPECT_EQ(result.blockVisits[B::kExit], 0u);
    EXPECT_GT(result.blockVisits[B::kInnerTest], 0u);
}

TEST(Reference, SpeculationDoesNotChangeHits)
{
    TestSetup setup(256);
    kernels::AilaConfig speculative;
    speculative.speculativeTraversal = true;
    const ReferenceResult plain = runReference(
        setup.bvh, setup.scene.triangles(), setup.rays, {});
    const ReferenceResult spec = runReference(
        setup.bvh, setup.scene.triangles(), setup.rays, speculative);
    ASSERT_EQ(plain.hits.size(), spec.hits.size());
    for (std::size_t i = 0; i < plain.hits.size(); ++i) {
        EXPECT_EQ(plain.hits[i].triangle, spec.hits[i].triangle);
        EXPECT_EQ(plain.hits[i].t, spec.hits[i].t);
    }
}

TEST(Reference, VerifyBatchRejectsTamperedHits)
{
    TestSetup setup(128);
    render::PathTracer tracer(setup.scene);
    harness::RunConfig config;
    config.gpu.numSmx = 1;
    std::vector<Hit> hits;
    config.hitsOut = &hits;
    const simt::SimStats stats =
        runBatch(harness::Arch::Aila, tracer, setup.rays, config);
    ASSERT_EQ(hits.size(), setup.rays.size());

    BatchCheckInputs inputs; // while-while defaults match the Aila run
    EXPECT_NO_THROW(verifyBatch(tracer.bvh(), tracer.sceneTriangles(),
                                setup.rays, stats, hits, inputs));

    std::vector<Hit> tampered = hits;
    tampered[3].triangle = tampered[3].triangle == 0 ? 1 : 0;
    EXPECT_THROW(verifyBatch(tracer.bvh(), tracer.sceneTriangles(),
                             setup.rays, stats, tampered, inputs),
                 InvariantViolation);

    // Tampered block-issue stats (a lost loop iteration) must also trip.
    simt::SimStats skewed = stats;
    ASSERT_GT(skewed.blockIssue.size(),
              static_cast<std::size_t>(kernels::AilaBlocks::kInnerTest));
    skewed.blockIssue[kernels::AilaBlocks::kInnerTest].second +=
        kernels::defaultCostModel().innerTest;
    EXPECT_THROW(verifyBatch(tracer.bvh(), tracer.sceneTriangles(),
                             setup.rays, skewed, hits, inputs),
                 InvariantViolation);
}

// ------------------------------------------- end-to-end: pure observation

TEST(Harness, CheckedRunMatchesUncheckedOnAllArchitectures)
{
    TestSetup setup(256);
    render::PathTracer tracer(setup.scene);
    for (const harness::Arch &arch :
         {harness::Arch::Aila, harness::Arch::Drs, harness::Arch::Dmk,
          harness::Arch::Tbc}) {
        harness::RunConfig config;
        config.gpu.numSmx = 2;
        config.check = 0;
        const simt::SimStats unchecked =
            runBatch(arch, tracer, setup.rays, config);

        config.check = 1;
        std::vector<Hit> hits;
        config.hitsOut = &hits;
        simt::SimStats checked;
        ASSERT_NO_THROW(checked =
                            runBatch(arch, tracer, setup.rays, config))
            << harness::archName(arch);
        EXPECT_TRUE(checked == unchecked)
            << harness::archName(arch)
            << ": DRS_CHECK=1 altered the simulation statistics";
        ASSERT_EQ(hits.size(), setup.rays.size());
        for (std::size_t i = 0; i < hits.size(); ++i) {
            const Hit expected = bvh::intersect(
                tracer.bvh(), tracer.sceneTriangles(), setup.rays[i]);
            EXPECT_EQ(hits[i].triangle, expected.triangle)
                << harness::archName(arch) << " ray " << i;
        }
    }
}

// --------------------------------------------- loud bounds validation

TEST(Validation, WarpRejectsBadLaneCounts)
{
    EXPECT_THROW(simt::Warp(0, 0, 0, 1, 0), std::invalid_argument);
    EXPECT_THROW(simt::Warp(0, 0, 0, 1, 33), std::invalid_argument);
}

TEST(Validation, SmxRejectsBadGeometry)
{
    TestSetup setup(32);
    simt::GpuConfig config;
    simt::SharedMemorySide shared(config.memory);
    kernels::AilaKernel kernel(setup.bvh, setup.scene.triangles(),
                               setup.rays, 0);
    EXPECT_THROW(simt::Smx(config, kernel, nullptr, 0, shared),
                 std::invalid_argument);
    simt::GpuConfig bad_lanes = config;
    bad_lanes.simdLanes = 33;
    EXPECT_THROW(simt::Smx(bad_lanes, kernel, nullptr, 4, shared),
                 std::invalid_argument);
    simt::GpuConfig no_scheduler = config;
    no_scheduler.schedulersPerSmx = 0;
    EXPECT_THROW(simt::Smx(no_scheduler, kernel, nullptr, 4, shared),
                 std::invalid_argument);
}

TEST(Validation, RayStripeRejectsBadIndices)
{
    EXPECT_THROW(simt::rayStripe(100, 0, 0), std::invalid_argument);
    EXPECT_THROW(simt::rayStripe(100, 3, 3), std::invalid_argument);
    EXPECT_THROW(simt::rayStripe(100, 3, -1), std::invalid_argument);
}

} // namespace
} // namespace drs::check
