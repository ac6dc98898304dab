/**
 * @file
 * Unit and property tests for the BVH builder and reference traversal:
 * structural invariants, SAH behaviour, and exhaustive agreement with
 * brute-force intersection.
 */

#include <gtest/gtest.h>

#include "bvh/builder.h"
#include "bvh/traverse.h"
#include "geom/rng.h"
#include "scene/scenes.h"

namespace drs::bvh {
namespace {

using geom::Hit;
using geom::Pcg32;
using geom::Ray;
using geom::Triangle;
using geom::Vec3;

std::vector<Triangle>
randomTriangles(int count, std::uint64_t seed, float extent = 10.0f)
{
    Pcg32 rng(seed);
    std::vector<Triangle> tris;
    tris.reserve(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i) {
        const Vec3 base{rng.nextFloat(0, extent), rng.nextFloat(0, extent),
                        rng.nextFloat(0, extent)};
        auto jitter = [&] {
            return Vec3{rng.nextFloat(-0.5f, 0.5f), rng.nextFloat(-0.5f, 0.5f),
                        rng.nextFloat(-0.5f, 0.5f)};
        };
        tris.push_back(Triangle{base, base + jitter(), base + jitter(), 0});
    }
    return tris;
}

Hit
bruteForce(const std::vector<Triangle> &tris, const Ray &ray)
{
    Hit hit;
    Ray r = ray;
    for (std::size_t i = 0; i < tris.size(); ++i) {
        float t, u, v;
        if (tris[i].intersect(r, t, u, v)) {
            hit.triangle = static_cast<std::int32_t>(i);
            hit.t = t;
            hit.u = u;
            hit.v = v;
            r.tMax = t;
        }
    }
    return hit;
}

TEST(BvhBuilder, EmptyInput)
{
    const Bvh bvh = build({});
    EXPECT_TRUE(bvh.empty());
    EXPECT_EQ(bvh.nodeCount(), 0u);
    EXPECT_TRUE(bvh.bounds().empty());
}

TEST(BvhBuilder, SingleTriangleIsRootLeaf)
{
    const std::vector<Triangle> tris = {
        {{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, 0}};
    const Bvh bvh = build(tris);
    ASSERT_EQ(bvh.nodeCount(), 1u);
    EXPECT_TRUE(bvh.node(0).isLeaf());
    EXPECT_EQ(bvh.node(0).triangleCount, 1);
    EXPECT_EQ(bvh.triangleIndex(0), 0);
}

TEST(BvhBuilder, AllTrianglesReferencedExactlyOnce)
{
    const auto tris = randomTriangles(500, 1);
    const Bvh bvh = build(tris);
    std::vector<int> seen(tris.size(), 0);
    for (std::int32_t idx : bvh.triangleIndices())
        ++seen[static_cast<std::size_t>(idx)];
    for (std::size_t i = 0; i < seen.size(); ++i)
        EXPECT_EQ(seen[i], 1) << "triangle " << i;
}

TEST(BvhBuilder, NodesContainTheirChildren)
{
    const auto tris = randomTriangles(300, 2);
    const Bvh bvh = build(tris);
    for (std::size_t i = 0; i < bvh.nodeCount(); ++i) {
        const Node &n = bvh.node(static_cast<std::int32_t>(i));
        if (n.isLeaf()) {
            for (std::int32_t k = 0; k < n.triangleCount; ++k) {
                const auto tri = bvh.triangleIndex(n.firstTriangle + k);
                const auto tb = tris[static_cast<std::size_t>(tri)].bounds();
                EXPECT_TRUE(n.bounds.contains(tb.lo));
                EXPECT_TRUE(n.bounds.contains(tb.hi));
            }
        } else {
            const Node &l = bvh.node(static_cast<std::int32_t>(i) + 1);
            const Node &r = bvh.node(n.rightChild);
            EXPECT_TRUE(n.bounds.contains(l.bounds.lo));
            EXPECT_TRUE(n.bounds.contains(l.bounds.hi));
            EXPECT_TRUE(n.bounds.contains(r.bounds.lo));
            EXPECT_TRUE(n.bounds.contains(r.bounds.hi));
        }
    }
}

TEST(BvhBuilder, RespectsMaxLeafSize)
{
    const auto tris = randomTriangles(400, 3);
    BuildConfig config;
    config.maxLeafSize = 4;
    const Bvh bvh = build(tris, config);
    const TreeStats stats = bvh.computeStats();
    // The fallback path may create up to 4x leaves when SAH declines to
    // split, but not beyond.
    EXPECT_LE(stats.maxLeafTriangles, 4u * 4u);
    EXPECT_GT(stats.leafCount, 1u);
}

TEST(BvhBuilder, DegenerateIdenticalCentroids)
{
    // All triangles share a centroid: SAH cannot split on centroids, the
    // builder must still terminate with bounded leaves.
    std::vector<Triangle> tris;
    for (int i = 0; i < 100; ++i) {
        const float s = 0.1f + 0.01f * i;
        tris.push_back(Triangle{{-s, -s, 0}, {s * 2, -s, 0}, {-s, s * 2, 0},
                                0});
    }
    const Bvh bvh = build(tris);
    EXPECT_FALSE(bvh.empty());
    std::size_t referenced = bvh.triangleIndices().size();
    EXPECT_EQ(referenced, tris.size());
}

TEST(BvhBuilder, StatsSane)
{
    const auto tris = randomTriangles(1000, 4);
    const Bvh bvh = build(tris);
    const TreeStats stats = bvh.computeStats();
    EXPECT_EQ(stats.nodeCount, bvh.nodeCount());
    EXPECT_GT(stats.leafCount, 10u);
    EXPECT_GT(stats.maxDepth, 3u);
    EXPECT_LT(stats.maxDepth, 64u);
    EXPECT_GT(stats.sahCost, 1.0);
    EXPECT_GT(stats.meanLeafTriangles, 0.5);
}

TEST(BvhTraverse, MatchesBruteForceOnRandomRays)
{
    const auto tris = randomTriangles(400, 5);
    const Bvh bvh = build(tris);
    Pcg32 rng(99);
    int hits = 0;
    for (int i = 0; i < 500; ++i) {
        Ray ray;
        ray.origin = {rng.nextFloat(-2, 12), rng.nextFloat(-2, 12),
                      rng.nextFloat(-2, 12)};
        ray.direction = geom::normalize(Vec3{rng.nextFloat(-1, 1),
                                             rng.nextFloat(-1, 1),
                                             rng.nextFloat(-1, 1)});
        const Hit expected = bruteForce(tris, ray);
        const Hit actual = intersect(bvh, tris, ray);
        ASSERT_EQ(actual.valid(), expected.valid()) << i;
        if (expected.valid()) {
            ++hits;
            ASSERT_NEAR(actual.t, expected.t, 1e-5f) << i;
        }
    }
    EXPECT_GT(hits, 15); // the test must actually exercise hits
}

TEST(BvhTraverse, AxisAlignedRays)
{
    // Axis-aligned rays exercise the infinite inverse-direction slabs.
    const auto tris = randomTriangles(200, 6);
    const Bvh bvh = build(tris);
    Pcg32 rng(7);
    for (int axis = 0; axis < 3; ++axis) {
        for (int sign = -1; sign <= 1; sign += 2) {
            for (int i = 0; i < 50; ++i) {
                Ray ray;
                ray.origin = {rng.nextFloat(0, 10), rng.nextFloat(0, 10),
                              rng.nextFloat(0, 10)};
                Vec3 d{};
                if (axis == 0) d.x = static_cast<float>(sign);
                if (axis == 1) d.y = static_cast<float>(sign);
                if (axis == 2) d.z = static_cast<float>(sign);
                ray.direction = d;
                const Hit expected = bruteForce(tris, ray);
                const Hit actual = intersect(bvh, tris, ray);
                ASSERT_EQ(actual.valid(), expected.valid());
                if (expected.valid()) {
                    ASSERT_NEAR(actual.t, expected.t, 1e-5f);
                }
            }
        }
    }
}

TEST(BvhTraverse, RespectsTmax)
{
    const std::vector<Triangle> tris = {
        {{-1, -1, 5}, {1, -1, 5}, {0, 1, 5}, 0}};
    const Bvh bvh = build(tris);
    Ray ray;
    ray.origin = {0, 0, 0};
    ray.direction = {0, 0, 1};
    ray.tMax = 3.0f;
    EXPECT_FALSE(intersect(bvh, tris, ray).valid());
    ray.tMax = 10.0f;
    EXPECT_TRUE(intersect(bvh, tris, ray).valid());
}

TEST(BvhTraverse, IntersectAnyAgreesWithClosest)
{
    const auto tris = randomTriangles(300, 8);
    const Bvh bvh = build(tris);
    Pcg32 rng(12);
    for (int i = 0; i < 300; ++i) {
        Ray ray;
        ray.origin = {rng.nextFloat(-2, 12), rng.nextFloat(-2, 12),
                      rng.nextFloat(-2, 12)};
        ray.direction = geom::normalize(Vec3{rng.nextFloat(-1, 1),
                                             rng.nextFloat(-1, 1),
                                             rng.nextFloat(-1, 1)});
        EXPECT_EQ(intersectAny(bvh, tris, ray),
                  intersect(bvh, tris, ray).valid());
    }
}

TEST(BvhTraverse, CollectsTraversalStats)
{
    const auto tris = randomTriangles(500, 9);
    const Bvh bvh = build(tris);
    Ray ray;
    ray.origin = {5, 5, -5};
    ray.direction = {0, 0, 1};
    TraversalStats stats;
    (void)intersect(bvh, tris, ray, &stats);
    EXPECT_GT(stats.nodesVisited, 0u);
}

TEST(BvhTraverse, SceneClosedRoomAlwaysHits)
{
    // From inside a closed box every direction must hit geometry.
    const scene::Scene room = scene::makeTestScene();
    const Bvh bvh = build(room.triangles());
    Pcg32 rng(21);
    for (int i = 0; i < 200; ++i) {
        Ray ray;
        ray.origin = {5.0f, 3.0f, 5.0f};
        ray.direction = geom::normalize(Vec3{rng.nextFloat(-1, 1),
                                             rng.nextFloat(-1, 1),
                                             rng.nextFloat(-1, 1)});
        if (geom::lengthSquared(ray.direction) == 0.0f)
            continue;
        EXPECT_TRUE(intersect(bvh, room.triangles(), ray).valid()) << i;
    }
}

/** Parameterized sweep: traversal equals brute force across leaf sizes. */
class BvhLeafSizeSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(BvhLeafSizeSweep, AgreesWithBruteForce)
{
    const auto tris = randomTriangles(250, 10);
    BuildConfig config;
    config.maxLeafSize = GetParam();
    const Bvh bvh = build(tris, config);
    Pcg32 rng(33);
    for (int i = 0; i < 120; ++i) {
        Ray ray;
        ray.origin = {rng.nextFloat(-2, 12), rng.nextFloat(-2, 12),
                      rng.nextFloat(-2, 12)};
        ray.direction = geom::normalize(Vec3{rng.nextFloat(-1, 1),
                                             rng.nextFloat(-1, 1),
                                             rng.nextFloat(-1, 1)});
        const Hit expected = bruteForce(tris, ray);
        const Hit actual = intersect(bvh, tris, ray);
        ASSERT_EQ(actual.valid(), expected.valid());
        if (expected.valid()) {
            ASSERT_NEAR(actual.t, expected.t, 1e-5f);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(LeafSizes, BvhLeafSizeSweep,
                         ::testing::Values(1, 2, 4, 8, 16));

/** Parameterized sweep: bin counts do not affect correctness. */
class BvhBinSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(BvhBinSweep, ValidTreeAtAnyBinCount)
{
    const auto tris = randomTriangles(300, 11);
    BuildConfig config;
    config.binCount = GetParam();
    const Bvh bvh = build(tris, config);
    EXPECT_EQ(bvh.triangleIndices().size(), tris.size());
    const TreeStats stats = bvh.computeStats();
    EXPECT_GE(stats.maxDepth, 1u);
}

INSTANTIATE_TEST_SUITE_P(BinCounts, BvhBinSweep,
                         ::testing::Values(2, 4, 8, 16, 32, 64));

} // namespace
} // namespace drs::bvh
