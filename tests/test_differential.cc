/**
 * @file
 * Differential tests: every registered architecture (the paper's four
 * plus the software reordering survey entries) runs different kernels,
 * ray-management hardware or batch permutations, but they trace the same
 * rays through the same BVH — so every ray must report the same
 * intersection. For each paper scene the Aila software baseline is the
 * reference; hardware architectures must match it per ray on the hit
 * triangle id and on the hit distance within 1e-5, and the software
 * reorderers ("reorder" counter namespace) must match it exactly — they
 * run the very same kernel over a permuted batch, so any deviation means
 * the hit scatter-back is broken.
 */

#include <cmath>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "harness/arch_plugin.h"
#include "harness/harness.h"

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
    scale.numSmx = 2;
    return scale;
}

constexpr float kHitDistanceTolerance = 1e-5f;

std::vector<geom::Hit>
traceHits(Arch arch, const PreparedScene &prepared,
          std::span<const geom::Ray> rays)
{
    std::vector<geom::Hit> hits;
    RunConfig config;
    config.gpu.numSmx = testScale().numSmx;
    config.hitsOut = &hits;
    const auto stats = runBatch(arch, *prepared.tracer, rays, config);
    EXPECT_EQ(stats.raysTraced, rays.size()) << archName(arch);
    return hits;
}

class DifferentialTest : public ::testing::TestWithParam<scene::SceneId>
{
};

TEST_P(DifferentialTest, AllArchitecturesAgreeOnEveryHit)
{
    const PreparedScene prepared = prepareScene(GetParam(), testScale());
    // The incoherent second bounce is where the architectures diverge in
    // execution order the most; agreement there is the strong statement.
    const auto &rays = prepared.trace.bounce(2).rays;
    ASSERT_FALSE(rays.empty());

    const auto reference = traceHits(Arch::Aila, prepared, rays);
    ASSERT_EQ(reference.size(), rays.size());

    for (const ArchPlugin *plugin : ArchRegistry::instance().plugins()) {
        const Arch arch(plugin->name());
        if (arch == Arch::Aila)
            continue;
        // The software reorderers run the identical while-while kernel
        // over a permuted batch, ser leaves traversal untouched, and
        // pathpred's probe only ever shrinks tMax past a genuine hit:
        // all three must match bitwise, not merely within tolerance.
        const std::string ns = plugin->counterNamespace();
        const float tolerance =
            (ns == "reorder" || ns == "ser" || ns == "pathpred")
                ? 0.0f
                : kHitDistanceTolerance;
        const auto hits = traceHits(arch, prepared, rays);
        ASSERT_EQ(hits.size(), reference.size()) << archName(arch);

        std::size_t mismatches = 0;
        for (std::size_t i = 0; i < hits.size(); ++i) {
            const bool triangle_differs =
                hits[i].triangle != reference[i].triangle;
            const bool distance_differs =
                reference[i].valid() &&
                std::fabs(hits[i].t - reference[i].t) > tolerance;
            if (triangle_differs || distance_differs) {
                if (++mismatches <= 5)
                    ADD_FAILURE()
                        << archName(arch) << " ray " << i << ": triangle "
                        << hits[i].triangle << " vs " << reference[i].triangle
                        << ", t " << hits[i].t << " vs " << reference[i].t;
            }
        }
        EXPECT_EQ(mismatches, 0u)
            << archName(arch) << " disagreed with aila on " << mismatches
            << " of " << hits.size() << " rays";
    }
}

TEST_P(DifferentialTest, ReferenceFindsRealIntersections)
{
    // Guard the guard: an all-miss reference would make the differential
    // comparison vacuously green.
    const PreparedScene prepared = prepareScene(GetParam(), testScale());
    const auto &rays = prepared.trace.bounce(2).rays;
    const auto reference = traceHits(Arch::Aila, prepared, rays);
    std::size_t valid = 0;
    for (const auto &hit : reference)
        valid += hit.valid() ? 1 : 0;
    EXPECT_GT(valid, reference.size() / 4)
        << "suspiciously few real hits in the reference";
}

TEST_P(DifferentialTest, CheckedRunsMatchUncheckedAtAllThreadCounts)
{
    // Invariant checking (RunConfig::check / DRS_CHECK=1) must be a pure
    // observer: for every architecture, checked runs alone or as
    // concurrent batch jobs produce SimStats bit-identical to the
    // unchecked run — and the checks themselves (cycle-level invariants
    // + lockstep reference cross-check) must find nothing to throw about.
    const PreparedScene prepared = prepareScene(GetParam(), testScale());
    const auto &bounce_rays = prepared.trace.bounce(2).rays;
    ASSERT_FALSE(bounce_rays.empty());
    std::span<const geom::Ray> rays(bounce_rays);
    if (rays.size() > 1024)
        rays = rays.first(1024); // keep the all-arch grid affordable

    for (const Arch &arch : ArchRegistry::instance().archs()) {
        RunConfig config;
        config.gpu.numSmx = testScale().numSmx;
        config.check = 0;
        const simt::SimStats baseline =
            runBatch(arch, *prepared.tracer, rays, config);

        for (const int jobs : {1, 4}) {
            std::vector<simt::SimStats> results(
                static_cast<std::size_t>(jobs));
            std::vector<std::string> errors(static_cast<std::size_t>(jobs));
            auto run_one = [&](std::size_t slot) {
                try {
                    RunConfig checked = config;
                    checked.check = 1;
                    results[slot] =
                        runBatch(arch, *prepared.tracer, rays, checked);
                } catch (const std::exception &e) {
                    errors[slot] = e.what();
                }
            };
            if (jobs == 1) {
                run_one(0);
            } else {
                std::vector<std::thread> workers;
                for (std::size_t j = 0; j < static_cast<std::size_t>(jobs);
                     ++j)
                    workers.emplace_back(run_one, j);
                for (auto &worker : workers)
                    worker.join();
            }
            for (std::size_t j = 0; j < static_cast<std::size_t>(jobs);
                 ++j) {
                EXPECT_TRUE(errors[j].empty())
                    << archName(arch) << " jobs=" << jobs << " job " << j
                    << ": " << errors[j];
                if (errors[j].empty()) {
                    EXPECT_TRUE(results[j] == baseline)
                        << archName(arch) << " jobs=" << jobs << " job "
                        << j
                        << ": checked SimStats differ from the unchecked "
                           "run";
                }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllScenes, DifferentialTest,
                         ::testing::ValuesIn(scene::allSceneIds()),
                         [](const auto &info) {
                             return scene::sceneName(info.param);
                         });

} // namespace
} // namespace drs::harness
