/**
 * @file
 * Figure 7 — benchmark scenes. The paper shows renderings and triangle
 * counts; this bench prints each generated scene's statistics (triangles,
 * BVH shape, light count) plus the per-bounce ray-coherence properties
 * the experiments rely on. The example binaries render actual images.
 */

#include <iostream>

#include "bench_common.h"
#include "bvh/traverse.h"
#include "geom/rng.h"

int
main(int argc, char **argv)
{
    using namespace drs;
    const auto options = bench::parseOptions(argc, argv);
    const auto scale = harness::ExperimentScale::fromEnvironment();
    bench::printBanner("Figure 7: benchmark scenes", scale, options);
    bench::WallTimer timer;

    // No simulations here, but scene building and ray capture still
    // dominate: warm the cache by preparing all scenes concurrently.
    harness::PreparedSceneCache cache;
    const auto &ids = scene::allSceneIds();
    exec::parallelFor(ids.size(), options.jobs,
                      [&](std::size_t i) { cache.get(ids[i], scale); });

    stats::Table table({"scene", "triangles", "paper tris", "BVH nodes",
                        "depth", "tris/leaf", "B1 coherence",
                        "B2 coherence", "B2 termination"});
    const char *paper_tris[] = {"283K", "174K", "262K", "1.1M"};
    bench::JsonReport report("fig7_scenes", scale, options);

    int index = 0;
    for (scene::SceneId id : scene::allSceneIds()) {
        const auto &prepared = cache.get(id, scale);
        const auto tree = prepared.tracer->bvh().computeStats();
        const auto b1 =
            prepared.tracer->analyzeCoherence(prepared.trace.bounce(1).rays);
        render::CoherenceStats b2;
        if (prepared.trace.bounces.size() > 1)
            b2 = prepared.tracer->analyzeCoherence(
                prepared.trace.bounce(2).rays);
        table.addRow({scene::sceneName(id),
                      std::to_string(prepared.scene().triangleCount()),
                      paper_tris[index++],
                      std::to_string(tree.nodeCount),
                      std::to_string(tree.maxDepth),
                      stats::formatDouble(tree.meanLeafTriangles, 1),
                      stats::formatDouble(b1.directionCoherence, 3),
                      stats::formatDouble(b2.directionCoherence, 3),
                      stats::formatPercent(b2.terminationRate, 1)});

        auto &row = report.addRow();
        row["scene"] = scene::sceneName(id);
        row["triangles"] = prepared.scene().triangleCount();
        row["bvh_nodes"] = tree.nodeCount;
        row["bvh_depth"] = tree.maxDepth;
        row["mean_leaf_triangles"] = tree.meanLeafTriangles;
        row["b1_coherence"] = b1.directionCoherence;
        row["b2_coherence"] = b2.directionCoherence;
        row["b2_termination_rate"] = b2.terminationRate;
    }
    std::cout << "\n";
    table.print(std::cout);
    std::cout << "\nGenerated stand-ins reproduce the paper's scene\n"
                 "character: coherent primaries, incoherent secondaries,\n"
                 "easy termination for conference/fairy (lights/sky above),\n"
                 "hard termination for sponza (enclosed) and plants\n"
                 "(occluding foliage). Run `examples/render_scene <name>`\n"
                 "for images.\n\n";
    report.write(timer);
    bench::printElapsed(timer);
    return 0;
}
