/**
 * @file
 * Figure 10 — SIMD efficiency and utilization breakdown of Aila's
 * software method, DMK, TBC and DRS, per scene for bounces B1..B3 plus
 * the overall aggregate (simulated over B1..B4; the paper notes bounces
 * after the third behave like the third). The DMK's micro-kernel
 * spawn-related instructions are reported as the separate SI category.
 */

#include <iostream>
#include <vector>

#include "bench_common.h"

int
main(int argc, char **argv)
{
    using namespace drs;
    const auto options =
        bench::withoutSampling(bench::parseOptions(argc, argv));
    const auto scale = harness::ExperimentScale::fromEnvironment();
    bench::printBanner("Figure 10: SIMD efficiency breakdown", scale,
                       options);
    bench::WallTimer timer;

    const harness::Arch archs[] = {harness::Arch::Aila, harness::Arch::Dmk,
                                   harness::Arch::Tbc, harness::Arch::Drs};

    harness::SweepRunner runner(scale, options.jobs,
                                bench::makeSweepOptions(options));
    // indices[scene][arch][bounce]
    std::vector<std::vector<std::vector<std::size_t>>> indices;
    for (scene::SceneId id : scene::allSceneIds()) {
        auto &per_scene = indices.emplace_back();
        for (harness::Arch arch : archs) {
            const auto config = bench::makeRunConfig(scale, options);
            per_scene.push_back(
                runner.addCapture(id, arch, config, bench::kSweepBounces));
        }
    }
    bench::JsonReport report("fig10_simd_breakdown", scale, options);
    const auto results = bench::runSweep(runner, options, &report);
    const double clock_ghz = harness::RunConfig{}.gpu.clockGhz;

    std::size_t scene_index = 0;
    for (scene::SceneId id : scene::allSceneIds()) {
        stats::Table table({"arch", "bounce", "SIMD eff", "W1:8", "W9:16",
                            "W17:24", "W25:32", "SI"});
        for (std::size_t a = 0; a < std::size(archs); ++a) {
            const auto capture = harness::collectCapture(
                results, indices[scene_index][a]);
            auto add_row = [&](const std::string &bounce,
                               const simt::SimStats &stats) {
                table.addRow(
                    {harness::archName(archs[a]), bounce,
                     stats::formatPercent(stats.histogram.simdEfficiency()),
                     stats::formatPercent(stats.histogram.bucketFraction(0)),
                     stats::formatPercent(stats.histogram.bucketFraction(1)),
                     stats::formatPercent(stats.histogram.bucketFraction(2)),
                     stats::formatPercent(stats.histogram.bucketFraction(3)),
                     stats::formatPercent(
                         stats.histogram.spawnFraction())});
                auto &json_row = report.addStats(
                    scene::sceneName(id), harness::archName(archs[a]),
                    stats, clock_ghz);
                json_row["bounce"] = bounce;
            };
            for (std::size_t b = 0;
                 b < capture.perBounce.size() && b < 3; ++b)
                add_row("B" + std::to_string(b + 1), capture.perBounce[b]);
            add_row("overall", capture.overall);
        }
        std::cout << "\n--- " << scene::sceneName(id) << " ---\n";
        table.print(std::cout);
        std::cout.flush();
        ++scene_index;
    }
    std::cout << "\nPaper shape: DRS lifts overall efficiency from\n"
                 "~33-46% (Aila) to ~75-88%; DMK approaches DRS when its\n"
                 "SI category is excluded; TBC lands in between.\n\n";
    report.write(timer);
    bench::printElapsed(timer);
    return 0;
}
