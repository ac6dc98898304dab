/**
 * @file
 * Figure 11 — simulated ray tracing performance (Mrays/s) and speedups
 * of DMK, TBC and DRS normalized to Aila's software method, per scene
 * for bounces B1..B3 and overall (B1..B4 aggregate; later bounces behave
 * like B3 per the paper).
 */

#include <cmath>
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
    bench::printBanner("Figure 11: performance and speedups", scale,
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
    bench::JsonReport report("fig11_speedup", scale, options);
    const auto results = bench::runSweep(runner, options, &report);
    const double clock_ghz = harness::RunConfig{}.gpu.clockGhz;

    double geomean_accumulator[4] = {0, 0, 0, 0};
    int scene_count = 0;

    std::size_t scene_index = 0;
    for (scene::SceneId id : scene::allSceneIds()) {
        stats::Table table({"arch", "B1", "B2", "B3", "overall Mrays/s",
                            "speedup vs aila"});
        double aila_overall = 0.0;
        for (std::size_t a = 0; a < std::size(archs); ++a) {
            const auto capture = harness::collectCapture(
                results, indices[scene_index][a]);
            const double overall = capture.overallMrays(clock_ghz);
            if (archs[a] == harness::Arch::Aila)
                aila_overall = overall;
            auto bounce_mrays = [&](std::size_t b) {
                if (b >= capture.perBounce.size())
                    return std::string("-");
                return stats::formatDouble(
                    capture.perBounce[b].mraysPerSecond(clock_ghz), 1);
            };
            table.addRow({harness::archName(archs[a]), bounce_mrays(0),
                          bounce_mrays(1), bounce_mrays(2),
                          stats::formatDouble(overall, 1),
                          stats::formatDouble(overall / aila_overall, 2) +
                              "x"});
            geomean_accumulator[a] += std::log(overall / aila_overall);

            auto &row = report.addStats(scene::sceneName(id),
                                        harness::archName(archs[a]),
                                        capture.overall, clock_ghz);
            row["mrays_per_s"] = overall;
            row["speedup_vs_aila"] = overall / aila_overall;
        }
        ++scene_count;
        std::cout << "\n--- " << scene::sceneName(id) << " ---\n";
        table.print(std::cout);
        std::cout.flush();
        ++scene_index;
    }

    std::cout << "\nAverage speedup vs Aila (geometric mean over scenes):\n";
    const char *names[] = {"aila", "dmk", "tbc", "drs"};
    for (int i = 0; i < 4; ++i) {
        const double geomean =
            std::exp(geomean_accumulator[i] / scene_count);
        std::cout << "  " << names[i] << ": "
                  << stats::formatDouble(geomean, 2) << "x\n";
        report.summary()[std::string(names[i]) + "_geomean_speedup"] =
            geomean;
    }
    std::cout << "\nPaper: DRS 1.67x-1.92x (1.79x avg); TBC 1.18x avg;\n"
                 "DMK 1.06x avg (slowdown on primary rays).\n\n";
    report.write(timer);
    bench::printElapsed(timer);
    return 0;
}
