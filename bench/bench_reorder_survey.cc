/**
 * @file
 * Reordering survey — every architecture in the plugin registry (the
 * paper's lineup plus the software ray-reordering competitors) on every
 * scene: per-bounce and overall Mrays/s, SIMD efficiency, and speedup
 * normalized to Aila's unsorted software baseline. The lineup is
 * enumerated from ArchRegistry, so registering a new architecture adds
 * it to this survey without touching the bench.
 */

#include <cmath>
#include <iostream>
#include <vector>

#include "bench_common.h"
#include "harness/arch_plugin.h"

int
main(int argc, char **argv)
{
    using namespace drs;
    const auto options =
        bench::withoutSampling(bench::parseOptions(argc, argv));
    const auto scale = harness::ExperimentScale::fromEnvironment();
    bench::printBanner("Reordering survey: hardware vs software ray "
                       "reordering",
                       scale, options);
    bench::WallTimer timer;

    const auto &registry = harness::ArchRegistry::instance();
    const std::vector<harness::Arch> archs = registry.archs();

    std::cout << "architectures (from the plugin registry):\n";
    for (const harness::ArchPlugin *plugin : registry.plugins())
        std::cout << "  " << plugin->name() << ": " << plugin->description()
                  << "\n";
    std::cout << "\n";

    harness::SweepRunner runner(scale, options.jobs,
                                bench::makeSweepOptions(options));
    // indices[scene][arch][bounce]
    std::vector<std::vector<std::vector<std::size_t>>> indices;
    for (scene::SceneId id : scene::allSceneIds()) {
        auto &per_scene = indices.emplace_back();
        for (const harness::Arch &arch : archs) {
            const auto config = bench::makeRunConfig(scale, options);
            per_scene.push_back(
                runner.addCapture(id, arch, config, bench::kSweepBounces));
        }
    }
    bench::JsonReport report("reorder_survey", scale, options);
    const auto results = bench::runSweep(runner, options, &report);
    const double clock_ghz = harness::RunConfig{}.gpu.clockGhz;

    obs::Json &lineup = report.summary()["architectures"];
    lineup = obs::Json::array();
    for (const harness::ArchPlugin *plugin : registry.plugins()) {
        obs::Json &entry = lineup.push(obs::Json::object());
        entry["arch"] = plugin->name();
        entry["description"] = plugin->description();
        entry["counter_namespace"] = plugin->counterNamespace();
    }

    std::vector<double> geomean_accumulator(archs.size(), 0.0);
    // Scenes contributing a valid ratio, per arch: a degraded run (zero
    // cycles, watchdog abort) yields 0 or NaN Mrays/s, and log() of a
    // non-positive ratio would poison the whole geomean with -inf/NaN.
    std::vector<int> geomean_scenes(archs.size(), 0);

    std::size_t scene_index = 0;
    for (scene::SceneId id : scene::allSceneIds()) {
        stats::Table table({"arch", "B1", "B2", "B3", "overall Mrays/s",
                            "SIMD eff", "speedup vs aila"});
        double aila_overall = 0.0;
        for (std::size_t a = 0; a < archs.size(); ++a) {
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
            const double ratio =
                aila_overall > 0.0 ? overall / aila_overall : 0.0;
            table.addRow(
                {archs[a].name(), bounce_mrays(0), bounce_mrays(1),
                 bounce_mrays(2), stats::formatDouble(overall, 1),
                 stats::formatDouble(
                     capture.overall.histogram.simdEfficiency(), 3),
                 stats::formatDouble(ratio, 2) + "x"});
            if (ratio > 0.0 && std::isfinite(ratio)) {
                geomean_accumulator[a] += std::log(ratio);
                ++geomean_scenes[a];
            } else {
                std::cout << "warning: " << archs[a].name() << " on "
                          << scene::sceneName(id)
                          << " produced a non-positive speedup ratio ("
                          << ratio << "); excluded from the geomean\n";
            }

            auto &row = report.addStats(scene::sceneName(id),
                                        archs[a].name(), capture.overall,
                                        clock_ghz);
            row["mrays_per_s"] = overall;
            row["speedup_vs_aila"] = ratio;
            // The software reorderers publish what the pass did through
            // their counter namespace; surface it as first-class fields.
            if (capture.overall.counters.contains("reorder.rays")) {
                row["reorder_distinct_keys"] =
                    capture.overall.counters.value("reorder.distinct_keys");
                row["reorder_displacement_sum"] =
                    capture.overall.counters.value(
                        "reorder.displacement_sum");
            }
        }
        std::cout << "\n--- " << scene::sceneName(id) << " ---\n";
        table.print(std::cout);
        std::cout.flush();
        ++scene_index;
    }

    std::cout << "\nAverage speedup vs Aila (geometric mean over scenes):\n";
    for (std::size_t a = 0; a < archs.size(); ++a) {
        if (geomean_scenes[a] == 0) {
            std::cout << "  " << archs[a].name()
                      << ": no valid scenes (skipped)\n";
            continue;
        }
        const double geomean =
            std::exp(geomean_accumulator[a] / geomean_scenes[a]);
        std::cout << "  " << archs[a].name() << ": "
                  << stats::formatDouble(geomean, 2) << "x\n";
        report.summary()[archs[a].name() + "_geomean_speedup"] = geomean;
    }
    std::cout << "\nContext: the paper's DRS reaches 1.67x-1.92x by\n"
                 "shuffling rays between warps at run time; software\n"
                 "pre-sorting (sort, cutcode) can only compact a batch\n"
                 "before launch, so coherence decays over the bounce.\n\n";
    report.write(timer);
    bench::printElapsed(timer);
    return 0;
}
