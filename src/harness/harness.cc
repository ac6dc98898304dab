#include "harness/harness.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <stdexcept>

#include "check/check.h"
#include "check/reference.h"
#include "harness/arch_plugin.h"

namespace drs::harness {

namespace {

simt::SimStats
runBatchImpl(const ArchPlugin &plugin, const render::PathTracer &tracer,
             std::span<const geom::Ray> rays, const RunConfig &config,
             const check::Checker *checker)
{
    // Trace collection is scoped to the batch: the collector is built
    // here, filled during the run, and written afterwards so tracing
    // stays invisible to the simulation itself. Plugins without
    // warp-level tracing (TBC's block executor) skip it.
    std::unique_ptr<obs::TraceCollector> collector;
    if (config.trace.enabled && plugin.supportsWarpTrace())
        collector = std::make_unique<obs::TraceCollector>(
            config.gpu.numSmx, config.trace.capacity);

    // Issue-slot attribution runs whenever sampling asks for it or a
    // checker is attached (the ledger's conservation invariant is part
    // of the DRS_CHECK surface); the timeline sampler only on request.
    // All of it is scoped to the batch, exactly like the trace ring.
    std::unique_ptr<obs::AttributionCollector> attribution;
    if (config.sample.enabled || checker != nullptr)
        attribution = std::make_unique<obs::AttributionCollector>(
            config.gpu.numSmx,
            config.gpu.schedulersPerSmx * config.gpu.issuesPerScheduler());
    std::unique_ptr<obs::SamplerCollector> sampler;
    if (config.sample.enabled)
        sampler = std::make_unique<obs::SamplerCollector>(config.gpu.numSmx,
                                                          config.sample);

    ArchObservers observers;
    observers.trace = collector.get();
    observers.attribution = attribution.get();
    observers.sampler = sampler.get();

    simt::SimStats stats =
        plugin.run(tracer, rays, config, observers, checker);

    if (collector) {
        // Whole-file writes from concurrent sweep jobs would interleave;
        // the mutex keeps each file internally consistent (the last
        // writer wins — trace with --jobs 1 for a specific run).
        static std::mutex write_mutex;
        const std::lock_guard<std::mutex> lock(write_mutex);
        std::string error;
        if (!collector->writeFile(config.trace.path, &error,
                                  sampler.get()))
            std::fprintf(stderr, "warning: trace not written: %s\n",
                         error.c_str());
    }

    if (config.observationsOut != nullptr &&
        (config.sample.enabled || collector)) {
        if (config.sample.enabled) {
            config.observationsOut->attribution = std::move(attribution);
            config.observationsOut->sampler = std::move(sampler);
        }
        config.observationsOut->simdLanes = config.gpu.simdLanes;
        if (collector) {
            config.observationsOut->traced = true;
            for (int i = 0; i < collector->smxCount(); ++i) {
                config.observationsOut->traceRecorded +=
                    collector->smx(i).recorded();
                config.observationsOut->traceDropped +=
                    collector->smx(i).dropped();
            }
        }
    }
    return stats;
}

} // namespace

simt::SimStats
runBatch(const Arch &arch, const render::PathTracer &tracer,
         std::span<const geom::Ray> rays, const RunConfig &config)
{
    // Throws std::invalid_argument (naming the registered lineup) for an
    // architecture nobody registered.
    const ArchPlugin &plugin = ArchRegistry::instance().get(arch);

    // Fault injection deliberately corrupts in-flight ray state (swap
    // bit flips, cache tag corruption), so the fault-free lockstep
    // reference cannot agree with a faulted run — checking would report
    // every injected fault as a simulator bug. The checker only attaches
    // to clean runs; fault campaigns validate determinism and
    // conservation through their own suite instead.
    if (config.fault.seed != 0 || !check::checkEnabled(config.check))
        return runBatchImpl(plugin, tracer, rays, config, nullptr);

    // Checked run: thread the checker through the simulators, collect
    // per-ray hits locally, and cross-check the finished run against the
    // lockstep reference interpreter. Results are untouched — the hits
    // the caller asked for are copied out exactly as an unchecked run
    // would have produced them.
    const check::Checker checker;
    std::vector<geom::Hit> hits;
    RunConfig checked = config;
    checked.hitsOut = &hits;
    const simt::SimStats stats =
        runBatchImpl(plugin, tracer, rays, checked, &checker);

    check::verifyBatch(tracer.bvh(), tracer.sceneTriangles(), rays, stats,
                       hits, plugin.checkInputs(config));

    if (config.hitsOut != nullptr) {
        if (config.hitsOut->size() < hits.size())
            config.hitsOut->resize(hits.size());
        std::copy(hits.begin(), hits.end(), config.hitsOut->begin());
    }
    return stats;
}

double
CaptureResult::overallMrays(double clock_ghz) const
{
    // Paper Section 4.4: total rays traced in all bounces over total
    // cycles of all bounces.
    std::uint64_t cycles = 0;
    std::uint64_t rays = 0;
    for (const auto &b : perBounce) {
        cycles += b.cycles;
        rays += b.raysTraced;
    }
    if (cycles == 0)
        return 0.0;
    const double seconds = static_cast<double>(cycles) / (clock_ghz * 1e9);
    return static_cast<double>(rays) / seconds / 1e6;
}

CaptureResult
runCapture(Arch arch, const render::PathTracer &tracer,
           const render::RayTrace &trace, const RunConfig &config,
           int max_bounces)
{
    CaptureResult result;
    for (const auto &bounce : trace.bounces) {
        if (max_bounces > 0 && bounce.bounce > max_bounces)
            break;
        if (bounce.empty())
            continue;
        simt::SimStats stats = runBatch(arch, tracer, bounce.rays, config);
        result.overall.merge(stats);
        result.perBounce.push_back(std::move(stats));
    }
    // "cycles" of the overall stats should accumulate bounces, not take
    // the max (bounces run back-to-back).
    std::uint64_t cycles = 0;
    for (const auto &b : result.perBounce)
        cycles += b.cycles;
    result.overall.cycles = cycles;
    return result;
}

ExperimentScale
ExperimentScale::fromEnvironment()
{
    ExperimentScale scale;
    auto read_env = [](const char *name, auto &value) {
        const char *s = std::getenv(name);
        if (!s)
            return;
        // Parse strictly: a malformed or non-positive value would
        // otherwise silently fall back to the default and corrupt a
        // sweep without anyone noticing.
        char *end = nullptr;
        const double v = std::strtod(s, &end);
        while (end && *end != '\0' &&
               std::isspace(static_cast<unsigned char>(*end)))
            ++end;
        if (end == s || *end != '\0') {
            std::fprintf(stderr,
                         "warning: ignoring malformed %s=\"%s\" "
                         "(not a number)\n",
                         name, s);
            return;
        }
        if (!(v > 0)) { // also catches NaN
            std::fprintf(stderr,
                         "warning: ignoring %s=\"%s\" "
                         "(must be positive)\n",
                         name, s);
            return;
        }
        value = static_cast<std::remove_reference_t<decltype(value)>>(v);
    };
    read_env("DRS_RAYS", scale.raysPerBounce);
    read_env("DRS_SCALE", scale.sceneScale);
    read_env("DRS_SMX", scale.numSmx);
    read_env("DRS_WIDTH", scale.width);
    read_env("DRS_HEIGHT", scale.height);
    read_env("DRS_SPP", scale.samplesPerPixel);
    return scale;
}

PreparedScene
prepareScene(scene::SceneId id, const ExperimentScale &scale)
{
    PreparedScene prepared;
    prepared.scenePtr = std::make_unique<scene::Scene>(
        scene::makeScene(id, scale.sceneScale));
    render::RenderConfig render_config;
    render_config.width = scale.width;
    render_config.height = scale.height;
    render_config.samplesPerPixel = scale.samplesPerPixel;
    render_config.maxDepth = scale.maxDepth;
    prepared.tracer = std::make_unique<render::PathTracer>(
        *prepared.scenePtr, render_config);
    prepared.trace = prepared.tracer->capture(scale.raysPerBounce);
    return prepared;
}

} // namespace drs::harness
