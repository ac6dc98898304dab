#pragma once

/**
 * @file
 * Experiment harness: glues scenes, ray captures and the simulated
 * architectures into the runs the paper's figures and tables report.
 * Used by the bench binaries, the examples and the integration tests.
 *
 * Architectures are resolved through the plugin registry
 * (harness/arch_plugin.h): runBatch accepts any registered Arch handle,
 * so the built-in lineup (aila, drs, dmk, tbc, sort, cutcode, ser,
 * pathpred) and runtime-registered plugins all run through the same
 * entry points.
 */

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "baselines/dmk_control.h"
#include "baselines/ser_control.h"
#include "baselines/tbc_smx.h"
#include "core/drs_config.h"
#include "core/drs_control.h"
#include "harness/arch.h"
#include "kernels/aila_kernel.h"
#include "kernels/drs_kernel.h"
#include "kernels/pathpred_kernel.h"
#include "obs/attribution.h"
#include "obs/sampler.h"
#include "obs/trace.h"
#include "render/path_tracer.h"
#include "reorder/reorder.h"
#include "scene/scenes.h"
#include "simt/gpu.h"

namespace drs::harness {

/**
 * Profiler output of one runBatch call (cycle attribution + sampled
 * timeline), harvested when RunConfig::observationsOut is set and
 * sampling is enabled. Side channel by design: SimStats stay
 * bit-identical with profiling on or off (the pure-observer contract),
 * so profiler results must never live inside them.
 */
struct RunObservations
{
    /** Per-SMX issue-slot ledgers (merged view via collector). */
    std::unique_ptr<obs::AttributionCollector> attribution;
    /** Per-SMX windowed timelines. */
    std::unique_ptr<obs::SamplerCollector> sampler;
    /** SIMD width, for instantaneous-efficiency reporting. */
    int simdLanes = 32;
    /** True when the run had tracing enabled (counters below valid). */
    bool traced = false;
    /** Trace events recorded across all SMX rings (incl. overwritten). */
    std::uint64_t traceRecorded = 0;
    /** Trace events lost to ring wrap-around (capacity exceeded). */
    std::uint64_t traceDropped = 0;
};

/** Everything configurable about one experiment run. */
struct RunConfig
{
    simt::GpuConfig gpu{};
    core::DrsConfig drs{};
    baselines::DmkConfig dmk{};
    baselines::TbcConfig tbc{};
    kernels::AilaConfig aila{};
    /** Software-reordering knobs (the "sort"/"cutcode" architectures). */
    reorder::ReorderConfig reorder{};
    /** SER-style shading-boundary reordering (the "ser" architecture). */
    baselines::SerConfig ser{};
    /** Ray-path prediction knobs (the "pathpred" architecture). */
    kernels::PathPredConfig pathpred{};
    std::uint64_t maxCycles = 2'000'000'000ULL;
    /**
     * Unread: one engine on one host thread runs every simulation. The
     * member stays only because perfbench assigns it and stores it
     * beside every stored SimStats digest, and only a benchmark change
     * may edit perfbench/. The benchmark change of ROADMAP item 2
     * deletes it together with perfbench's smx_threads key.
     */
    int smxThreads = 1;
    /**
     * Cycle-level event tracing (see obs::TraceConfig, usually from the
     * DRS_TRACE environment variable). When enabled, runBatch writes a
     * Chrome trace_event JSON file after the run; concurrent runs
     * overwrite whole files, so trace with --jobs 1. The TBC baseline's
     * block executor has no warp-level tracing and ignores this.
     * Tracing never alters SimStats.
     */
    obs::TraceConfig trace{};
    /**
     * Windowed time-series sampling (see obs::SampleConfig, usually from
     * the DRS_SAMPLE environment variable). Enabling it also enables
     * issue-slot attribution, so timeline frames carry slot breakdowns.
     * Pure observation: SimStats are bit-identical either way.
     */
    obs::SampleConfig sample{};
    /**
     * When set and sampling is enabled, runBatch deposits the profiler
     * collectors (attribution + timeline) here after the run.
     */
    RunObservations *observationsOut = nullptr;
    /**
     * When set, runBatch stores each traced ray's hit record at the
     * ray's global batch index (resizing as needed). Used by the
     * differential tests to compare per-ray results across
     * architectures.
     */
    std::vector<geom::Hit> *hitsOut = nullptr;
    /**
     * Per-SMX stats hook, invoked in SMX-index order after the run with
     * each SMX's own (pre-merge) statistics.
     */
    std::function<void(int smx_index, const simt::SimStats &stats)>
        perSmxStats;
    /**
     * Invariant checking (src/check): cycle-level assertions inside the
     * simulators plus a lockstep functional reference cross-checking
     * every hit and the traversal visit counts after the run. 0 = off,
     * 1 = on, -1 (default) = follow the DRS_CHECK environment variable.
     * Checking never alters SimStats; violations throw
     * check::InvariantViolation (a std::logic_error) out of runBatch.
     */
    int check = -1;
    /**
     * Fault injection (src/fault). Disabled by default (seed == 0): no
     * injector exists and runs are bit-identical to a faultless build.
     * With a seed, deterministic faults (ray bit flips at swap
     * boundaries, cache tag corruption, delayed/dropped DRAM responses)
     * are injected — same seed, same faults, same SimStats, at any
     * --jobs. Usually populated from DRS_FAULT_SEED via
     * fault::FaultConfig::fromEnvironment().
     */
    fault::FaultConfig fault{};
    /**
     * Forward-progress watchdog budget in cycles (0 = off): when no ray
     * completes and no warp/block exits for this many cycles, the run
     * aborts with fault::WatchdogTimeout carrying a diagnostic dump.
     */
    std::uint64_t watchdogCycles = 0;
    /** Cooperative stop/deadline token polled by the engines (may be null). */
    const exec::CancelToken *cancel = nullptr;
};

/**
 * Trace one ray batch on @p arch.
 *
 * The batch is only viewed, never copied: each SMX's kernel receives a
 * subspan of @p rays (its stripe), so the caller must keep the batch
 * alive for the duration of the call.
 *
 * @param arch registered architecture to simulate (see ArchRegistry)
 * @param tracer path tracer owning scene + BVH
 * @param rays the batch (one bounce of a capture)
 * @param config run configuration
 * @return aggregated GPU statistics
 * @throws std::invalid_argument for an unregistered architecture
 */
simt::SimStats runBatch(const Arch &arch, const render::PathTracer &tracer,
                        std::span<const geom::Ray> rays,
                        const RunConfig &config = {});

/** Per-bounce plus overall results of tracing a full capture. */
struct CaptureResult
{
    std::vector<simt::SimStats> perBounce; ///< index 0 = bounce 1
    simt::SimStats overall;                ///< merged across bounces

    /** Overall Mrays/s: total rays / summed cycles (paper Section 4.4). */
    double overallMrays(double clock_ghz) const;
};

/**
 * Trace every bounce of @p trace on @p arch.
 *
 * @param max_bounces 0 = all captured bounces
 */
CaptureResult runCapture(Arch arch, const render::PathTracer &tracer,
                         const render::RayTrace &trace,
                         const RunConfig &config = {}, int max_bounces = 0);

/**
 * Environment-tunable experiment scale so the full paper-sized runs stay
 * reachable: DRS_RAYS (rays per bounce), DRS_SCALE (scene tessellation),
 * DRS_SMX (simulated SMX count), DRS_SPP (samples per pixel),
 * DRS_WIDTH/DRS_HEIGHT (film size).
 */
struct ExperimentScale
{
    std::size_t raysPerBounce = 500'000; ///< paper: 2'000'000
    float sceneScale = 0.25f;            ///< paper: 1.0 (full meshes)
    int numSmx = 15;                     ///< Table 1: 15
    int width = 640;                     ///< paper resolution
    int height = 480;
    int samplesPerPixel = 2;             ///< paper: 64
    int maxDepth = 8;                  ///< paper: 8

    /** Read overrides from the environment. */
    static ExperimentScale fromEnvironment();

    /** Scales are cache keys (PreparedSceneCache). */
    bool operator==(const ExperimentScale &) const = default;
};

/**
 * Build scene + tracer + capture for one benchmark scene. The scene is
 * heap-allocated because the tracer holds a reference to it: the struct
 * stays safely movable.
 */
struct PreparedScene
{
    std::unique_ptr<scene::Scene> scenePtr;
    std::unique_ptr<render::PathTracer> tracer;
    render::RayTrace trace;

    const scene::Scene &scene() const { return *scenePtr; }
};

PreparedScene prepareScene(scene::SceneId id, const ExperimentScale &scale);

} // namespace drs::harness
