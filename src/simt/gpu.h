#pragma once

/**
 * @file
 * GPU top level: a set of SMXs sharing an L2, each running one kernel
 * instance over its stripe of the input ray batch. Mirrors the paper's
 * evaluation flow: a batch of rays (one bounce of a capture) is traced to
 * completion and statistics are aggregated.
 */

#include <functional>
#include <memory>
#include <vector>

#include "exec/cancel.h"
#include "fault/fault.h"
#include "obs/attribution.h"
#include "obs/sampler.h"
#include "obs/trace.h"
#include "simt/check.h"
#include "simt/config.h"
#include "simt/controller.h"
#include "simt/kernel.h"
#include "simt/memory.h"
#include "simt/sim_stats.h"
#include "simt/smx.h"

namespace drs::simt {

/** Everything one SMX needs: its kernel and its executor's parts. */
struct SmxSetup
{
    std::unique_ptr<Kernel> kernel;
    std::unique_ptr<WarpController> controller; ///< may be null (baseline)
    int numWarps = 48;
    /**
     * Builds another executor over `kernel` (e.g. baselines::TbcSmx);
     * empty means a plain Smx with `controller` and `numWarps`. A custom
     * executor takes no controller and records no warp trace.
     */
    std::function<std::unique_ptr<SmxExecutor>(const GpuConfig &config,
                                               SharedMemorySide &shared)>
        executor;
};

/**
 * Factory invoked once per SMX; @p smx_index selects the ray stripe. The
 * returned controller (if any) is attach()ed to its Smx after
 * construction so it can report shuffle statistics.
 */
using SmxFactory = std::function<SmxSetup(int smx_index)>;

/** Execution options of one runGpu invocation. */
struct GpuRunOptions
{
    /** Safety bound; stats.cycles < maxCycles on success. */
    std::uint64_t maxCycles = 2'000'000'000ULL;
    /**
     * Optional cycle-level event tracing: when set, SMX i records into
     * collector tracer i (the collector must hold >= numSmx tracers).
     * Pure observation — SimStats are identical with tracing on or off.
     */
    obs::TraceCollector *trace = nullptr;
    /**
     * Optional issue-slot attribution: when set, SMX i records into
     * ledger i (the collector must hold >= numSmx ledgers enabled for
     * schedulersPerSmx x issuesPerScheduler slots per cycle). Pure
     * observation, like the tracer.
     */
    obs::AttributionCollector *attribution = nullptr;
    /**
     * Optional windowed time-series sampling: when set, SMX i records
     * into sampler i (the collector must hold >= numSmx samplers).
     * Requires `attribution` when timeline slot breakdowns are wanted;
     * pure observation either way.
     */
    obs::SamplerCollector *sampler = nullptr;
    /**
     * Observability hook: called once per SMX (in index order, after the
     * engine drained) with that SMX's own statistics, before they are
     * merged into the aggregate. Used by the counter-consistency tests
     * and by per-SMX reporting.
     */
    std::function<void(int smx_index, const SimStats &stats)> perSmxStats;
    /**
     * Called once per SMX (in index order, after the engine drained)
     * with the kernel instance, before it is destroyed. Lets callers
     * harvest per-ray results (e.g. hit records for the differential
     * tests) that live in the kernel's workspace.
     */
    std::function<void(int smx_index, Kernel &kernel)> onSmxRetire;
    /**
     * Invariant checker attached to every SMX (nullptr = off). Checking
     * never alters SimStats; violations throw std::logic_error out of
     * runGpu. See src/check and DESIGN.md, "Correctness".
     */
    const CheckContext *check = nullptr;
    /**
     * Fault-injection configuration (disabled by default: seed == 0).
     * When enabled, every SMX gets a private deterministic injector
     * (stream derived from seed and SMX index) arming L1 tag corruption
     * and swap-boundary ray bit flips, and the shared L2/DRAM side gets
     * its own injector whose RNG advances at each L2 access, in the
     * engine's SMX-index step order — so fault sequences do not depend
     * on which cycles an SMX skips. Disabled, no injector exists and
     * execution is bit-identical to a build without the fault layer.
     */
    fault::FaultConfig fault{};
    /**
     * Forward-progress watchdog budget in cycles (0 = off). When no ray
     * completes and no warp exits for this many cycles, runGpu throws
     * fault::WatchdogTimeout with a diagnostic dump of every SMX.
     */
    std::uint64_t watchdogCycles = 0;
    /** Cooperative stop/deadline token polled at every event (may be null). */
    const exec::CancelToken *cancel = nullptr;
};

/**
 * Run one ray batch to completion on a simulated GPU. Every
 * architecture's SMXs run through here.
 *
 * @param config GPU parameters (Table 1 defaults)
 * @param factory per-SMX kernel/controller factory
 * @param options engine options (cycle bound, observers, watchdog)
 * @return aggregated statistics (cycles = slowest SMX)
 */
SimStats runGpu(const GpuConfig &config, const SmxFactory &factory,
                const GpuRunOptions &options);

/** Convenience overload: default options with a cycle bound. */
SimStats runGpu(const GpuConfig &config, const SmxFactory &factory,
                std::uint64_t max_cycles = 2'000'000'000ULL);

/**
 * Split @p total_rays into per-SMX stripes of whole 32-ray groups, so
 * consecutive rays stay in the same warp fetch (preserving primary-ray
 * coherence like the real persistent-threads global ray pool).
 *
 * @return (first_ray, count) for @p smx_index of @p num_smx
 */
std::pair<std::size_t, std::size_t> rayStripe(std::size_t total_rays,
                                              int num_smx, int smx_index,
                                              int warp_size = 32);

} // namespace drs::simt
