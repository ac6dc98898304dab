#pragma once

/**
 * @file
 * Shared plumbing of the built-in architecture plugins (arch_builtin.cc,
 * arch_survey.cc, arch_reorder.cc): the one striped GPU run every plugin
 * goes through, and the hit harvesting and scatter around it. Internal
 * to src/harness.
 */

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <string>

#include "harness/arch_plugin.h"
#include "kernels/trav_workspace.h"

namespace drs::harness::detail {

/**
 * Scatter hits collected at sorted positions back to original batch
 * indices: out[order[p]] = sorted_hits[p]. A short @p sorted_hits means
 * the inner run dropped rays (a harness bug, not a user error) — fail
 * loudly instead of reading past the end.
 */
inline void
scatterHits(const std::vector<std::uint32_t> &order,
            const std::vector<geom::Hit> &sorted_hits,
            std::vector<geom::Hit> &out)
{
    if (sorted_hits.size() < order.size())
        throw std::logic_error(
            "scatterHits: inner run produced " +
            std::to_string(sorted_hits.size()) + " hits for a " +
            std::to_string(order.size()) +
            "-ray permutation (rays were dropped)");
    if (out.size() < order.size())
        out.resize(order.size());
    for (std::size_t p = 0; p < order.size(); ++p)
        out[order[p]] = sorted_hits[p];
}

/**
 * Copy one SMX's per-stripe hit records into the global hits vector. The
 * retire hooks run serially in SMX-index order, so plain resize+copy is
 * safe.
 */
inline void
harvestHits(const kernels::TravWorkspace &workspace,
            std::vector<geom::Hit> &out)
{
    const auto &results = workspace.results();
    const std::size_t first = workspace.firstRay();
    if (out.size() < first + results.size())
        out.resize(first + results.size());
    std::copy(results.begin(), results.end(),
              out.begin() + static_cast<std::ptrdiff_t>(first));
}

/**
 * Builds one SMX's setup — its kernel, plus a controller or another
 * executor — over @p stripe, the batch's rays from index @p first on.
 */
using StripeSetup = std::function<simt::SmxSetup(
    std::span<const geom::Ray> stripe, std::size_t first)>;

/**
 * The run of every built-in plugin: stripe @p rays across the GPU's SMXs
 * (simt::rayStripe), build each SMX with @p setup, and drive
 * simt::runGpu with @p config's engine options, @p observers and
 * @p checker. One retire hook serves every plugin, since each ray
 * kernel's workspace() is a kernels::TravWorkspace: under a checker it
 * verifies the workspace, and with hitsOut it harvests the hits.
 */
inline simt::SimStats
runStriped(std::span<const geom::Ray> rays, const RunConfig &config,
           const ArchObservers &observers, const check::Checker *checker,
           const StripeSetup &setup)
{
    simt::GpuRunOptions options;
    options.maxCycles = config.maxCycles;
    options.trace = observers.trace;
    options.attribution = observers.attribution;
    options.sampler = observers.sampler;
    options.perSmxStats = config.perSmxStats;
    options.check = checker;
    options.fault = config.fault;
    options.watchdogCycles = config.watchdogCycles;
    options.cancel = config.cancel;
    if (config.hitsOut != nullptr || checker != nullptr)
        options.onSmxRetire = [&](int, simt::Kernel &kernel) {
            const auto &workspace =
                static_cast<kernels::TravWorkspace &>(kernel.workspace());
            if (checker != nullptr)
                check::verifyWorkspace(workspace, /*strict=*/true);
            if (config.hitsOut != nullptr)
                harvestHits(workspace, *config.hitsOut);
        };
    return simt::runGpu(
        config.gpu,
        [&](int smx) {
            auto [first, count] = simt::rayStripe(
                rays.size(), config.gpu.numSmx, smx, config.gpu.simdLanes);
            return setup(rays.subspan(first, count), first);
        },
        options);
}

} // namespace drs::harness::detail
