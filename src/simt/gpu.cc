#include "simt/gpu.h"

#include <algorithm>
#include <stdexcept>

#include "simt/engine.h"

namespace drs::simt {

namespace {

std::vector<std::string>
blockNames(const Program &program)
{
    std::vector<std::string> names;
    names.reserve(static_cast<std::size_t>(program.blockCount()));
    for (int b = 0; b < program.blockCount(); ++b)
        names.push_back(program.block(b).name);
    return names;
}

} // namespace

SimStats
runGpu(const GpuConfig &config, const SmxFactory &factory,
       const GpuRunOptions &options)
{
    if (config.numSmx < 1)
        throw std::invalid_argument("runGpu: numSmx must be >= 1");

    SharedMemorySide shared(config.memory);

    // One private injector per SMX plus one for the shared side. The
    // shared injector's RNG only advances from accessLine calls, which
    // the SMXs make as they issue while the engine steps them in index
    // order, so its fault sequence does not depend on which cycles an
    // SMX skips.
    std::vector<std::unique_ptr<fault::FaultInjector>> injectors;
    std::unique_ptr<fault::FaultInjector> sharedInjector;
    if (options.fault.enabled()) {
        injectors.reserve(static_cast<std::size_t>(config.numSmx));
        for (int i = 0; i < config.numSmx; ++i)
            injectors.push_back(std::make_unique<fault::FaultInjector>(
                options.fault, static_cast<std::uint64_t>(i)));
        sharedInjector = std::make_unique<fault::FaultInjector>(
            options.fault,
            static_cast<std::uint64_t>(config.numSmx) + 0x10000u);
        shared.setFault(sharedInjector.get());
    }

    // Two-phase construction: the Smx needs the kernel and the controller
    // needs the Smx (for shuffle-stat callbacks), so SMXs are built with a
    // placeholder and wired immediately after.
    struct Unit
    {
        SmxSetup setup;
        std::unique_ptr<SmxExecutor> smx;
    };
    std::vector<Unit> units;
    units.reserve(static_cast<std::size_t>(config.numSmx));

    for (int i = 0; i < config.numSmx; ++i) {
        Unit unit;
        unit.setup = factory(i);
        if (!unit.setup.kernel)
            throw std::invalid_argument("SMX factory returned no kernel");
        if (unit.setup.executor) {
            if (unit.setup.controller)
                throw std::invalid_argument(
                    "SMX factory returned a controller for a custom "
                    "executor");
            unit.smx = unit.setup.executor(config, shared);
        } else {
            auto smx = std::make_unique<Smx>(
                config, *unit.setup.kernel, unit.setup.controller.get(),
                unit.setup.numWarps, shared);
            if (unit.setup.controller)
                unit.setup.controller->attach(*smx);
            if (options.trace != nullptr) {
                obs::Tracer &tracer = options.trace->smx(i);
                tracer.setBlockNames(
                    blockNames(unit.setup.kernel->program()));
                smx->setTracer(&tracer);
            }
            unit.smx = std::move(smx);
        }
        unit.smx->setCheck(options.check);
        if (options.fault.enabled())
            unit.smx->setFault(injectors[static_cast<std::size_t>(i)].get());
        if (options.attribution != nullptr) {
            if (i == 0)
                options.attribution->setBlockNames(
                    blockNames(unit.setup.kernel->program()));
            unit.smx->setAttribution(&options.attribution->smx(i));
        }
        if (options.sampler != nullptr) {
            obs::TimeSampler &sampler = options.sampler->smx(i);
            const obs::SampleConfig &sample = options.sampler->config();
            sampler.enable(sample.interval, sample.capacity,
                           options.attribution != nullptr
                               ? &options.attribution->smx(i)
                               : nullptr);
            unit.smx->setSampler(&sampler);
        }
        units.push_back(std::move(unit));
    }

    std::vector<SmxExecutor *> smxs;
    smxs.reserve(units.size());
    for (auto &unit : units)
        smxs.push_back(unit.smx.get());
    fault::Watchdog watchdog(options.watchdogCycles);
    runEngine(smxs, options.maxCycles,
              watchdog.enabled() ? &watchdog : nullptr, options.cancel);

    SimStats total;
    for (std::size_t i = 0; i < units.size(); ++i) {
        SimStats stats = units[i].smx->collectStats();
        if (options.perSmxStats)
            options.perSmxStats(static_cast<int>(i), stats);
        if (options.onSmxRetire)
            options.onSmxRetire(static_cast<int>(i),
                                *units[i].setup.kernel);
        total.merge(stats);
    }
    total.l2 = shared.l2Stats();
    total.counters.add("l2.access", total.l2.accesses);
    total.counters.add("l2.miss", total.l2.misses);
    if (sharedInjector) {
        const fault::FaultCounters &f = sharedInjector->counters();
        total.counters.add("fault.cache_tag_flips", f.cacheTagFlips);
        total.counters.add("fault.dram_delayed", f.dramDelayed);
        total.counters.add("fault.dram_dropped", f.dramDropped);
    }
    return total;
}

SimStats
runGpu(const GpuConfig &config, const SmxFactory &factory,
       std::uint64_t max_cycles)
{
    GpuRunOptions options;
    options.maxCycles = max_cycles;
    return runGpu(config, factory, options);
}

std::pair<std::size_t, std::size_t>
rayStripe(std::size_t total_rays, int num_smx, int smx_index, int warp_size)
{
    if (num_smx < 1 || warp_size < 1)
        throw std::invalid_argument(
            "rayStripe: num_smx and warp_size must be >= 1");
    if (smx_index < 0 || smx_index >= num_smx)
        throw std::invalid_argument("rayStripe: smx_index out of range");

    const std::size_t groups =
        (total_rays + static_cast<std::size_t>(warp_size) - 1) /
        static_cast<std::size_t>(warp_size);
    const std::size_t per_smx =
        groups / static_cast<std::size_t>(num_smx);
    const std::size_t remainder =
        groups % static_cast<std::size_t>(num_smx);

    const auto idx = static_cast<std::size_t>(smx_index);
    const std::size_t my_groups = per_smx + (idx < remainder ? 1 : 0);
    const std::size_t first_group =
        idx * per_smx + std::min(idx, remainder);

    const std::size_t first = first_group * static_cast<std::size_t>(warp_size);
    if (first >= total_rays)
        return {total_rays, 0};
    const std::size_t count =
        std::min(my_groups * static_cast<std::size_t>(warp_size),
                 total_rays - first);
    return {first, count};
}

} // namespace drs::simt
