/**
 * @file
 * The paper's four architectures as registry plugins: the Aila software
 * baseline, DRS, and the two hardware baselines (DMK, TBC). Each run()
 * only says how one SMX is built — kernel, controller or (TBC) executor;
 * detail::runStriped does the rest of the run for every plugin, and the
 * checker, fuzzer, profiler and every bench reach them through the
 * common ArchPlugin surface.
 */

#include "harness/arch_builtin.h"

#include "harness/arch_detail.h"

namespace drs::harness {

namespace {

class AilaArch : public ArchPlugin
{
  public:
    std::string name() const override { return "aila"; }
    std::string description() const override
    {
        return "software while-while kernel (Aila & Laine baseline)";
    }
    std::string counterNamespace() const override { return "smx"; }

    simt::SimStats run(const render::PathTracer &tracer,
                       std::span<const geom::Ray> rays,
                       const RunConfig &config,
                       const ArchObservers &observers,
                       const check::Checker *checker) const override
    {
        return detail::runStriped(
            rays, config, observers, checker,
            [&](std::span<const geom::Ray> stripe, std::size_t first) {
                simt::SmxSetup setup;
                setup.kernel = std::make_unique<kernels::AilaKernel>(
                    tracer.bvh(), tracer.sceneTriangles(), stripe, first,
                    config.aila);
                setup.numWarps = config.aila.numWarps;
                return setup;
            });
    }

    check::BatchCheckInputs
    checkInputs(const RunConfig &config) const override
    {
        check::BatchCheckInputs inputs;
        inputs.flavor = check::KernelFlavor::WhileWhile;
        inputs.reference = config.aila;
        inputs.simCost = config.aila.cost;
        return inputs;
    }

    void randomizeConfig(geom::Pcg32 &rng, RunConfig &config) const override
    {
        static constexpr int kWarpChoices[] = {4, 8, 16};
        config.aila.numWarps = kWarpChoices[rng.nextUInt(3)];
        config.aila.speculativeTraversal = rng.nextUInt(2) == 0;
        config.aila.anyHit = rng.nextUInt(4) == 0;
    }
};

class DrsArch : public ArchPlugin
{
  public:
    std::string name() const override { return "drs"; }
    std::string description() const override
    {
        return "while-if kernel + dynamic ray shuffling hardware (the paper)";
    }
    std::string counterNamespace() const override { return "drs"; }

    simt::SimStats run(const render::PathTracer &tracer,
                       std::span<const geom::Ray> rays,
                       const RunConfig &config,
                       const ArchObservers &observers,
                       const check::Checker *checker) const override
    {
        return detail::runStriped(
            rays, config, observers, checker,
            [&](std::span<const geom::Ray> stripe, std::size_t first) {
                kernels::DrsKernelConfig kernel_config;
                kernel_config.numWarps = config.drs.spawnableWarps();
                kernel_config.backupRows = config.drs.backupRows;
                auto kernel = std::make_unique<kernels::DrsKernel>(
                    tracer.bvh(), tracer.sceneTriangles(), stripe, first,
                    kernel_config);
                simt::SmxSetup setup;
                setup.numWarps = kernel_config.numWarps;
                setup.controller = std::make_unique<core::DrsControl>(
                    config.drs, kernel->workspace(),
                    kernel_config.numWarps);
                setup.kernel = std::move(kernel);
                return setup;
            });
    }

    check::BatchCheckInputs
    checkInputs(const RunConfig &config) const override
    {
        (void)config;
        // The DRS kernel is built with a default-config traversal (no
        // speculation, closest-hit, default cost model).
        check::BatchCheckInputs inputs;
        inputs.flavor = check::KernelFlavor::WhileIf;
        inputs.reference = kernels::AilaConfig{};
        inputs.simCost = kernels::DrsKernelConfig{}.cost;
        return inputs;
    }

    void randomizeConfig(geom::Pcg32 &rng, RunConfig &config) const override
    {
        config.drs.backupRows = static_cast<int>(rng.nextUInt(3));
        config.drs.swapBuffers = 6 + 3 * static_cast<int>(rng.nextUInt(2));
        config.drs.dispatchMinorityTolerance =
            static_cast<int>(rng.nextUInt(8));
        config.drs.idealized = rng.nextUInt(4) == 0;
        // Shrink the register file so runs stay small (~13 warps).
        config.drs.registersPerSmx = 16384;
    }
};

class DmkArch : public ArchPlugin
{
  public:
    std::string name() const override { return "dmk"; }
    std::string description() const override
    {
        return "while-if kernel + dynamic micro-kernel spawning baseline";
    }
    std::string counterNamespace() const override { return "dmk"; }

    simt::SimStats run(const render::PathTracer &tracer,
                       std::span<const geom::Ray> rays,
                       const RunConfig &config,
                       const ArchObservers &observers,
                       const check::Checker *checker) const override
    {
        return detail::runStriped(
            rays, config, observers, checker,
            [&](std::span<const geom::Ray> stripe, std::size_t first) {
                kernels::DrsKernelConfig kernel_config;
                kernel_config.numWarps = config.dmk.numWarps;
                kernel_config.backupRows = 0; // DMK regroups via spawn memory
                auto kernel = std::make_unique<kernels::DrsKernel>(
                    tracer.bvh(), tracer.sceneTriangles(), stripe, first,
                    kernel_config);
                simt::SmxSetup setup;
                setup.numWarps = kernel_config.numWarps;
                setup.controller = std::make_unique<baselines::DmkControl>(
                    config.dmk, kernel->travWorkspace());
                setup.kernel = std::move(kernel);
                return setup;
            });
    }

    check::BatchCheckInputs
    checkInputs(const RunConfig &config) const override
    {
        (void)config;
        check::BatchCheckInputs inputs;
        inputs.flavor = check::KernelFlavor::WhileIf;
        inputs.reference = kernels::AilaConfig{};
        inputs.simCost = kernels::DrsKernelConfig{}.cost;
        return inputs;
    }

    void randomizeConfig(geom::Pcg32 &rng, RunConfig &config) const override
    {
        static constexpr int kWarpChoices[] = {4, 8, 16};
        config.dmk.numWarps = kWarpChoices[rng.nextUInt(3)];
        config.dmk.spawnBanks = rng.nextUInt(2) == 0 ? 8 : 32;
    }
};

class TbcArch : public ArchPlugin
{
  public:
    std::string name() const override { return "tbc"; }
    std::string description() const override
    {
        return "while-while kernel + thread block compaction baseline";
    }
    std::string counterNamespace() const override { return "tbc"; }
    bool supportsWarpTrace() const override { return false; }

    simt::SimStats run(const render::PathTracer &tracer,
                       std::span<const geom::Ray> rays,
                       const RunConfig &config,
                       const ArchObservers &observers,
                       const check::Checker *checker) const override
    {
        kernels::AilaConfig aila = config.aila;
        aila.numWarps = config.tbc.numWarps;
        return detail::runStriped(
            rays, config, observers, checker,
            [&](std::span<const geom::Ray> stripe, std::size_t first) {
                auto kernel = std::make_unique<kernels::AilaKernel>(
                    tracer.bvh(), tracer.sceneTriangles(), stripe, first,
                    aila);
                simt::SmxSetup setup;
                setup.executor = [&tbc = config.tbc, &aila_kernel = *kernel](
                                     const simt::GpuConfig &gpu,
                                     simt::SharedMemorySide &shared) {
                    return std::make_unique<baselines::TbcSmx>(
                        gpu, tbc, aila_kernel, shared);
                };
                setup.kernel = std::move(kernel);
                return setup;
            });
    }

    check::BatchCheckInputs
    checkInputs(const RunConfig &config) const override
    {
        // TBC runs the while-while kernel with config.aila's semantics
        // but reports no per-block issue stats: hits only.
        check::BatchCheckInputs inputs;
        inputs.flavor = check::KernelFlavor::WhileWhile;
        inputs.hasBlockIssue = false;
        inputs.reference = config.aila;
        inputs.simCost = config.aila.cost;
        return inputs;
    }

    void randomizeConfig(geom::Pcg32 &rng, RunConfig &config) const override
    {
        config.tbc.warpsPerBlock = 2 + static_cast<int>(rng.nextUInt(2));
        config.tbc.numWarps =
            config.tbc.warpsPerBlock * (2 + static_cast<int>(rng.nextUInt(3)));
        config.aila.speculativeTraversal = rng.nextUInt(2) == 0;
        config.aila.anyHit = rng.nextUInt(4) == 0;
    }
};

} // namespace

namespace detail {

std::unique_ptr<const ArchPlugin>
makeAilaArch()
{
    return std::make_unique<AilaArch>();
}

std::unique_ptr<const ArchPlugin>
makeDrsArch()
{
    return std::make_unique<DrsArch>();
}

std::unique_ptr<const ArchPlugin>
makeDmkArch()
{
    return std::make_unique<DmkArch>();
}

std::unique_ptr<const ArchPlugin>
makeTbcArch()
{
    return std::make_unique<TbcArch>();
}

} // namespace detail

} // namespace drs::harness
