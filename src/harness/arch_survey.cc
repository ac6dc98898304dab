/**
 * @file
 * The survey-completing architecture plugins: "ser" (SER-style reordering
 * at the traversal->shading boundary, inside the kernel) and "pathpred"
 * (hash-based ray-path prediction that prunes traversal via a validated
 * leaf probe). Both keep hits bitwise identical to the Aila baseline —
 * ser because traversal is untouched, pathpred by the probe-only-shrinks-
 * tMax argument in kernels/pathpred_kernel.h.
 */

#include "harness/arch_builtin.h"

#include "baselines/ser_control.h"
#include "harness/arch_detail.h"
#include "kernels/pathpred_kernel.h"
#include "kernels/ser_kernel.h"

namespace drs::harness {

namespace {

class SerArch : public ArchPlugin
{
  public:
    std::string name() const override { return "ser"; }
    std::string description() const override
    {
        return "while-if kernel + SER-style reordering at the shading "
               "boundary";
    }
    std::string counterNamespace() const override { return "ser"; }

    simt::SimStats run(const render::PathTracer &tracer,
                       std::span<const geom::Ray> rays,
                       const RunConfig &config,
                       const ArchObservers &observers,
                       const check::Checker *checker) const override
    {
        return detail::runStriped(
            rays, config, observers, checker,
            [&](std::span<const geom::Ray> stripe, std::size_t first) {
                kernels::SerKernelConfig kernel_config;
                kernel_config.numWarps = config.ser.numWarps;
                kernel_config.cutSize = config.ser.cutSize;
                auto kernel = std::make_unique<kernels::SerKernel>(
                    tracer.bvh(), tracer.sceneTriangles(), stripe, first,
                    kernel_config);
                simt::SmxSetup setup;
                setup.numWarps = kernel_config.numWarps;
                setup.controller = std::make_unique<baselines::SerControl>(
                    config.ser, *kernel);
                setup.kernel = std::move(kernel);
                return setup;
            });
    }

    check::BatchCheckInputs
    checkInputs(const RunConfig &config) const override
    {
        (void)config;
        // Traversal is the default while-if configuration (closest hit,
        // no speculation); the shade block only adds issue slots.
        check::BatchCheckInputs inputs;
        inputs.flavor = check::KernelFlavor::WhileIf;
        inputs.reference = kernels::AilaConfig{};
        inputs.simCost = kernels::SerKernelConfig{}.cost;
        return inputs;
    }

    void randomizeConfig(geom::Pcg32 &rng, RunConfig &config) const override
    {
        static constexpr int kWarpChoices[] = {4, 8, 16};
        config.ser.numWarps = kWarpChoices[rng.nextUInt(3)];
        config.ser.shadeBatch = rng.nextUInt(2) == 0 ? 8 : 32;
        config.ser.cutSize = rng.nextUInt(2) == 0 ? 64 : 256;
    }
};

class PathPredArch : public ArchPlugin
{
  public:
    std::string name() const override { return "pathpred"; }
    std::string description() const override
    {
        return "while-while kernel + hash-based ray-path prediction "
               "(validated leaf probe)";
    }
    std::string counterNamespace() const override { return "pathpred"; }

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
                setup.kernel = std::make_unique<kernels::PathPredKernel>(
                    tracer.bvh(), tracer.sceneTriangles(), stripe, first,
                    config.pathpred);
                setup.numWarps = config.pathpred.numWarps;
                return setup;
            });
    }

    check::BatchCheckInputs
    checkInputs(const RunConfig &config) const override
    {
        check::BatchCheckInputs inputs;
        inputs.flavor = check::KernelFlavor::WhileWhile;
        // The probe adds leaf visits the baseline doesn't have (and prunes
        // inner visits), so per-block issue comparison doesn't apply; hit
        // identity is the contract.
        inputs.hasBlockIssue = false;
        kernels::AilaConfig reference;
        reference.anyHit = config.pathpred.anyHit;
        inputs.reference = reference;
        inputs.simCost = config.pathpred.cost;
        return inputs;
    }

    void randomizeConfig(geom::Pcg32 &rng, RunConfig &config) const override
    {
        static constexpr int kWarpChoices[] = {4, 8, 16};
        config.pathpred.numWarps = kWarpChoices[rng.nextUInt(3)];
        config.pathpred.predictor.tableBits =
            8 + static_cast<int>(rng.nextUInt(7));
        config.pathpred.predictor.originBits =
            5 + static_cast<int>(rng.nextUInt(4));
        config.pathpred.predictor.directionBits =
            2 + static_cast<int>(rng.nextUInt(3));
        config.pathpred.anyHit = rng.nextUInt(4) == 0;
    }
};

} // namespace

namespace detail {

std::unique_ptr<const ArchPlugin>
makeSerArch()
{
    return std::make_unique<SerArch>();
}

std::unique_ptr<const ArchPlugin>
makePathPredArch()
{
    return std::make_unique<PathPredArch>();
}

} // namespace detail

} // namespace drs::harness
