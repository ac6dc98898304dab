/**
 * @file
 * Software ray-reordering architectures for the survey: "sort"
 * (hash-grid origin/direction keys, Garanzha & Loop style) and "cutcode"
 * (BVH hierarchy-cut codes, Xiang et al. style).
 *
 * Both model the software alternative to the paper's hardware shuffling:
 * the batch is permuted up front — rays with equal keys become SIMT
 * neighbours — and then runs through the registered aila plugin: the
 * plain Aila while-while GPU with no ray-management hardware at all. Per-ray traversal is a pure function
 * of the ray, so hits are bitwise identical to the unsorted Aila run
 * (the differential tests pin this); only warp coherence, and with it
 * SIMT efficiency and cycle count, changes. Hits are scattered back
 * through the permutation so callers always see batch order.
 */

#include "harness/arch_builtin.h"

#include "harness/arch_detail.h"
#include "reorder/reorder.h"

namespace drs::harness {

namespace {

class ReorderArchBase : public ArchPlugin
{
  public:
    std::string counterNamespace() const override { return "reorder"; }

    simt::SimStats run(const render::PathTracer &tracer,
                       std::span<const geom::Ray> rays,
                       const RunConfig &config,
                       const ArchObservers &observers,
                       const check::Checker *checker) const override
    {
        const std::vector<std::uint64_t> keys =
            batchKeys(tracer, rays, config.reorder);
        reorder::ReorderStats reorder_stats;
        const std::vector<std::uint32_t> order =
            reorder::sortedOrder(keys, &reorder_stats);

        std::vector<geom::Ray> sorted(rays.size());
        for (std::size_t p = 0; p < order.size(); ++p)
            sorted[p] = rays[order[p]];

        // The permuted batch runs on the registered aila plugin, which
        // stores hits at *sorted* positions; collect them locally and
        // scatter back through the permutation afterwards so the
        // caller's hits land at original batch indices.
        std::vector<geom::Hit> sorted_hits;
        RunConfig inner = config;
        inner.hitsOut = (config.hitsOut != nullptr || checker != nullptr)
                            ? &sorted_hits
                            : nullptr;
        simt::SimStats stats = ArchRegistry::instance().get(Arch::Aila).run(
            tracer, sorted, inner, observers, checker);

        if (config.hitsOut != nullptr)
            detail::scatterHits(order, sorted_hits, *config.hitsOut);

        // The reordering pass reports through the shared counter
        // namespace, like the hardware controllers do ("drs.*", ...):
        // deterministic values derived from the permutation alone.
        stats.counters.add("reorder.rays", rays.size());
        stats.counters.add("reorder.distinct_keys",
                           reorder_stats.distinctKeys);
        stats.counters.add("reorder.displacement_sum",
                           reorder_stats.displacementSum);
        return stats;
    }

    check::BatchCheckInputs
    checkInputs(const RunConfig &config) const override
    {
        // Reordering is invisible to the reference interpreter: per-ray
        // hits and per-block visit totals are order-invariant, so the
        // plain Aila inputs verify a reordered run unchanged.
        check::BatchCheckInputs inputs;
        inputs.flavor = check::KernelFlavor::WhileWhile;
        inputs.reference = config.aila;
        inputs.simCost = config.aila.cost;
        return inputs;
    }

  protected:
    /** Sort key of every ray in the batch (pure function of ray+scene). */
    virtual std::vector<std::uint64_t>
    batchKeys(const render::PathTracer &tracer,
              std::span<const geom::Ray> rays,
              const reorder::ReorderConfig &config) const = 0;

    /** Shared part of both reorder fuzz distributions. */
    void randomizeAila(geom::Pcg32 &rng, RunConfig &config) const
    {
        static constexpr int kWarpChoices[] = {4, 8, 16};
        config.aila.numWarps = kWarpChoices[rng.nextUInt(3)];
        config.aila.speculativeTraversal = rng.nextUInt(2) == 0;
        config.aila.anyHit = rng.nextUInt(4) == 0;
    }
};

class SortArch : public ReorderArchBase
{
  public:
    std::string name() const override { return "sort"; }
    std::string description() const override
    {
        return "software ray sorting by hash-grid origin/direction key, "
               "then the Aila while-while kernel";
    }

    void randomizeConfig(geom::Pcg32 &rng, RunConfig &config) const override
    {
        randomizeAila(rng, config);
        config.reorder.originBits = 4 + static_cast<int>(rng.nextUInt(5));
        config.reorder.directionOctant = rng.nextUInt(2) == 0;
    }

  protected:
    std::vector<std::uint64_t>
    batchKeys(const render::PathTracer &tracer,
              std::span<const geom::Ray> rays,
              const reorder::ReorderConfig &config) const override
    {
        const geom::Aabb bounds = tracer.bvh().bounds();
        std::vector<std::uint64_t> keys(rays.size());
        for (std::size_t i = 0; i < rays.size(); ++i)
            keys[i] = reorder::hashGridKey(rays[i], bounds, config);
        return keys;
    }
};

class CutCodeArch : public ReorderArchBase
{
  public:
    std::string name() const override { return "cutcode"; }
    std::string description() const override
    {
        return "software ray reordering by BVH hierarchy-cut code, "
               "then the Aila while-while kernel";
    }

    void randomizeConfig(geom::Pcg32 &rng, RunConfig &config) const override
    {
        randomizeAila(rng, config);
        config.reorder.cutSize = rng.nextUInt(2) == 0 ? 64 : 256;
        config.reorder.directionOctant = rng.nextUInt(2) == 0;
    }

  protected:
    std::vector<std::uint64_t>
    batchKeys(const render::PathTracer &tracer,
              std::span<const geom::Ray> rays,
              const reorder::ReorderConfig &config) const override
    {
        const reorder::BvhCut cut(tracer.bvh(), config.cutSize);
        std::vector<std::uint64_t> keys(rays.size());
        for (std::size_t i = 0; i < rays.size(); ++i)
            keys[i] = reorder::cutCodeKey(rays[i], cut, config);
        return keys;
    }
};

} // namespace

namespace detail {

std::unique_ptr<const ArchPlugin>
makeSortArch()
{
    return std::make_unique<SortArch>();
}

std::unique_ptr<const ArchPlugin>
makeCutCodeArch()
{
    return std::make_unique<CutCodeArch>();
}

} // namespace detail

} // namespace drs::harness
