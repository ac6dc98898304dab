#pragma once

/**
 * @file
 * Software ray-reordering primitives: the sort keys and permutation
 * machinery behind the "sort" and "cutcode" survey architectures
 * (harness/arch_reorder.cc).
 *
 * Two key schemes, matching the field's software competitors (Meister et
 * al.'s ray-reordering survey; Xiang et al.'s hierarchy-cut codes):
 *
 *  - Hash-grid keys: the ray origin is quantized onto a uniform grid
 *    over the scene bounds and Morton-interleaved; the direction octant
 *    occupies the low bits (Garanzha & Loop-style origin-major keys).
 *    Sorting a batch by this key groups rays that start near each other
 *    and travel the same way — the classic pre-bounce compaction sort.
 *
 *  - Hierarchy-cut codes: a cut of the scene BVH (a frontier of ~cutSize
 *    nodes covering the tree) is fixed per scene; a ray's code is the
 *    DFS rank of the cut node its origin descends into. Keys derived
 *    from the hierarchy respect the tree's actual spatial adaptivity
 *    (dense regions get fine codes, empty space coarse ones), which a
 *    uniform grid cannot.
 *
 * Everything here is deterministic: keys are pure functions of ray and
 * scene, the sort is stable, so the same batch always produces the same
 * permutation at any thread count.
 */

#include <cstdint>
#include <span>
#include <vector>

#include "bvh/bvh.h"
#include "geom/aabb.h"
#include "geom/ray.h"

namespace drs::reorder {

/** Tuning knobs of the software reordering passes (RunConfig::reorder). */
struct ReorderConfig
{
    /**
     * Bits per axis of the hash-grid origin quantization (6 = a 64^3
     * grid, 18 Morton bits). Clamped to [1, 10].
     */
    int originBits = 6;
    /** Append the 3-bit direction octant to every key (both schemes). */
    bool directionOctant = true;
    /**
     * Target node count of the BVH cut for cut-code keys. Larger cuts
     * give finer codes (more, smaller buckets). Clamped to >= 1.
     */
    int cutSize = 256;

    bool operator==(const ReorderConfig &) const = default;
};

/**
 * Quantize @p value in [lo, hi] to a cell in [0, 2^bits). Degenerate
 * intervals and non-finite values map to cell 0.
 */
std::uint32_t quantize(float value, float lo, float hi, int bits);

/** 3-bit octant of @p direction (sign bits of x/y/z). */
std::uint32_t directionOctant(const geom::Vec3 &direction);

/**
 * Origin-major hash-grid key of @p ray over @p bounds: Morton-interleaved
 * quantized origin in the high bits, direction octant (when enabled) in
 * the low three.
 */
std::uint64_t hashGridKey(const geom::Ray &ray, const geom::Aabb &bounds,
                          const ReorderConfig &config);

/**
 * A cut of a BVH: a frontier of nodes that together cover the whole
 * tree, grown from the root by repeatedly expanding the frontier node
 * with the largest surface area until @p target_size nodes (or no
 * expandable node remains). Codes are assigned in node-index order,
 * i.e. the flattened tree's depth-first order, so consecutive codes are
 * spatially adjacent subtrees.
 */
class BvhCut
{
  public:
    /** Build a cut of @p bvh with about @p target_size nodes. */
    BvhCut(const bvh::Bvh &bvh, int target_size);

    /** Number of nodes in the cut (0 for an empty tree). */
    int size() const { return size_; }

    /**
     * Code of the cut node @p point descends into from the root: at each
     * expanded interior node the child whose bounds contain the point is
     * chosen (both/neither: the child with the nearer bounds center,
     * ties to the left child). Returns 0 for an empty tree.
     */
    std::uint32_t code(const geom::Vec3 &point) const;

  private:
    const bvh::Bvh *bvh_ = nullptr;
    /** Cut code per node index; -1 = not a cut node. */
    std::vector<std::int32_t> codeByNode_;
    int size_ = 0;
};

/**
 * Cut-code key of @p ray: the origin's cut code in the high bits, the
 * direction octant (when enabled) in the low three.
 */
std::uint64_t cutCodeKey(const geom::Ray &ray, const BvhCut &cut,
                         const ReorderConfig &config);

/** What a reordering pass did to one batch (bench/counter material). */
struct ReorderStats
{
    /** Distinct key values in the batch. */
    std::uint64_t distinctKeys = 0;
    /** Sum over sorted positions p of |original_index(p) - p|. */
    std::uint64_t displacementSum = 0;
};

/**
 * Stable sorted order of @p keys: result[p] is the original index of the
 * ray that belongs at sorted position p. Equal keys keep their original
 * relative order, so the permutation is deterministic.
 */
std::vector<std::uint32_t> sortedOrder(std::span<const std::uint64_t> keys,
                                       ReorderStats *stats = nullptr);

} // namespace drs::reorder
