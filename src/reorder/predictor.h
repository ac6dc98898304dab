#pragma once

/**
 * @file
 * Hash-based ray-path prediction (Demoullin et al., PAPERS.md): a table
 * maps a hash of the quantized ray origin/direction to the BVH leaf the
 * last similar ray terminated in. A predicted ray probes that leaf's
 * triangles directly before running the full traversal; the traversal
 * always runs, so a correct prediction only *shrinks* tMax (pruning the
 * interior work the prediction made redundant) and never changes which
 * triangle wins. Mispredictions cost one wasted probe and are counted.
 *
 * Everything is deterministic: the key is a pure function of ray and
 * scene bounds, the table is direct-mapped with last-writer-wins
 * replacement, and each SMX owns a private table so the result is a pure
 * function of that SMX's ray stripe.
 */

#include <cstdint>
#include <vector>

#include "geom/aabb.h"
#include "geom/ray.h"

namespace drs::reorder {

/** Tuning knobs of the path predictor (RunConfig::pathpred). */
struct PredictorConfig
{
    /** log2 of the direct-mapped table size (12 = 4096 entries). */
    int tableBits = 12;
    /** Bits per axis of the origin quantization. Clamped to [1, 10]. */
    int originBits = 7;
    /**
     * Bits per axis of the direction quantization (on top of the sign
     * octant). Clamped to [0, 8].
     */
    int directionBits = 4;

    bool operator==(const PredictorConfig &) const = default;
};

/**
 * Prediction key of @p ray: its hash-grid key over @p bounds
 * (reorder::hashGridKey at config.originBits, with the direction
 * octant), then each direction component quantized over [-1, 1] at
 * config.directionBits. Non-finite coordinates quantize to cell 0, as
 * in every reorder key.
 */
std::uint64_t pathPredKey(const geom::Ray &ray, const geom::Aabb &bounds,
                          const PredictorConfig &config);

/**
 * Direct-mapped predictor table: key -> last observed terminal leaf
 * node. Collisions evict (last writer wins); a tag mismatch is a miss.
 */
class PredictorTable
{
  public:
    explicit PredictorTable(const PredictorConfig &config);

    /** Predicted leaf node index for @p key, or -1 on miss. */
    std::int32_t lookup(std::uint64_t key) const;

    /** Record that a ray with @p key terminated in leaf node @p leaf. */
    void insert(std::uint64_t key, std::int32_t leaf);

    /** Number of table entries (a power of two). */
    std::size_t size() const { return entries_.size(); }

  private:
    struct Entry
    {
        std::uint64_t tag = 0;
        std::int32_t leaf = -1; ///< -1 = never written
    };

    std::size_t index(std::uint64_t key) const;

    std::vector<Entry> entries_;
};

} // namespace drs::reorder
