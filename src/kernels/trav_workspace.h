#pragma once

/**
 * @file
 * Row-addressed traversal state: the "live ray variables in registers"
 * of the paper, organized into rows of 32 slots, plus the shared per-SMX
 * ray pool and the traversal step semantics and block bodies every ray
 * kernel reuses.
 *
 * Cost-model note: the paper states a ray's live state is 17 registers and
 * the shuffle hardware moves exactly those. Functionally this workspace
 * keeps a full traversal stack per slot for correctness (a production
 * kernel would use a short stack with restart or local-memory spill); the
 * swap *cost* model uses the paper's 17 variables (see CostModel).
 */

#include <cstdint>
#include <span>
#include <vector>

#include "bvh/bvh.h"
#include "geom/ray.h"
#include "geom/triangle.h"
#include "simt/controller.h"
#include "simt/kernel.h"

namespace drs::kernels {

/** Simulated memory layout constants (for cache address generation). */
struct AddressMap
{
    std::uint64_t nodeBase = 0x1000'0000;    ///< BVH nodes (texture space)
    std::uint32_t nodeBytes = 64;            ///< bytes per node record
    std::uint64_t triangleBase = 0x3000'0000; ///< triangles (texture space)
    std::uint32_t triangleBytes = 48;        ///< Woop-style record
    std::uint64_t rayBase = 0x5000'0000;     ///< input rays (global space)
    std::uint32_t rayBytes = 32;             ///< origin+dir+tmin+tmax
    std::uint64_t resultBase = 0x7000'0000;  ///< hit records (global space)
    std::uint32_t resultBytes = 16;
};

/** One ray slot: the live variables of a ray in the register file. */
struct RaySlot
{
    geom::Ray ray;
    geom::Vec3 invDir;
    std::int32_t nodeIndex = -1;     ///< current node (inner phase)
    std::int32_t leafCursor = 0;     ///< next triangle slot (leaf phase)
    std::int32_t leafEnd = 0;        ///< one past the last triangle slot
    std::int32_t hitTriangle = geom::kNoHit;
    float hitT = 0.0f;
    float hitU = 0.0f;
    float hitV = 0.0f;
    std::int64_t rayId = -1;         ///< global ray index; -1 = empty slot
    /** Id of the last ray this slot completed (result writeback). */
    std::int64_t lastRayId = -1;
    simt::TravState state = simt::TravState::Fetch;
    /** Traversal stack (see cost-model note in the file comment). */
    std::vector<std::int32_t> stack;
};

/** Result of one inner-node traversal step (selects the CFG sub-block). */
enum class InnerOutcome
{
    BothChildrenHit,
    OneChildHit,
    NoChildHit,
};

/**
 * Traversal state storage + semantics for one SMX.
 *
 * Implements simt::RowWorkspace so the DRS control can inspect states and
 * move rays between slots. Every member that changes a slot's state (the
 * step functions, moveRay/swapRays, takeRay/putRay) updates the row
 * census; a write to RaySlot::state through slot() would bypass it.
 */
class TravWorkspace : public simt::RowWorkspace
{
  public:
    /**
     * @param bvh hierarchy to traverse
     * @param triangles the scene triangles the hierarchy indexes
     * @param rays view of this SMX's stripe of the input batch; the
     *        caller keeps the underlying rays alive for the workspace's
     *        lifetime (no copy is made)
     * @param first_ray index of rays[0] within the global batch
     * @param rows number of logical rows
     * @param lanes slots per row (warp size), in [1, 32]
     * @throws std::invalid_argument on out-of-range dimensions
     */
    TravWorkspace(const bvh::Bvh &bvh,
                  const std::vector<geom::Triangle> &triangles,
                  std::span<const geom::Ray> rays, std::size_t first_ray,
                  int rows, int lanes, bool any_hit = false);

    /**
     * Any-hit (shadow ray) mode: a ray terminates on its first
     * intersection instead of searching for the closest one. Occlusion
     * queries of a next-event-estimation path tracer use this.
     */
    bool anyHitMode() const { return anyHit_; }

    // RowWorkspace interface (used by the DRS control / DMK).
    simt::TravState state(int row, int lane) const override;
    void moveRay(int src_row, int src_lane, int dst_row,
                 int dst_lane) override;
    void swapRays(int row_a, int lane_a, int row_b, int lane_b) override;
    bool poolEmpty() const override { return nextRay_ >= rays_.size(); }
    /**
     * Fault-injection hook: flip one bit of the slot's geom::Ray payload
     * (origin/direction/tmin/tmax). Only those bytes are touched — the
     * traversal bookkeeping (node index, stack, rayId) stays intact, so
     * workspace invariants hold and the corruption shows up purely as a
     * ray that traverses (and possibly hits) the wrong geometry.
     */
    void corruptRay(int row, int lane, std::uint32_t bit) override;

    /**
     * Direct slot access (kernels and tests). Writes may touch the ray's
     * variables but not its state, which only the members below change.
     */
    RaySlot &slot(int row, int lane);
    const RaySlot &slot(int row, int lane) const;

    /**
     * Move the ray out of (row, lane), leaving the slot empty (Fetch):
     * the DMK's dump to spawn memory.
     */
    RaySlot takeRay(int row, int lane);

    /**
     * Load @p ray into (row, lane), replacing the slot's contents: the
     * DMK's reload from spawn memory.
     */
    void putRay(int row, int lane, RaySlot &&ray);

    // --- traversal semantics (shared by every ray kernel) ---

    /**
     * Fetch the next pool ray into (row, lane).
     * @return false when the pool is empty (slot left untouched).
     */
    bool fetchStep(int row, int lane);

    /** One inner-node step; slot must be in the Inner state. */
    InnerOutcome innerStep(int row, int lane);

    /**
     * One triangle test; slot must be in the Leaf state.
     * @return true when the triangle was hit (hit registers updated)
     */
    bool leafStep(int row, int lane);

    /** True when the slot's leaf phase has untested triangles. */
    bool leafHasWork(int row, int lane) const;

    /**
     * Speculative traversal: postpone the slot's current (fresh) leaf by
     * pushing it to the bottom of the traversal stack and resume inner
     * traversal from the stack top.
     *
     * @return false when speculation is not possible (empty stack or the
     *         stack top is itself a leaf); the slot is left unchanged.
     */
    bool deferLeaf(int row, int lane);

    /** Terminate the ray in (row, lane): record the result, mark Fetch. */
    void storeResult(int row, int lane);

    // --- traversal bodies (each kernel's FETCH / INNER_TEST / LEAF_TEST
    // / STORE block): the step plus the memory access it issues ---

    /**
     * Fetch the next pool ray and load it (@p step's access).
     * @return false when the pool is empty (no access)
     */
    bool fetchBody(int row, int lane, simt::ThreadStep &step);

    /**
     * One inner-node step and its node load. The child-select / push /
     * pop tails are predicated in the block's instruction count, so the
     * outcome only drives semantics.
     */
    void innerBody(int row, int lane, simt::ThreadStep &step);

    /**
     * One triangle test and its triangle load (the hit update is
     * predicated).
     * @return true when the triangle was hit
     */
    bool leafBody(int row, int lane, simt::ThreadStep &step);

    /** Store the hit record of the slot's last completed ray, if any. */
    void storeBody(int row, int lane, simt::ThreadStep &step) const;

    /**
     * Simulated memory layout, and the address of a triangle slot (for
     * triangle loads outside leafBody, such as a leaf probe).
     */
    const AddressMap &addressMap() const { return addressMap_; }
    std::uint64_t triangleAddress(std::int32_t slot_index) const;

    /** Completed rays (traced to termination). */
    std::uint64_t raysCompleted() const { return raysCompleted_; }

    /** Hit results, indexed by position within this SMX's stripe. */
    const std::vector<geom::Hit> &results() const { return results_; }

    /** Global index of the stripe's first ray (results offset). */
    std::size_t firstRay() const { return firstRay_; }

    /** Rays not yet fetched from the pool. */
    std::size_t poolRemaining() const { return rays_.size() - nextRay_; }

  private:
    /** innerStep/leafStep on the slot, before the census update. */
    InnerOutcome traverseInner(RaySlot &slot);
    bool testLeaf(RaySlot &slot);

    /** Advance to the node on top of the stack, or terminate the ray. */
    void popOrTerminate(RaySlot &slot);

    /** Enter node @p node: set Inner or Leaf phase accordingly. */
    void enterNode(RaySlot &slot, std::int32_t node);

    /**
     * Empty @p slot (as a default RaySlot) but keep its traversal stack's
     * storage, so refetching a slot does not allocate.
     */
    static void clearSlot(RaySlot &slot);

    const bvh::Bvh &bvh_;
    const std::vector<geom::Triangle> &triangles_;
    const std::span<const geom::Ray> rays_; ///< borrowed input stripe
    std::size_t firstRay_;
    std::size_t nextRay_ = 0;
    std::uint64_t raysCompleted_ = 0;
    std::vector<RaySlot> slots_;
    std::vector<geom::Hit> results_;
    AddressMap addressMap_;
    bool anyHit_ = false;
};

} // namespace drs::kernels
