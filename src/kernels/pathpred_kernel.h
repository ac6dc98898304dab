#pragma once

/**
 * @file
 * Path-predicting "while-while" traversal kernel (Demoullin et al.'s
 * hash-based ray-path prediction, PAPERS.md): Aila's while-while kernel
 * (makeAilaProgram's blocks and bodies) plus a leaf probe after FETCH.
 * It adds three blocks — PREDICT, PROBE_HEAD and PROBE_TEST, inserted
 * after FETCH, which moves every later Aila block up by three ids — and
 * one training hook where a ray terminates. After fetching a ray, a
 * per-SMX predictor table maps a hash of the quantized origin/direction
 * to the leaf node a previous similar ray terminated in. On a table hit
 * the kernel probes that leaf's triangles directly; a valid probe hit
 * shrinks the ray's tMax (to just past the predicted distance) before
 * the normal while-while traversal runs, pruning the interior nodes the
 * prediction made redundant. The traversal always runs, so hits stay
 * bitwise identical to the Aila baseline: a correct prediction saves
 * inner-node work, a misprediction wastes one leaf probe and is counted.
 *
 * Correctness argument (pinned by the differential and DRS_CHECK
 * suites): a probe hit is a genuine intersection computed by the same
 * Triangle::intersect the traversal uses, so seeding the hit registers
 * with it writes exactly the values leafStep would. The traversal bound
 * becomes tMax' = nextafter(t_probe, +inf): any strictly closer hit
 * t_min < t_probe survives (its triangle passes the strict t < tMax
 * test whenever its leaf is visited, and its node cannot be pruned by
 * more than the slab test's ulp-level rounding before a closer hit
 * shrinks tMax further), an equal-t triangle earlier in the baseline's
 * visit order overwrites the seed (t_probe < tMax' is still strict), and
 * if rounding does prune the re-visit of the predicted leaf itself the
 * seeded registers already hold the correct closest hit. The visit order
 * of surviving nodes is a subsequence of the baseline's, so ties resolve
 * to the same triangle. Any-hit rays bypass prediction entirely (their
 * first-hit answer is visit-order dependent).
 */

#include "kernels/aila_kernel.h"
#include "kernels/cost_model.h"
#include "kernels/trav_workspace.h"
#include "reorder/predictor.h"
#include "simt/kernel.h"

namespace drs::kernels {

/**
 * Block ids of the predicting while-while CFG (exposed for tests):
 * FETCH, the three probe blocks, then Aila's other blocks in Aila's
 * order, each kProbeBlocks ids later.
 */
struct PathPredBlocks
{
    static constexpr int kFetch = AilaBlocks::kFetch;
    static constexpr int kPredict = 1;
    static constexpr int kProbeHead = 2;
    static constexpr int kProbeTest = 3;
    /** Blocks inserted after FETCH. */
    static constexpr int kProbeBlocks = 3;
    static constexpr int kInnerHead = AilaBlocks::kInnerHead + kProbeBlocks;
    static constexpr int kInnerTest = AilaBlocks::kInnerTest + kProbeBlocks;
    static constexpr int kLeafHead = AilaBlocks::kLeafHead + kProbeBlocks;
    static constexpr int kLeafTest = AilaBlocks::kLeafTest + kProbeBlocks;
    static constexpr int kDoneCheck = AilaBlocks::kDoneCheck + kProbeBlocks;
    static constexpr int kStore = AilaBlocks::kStore + kProbeBlocks;
    static constexpr int kExit = AilaBlocks::kExit + kProbeBlocks;
    static constexpr int kCount = AilaBlocks::kCount + kProbeBlocks;
};

/** Configuration of the path-prediction kernel (RunConfig::pathpred). */
struct PathPredConfig
{
    /** Resident warps per SMX (same budget as the Aila baseline). */
    int numWarps = 48;
    /** Predictor table geometry + key quantization. */
    reorder::PredictorConfig predictor{};
    /**
     * Any-hit (shadow ray) traversal. Prediction is disabled in this
     * mode — the first-hit answer depends on visit order, which a probe
     * would change — so the kernel degrades to plain while-while.
     */
    bool anyHit = false;
    CostModel cost = defaultCostModel();
};

/**
 * Build the predicting while-while Program: makeAilaProgram's blocks
 * with PREDICT, PROBE_HEAD and PROBE_TEST inserted after FETCH.
 */
simt::Program makePathPredProgram(const CostModel &cost);

/**
 * The path-prediction kernel bound to one SMX. Row i is permanently
 * bound to warp i (no ray-management hardware); the predictor table is
 * private to the SMX, so results are a pure function of its ray stripe.
 */
class PathPredKernel : public simt::Kernel
{
  public:
    PathPredKernel(const bvh::Bvh &bvh,
                   const std::vector<geom::Triangle> &triangles,
                   std::span<const geom::Ray> rays, std::size_t first_ray,
                   const PathPredConfig &config = {});

    const simt::Program &program() const override { return program_; }
    simt::ThreadStep execute(int block, int row, int lane) override;
    simt::RowWorkspace &workspace() override { return workspace_; }
    std::uint64_t raysCompleted() const override
    {
        return workspace_.raysCompleted();
    }

    /** The predictor's counters ("pathpred.*"). */
    obs::CounterSnapshot countersSnapshot() const override
    {
        return counters_.snapshot();
    }

    /** Direct workspace access for tests and the hit harvest. */
    TravWorkspace &travWorkspace() { return workspace_; }

  private:
    /** Per-slot prediction side state (not part of the 17 ray registers). */
    struct SideState
    {
        std::uint64_t key = 0;             ///< prediction key of the ray
        bool predicted = false;            ///< a probe was attempted
        std::int32_t probeCursor = 0;      ///< next probe triangle slot
        std::int32_t probeEnd = 0;         ///< one past the last slot
        std::int32_t probeTriangle = geom::kNoHit;
        float probeT = geom::kRayInfinity; ///< best probe distance
        std::int32_t lastHitLeaf = -1;     ///< training: last hit's leaf
    };

    SideState &side(int row, int lane)
    {
        return side_[static_cast<std::size_t>(row) * 32 + lane];
    }

    /** Accounting + table training when the slot's ray terminates. */
    void onRayTerminated(SideState &side, std::int64_t ray_id);

    PathPredConfig config_;
    simt::Program program_;
    TravWorkspace workspace_;
    const bvh::Bvh &bvh_;
    const std::vector<geom::Triangle> &triangles_;
    geom::Aabb bounds_;
    reorder::PredictorTable table_;
    std::vector<SideState> side_;

    /** Observability counters ("pathpred.*"). */
    obs::Counters counters_;
    obs::Counter &lookups_;     ///< predictor probes issued
    obs::Counter &tableHits_;   ///< tag matches (probe attempted)
    obs::Counter &mispredicts_; ///< probe missed the final hit
    obs::Counter &correct_;     ///< probe found the final triangle
    obs::Counter &inserts_;     ///< terminal-leaf table updates
};

} // namespace drs::kernels
