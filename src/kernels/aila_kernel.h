#pragma once

/**
 * @file
 * Aila-style "while-while" ray traversal kernel (Aila & Laine 2009/2012),
 * the paper's software baseline: persistent threads with warp-wide ray
 * fetch, a nested inner-node loop and leaf loop, and IPDOM reconvergence
 * producing exactly the divergence pattern of Figure 1 — the warp's
 * completion time is set by its longest ray.
 *
 * An optional speculative-traversal mode (Aila & Laine's third
 * optimization) lets threads that found a leaf continue traversing inner
 * nodes speculatively instead of idling, postponing one found leaf.
 */

#include "kernels/cost_model.h"
#include "kernels/trav_workspace.h"
#include "simt/kernel.h"

namespace drs::kernels {

/** Block ids of the while-while CFG (exposed for tests). */
struct AilaBlocks
{
    static constexpr int kFetch = 0;
    static constexpr int kInnerHead = 1;
    static constexpr int kInnerTest = 2;
    static constexpr int kLeafHead = 3;
    static constexpr int kLeafTest = 4;
    static constexpr int kDoneCheck = 5;
    static constexpr int kStore = 6;
    static constexpr int kExit = 7;
    static constexpr int kCount = 8;
};

/** Configuration of the Aila baseline kernel. */
struct AilaConfig
{
    /** Resident warps per SMX (paper: Aila's kernel spawns 48). */
    int numWarps = 48;
    /**
     * Enable speculative traversal: a thread whose traversal reached a
     * leaf keeps traversing inner nodes (postponing the leaf) while other
     * threads of the warp are still in the inner loop.
     */
    bool speculativeTraversal = false;
    /** Any-hit (shadow ray) traversal: stop at the first intersection. */
    bool anyHit = false;
    CostModel cost = defaultCostModel();
};

/** Build the while-while Program (shared by TBC, which runs this CFG). */
simt::Program makeAilaProgram(const CostModel &cost);

/**
 * The Aila baseline kernel bound to one SMX.
 *
 * Row i is permanently bound to warp i (no ray management hardware).
 */
class AilaKernel : public simt::Kernel
{
  public:
    /**
     * @param bvh scene hierarchy
     * @param triangles scene triangles
     * @param rays view of this SMX's ray stripe (caller keeps it alive)
     * @param first_ray global index of rays[0]
     * @param config kernel options
     */
    AilaKernel(const bvh::Bvh &bvh,
               const std::vector<geom::Triangle> &triangles,
               std::span<const geom::Ray> rays, std::size_t first_ray,
               const AilaConfig &config = {});

    const simt::Program &program() const override { return program_; }
    simt::ThreadStep execute(int block, int row, int lane) override;
    simt::RowWorkspace &workspace() override { return workspace_; }
    std::uint64_t raysCompleted() const override
    {
        return workspace_.raysCompleted();
    }

    /** Direct workspace access for tests. */
    TravWorkspace &travWorkspace() { return workspace_; }

  private:
    AilaConfig config_;
    simt::Program program_;
    TravWorkspace workspace_;
};

} // namespace drs::kernels
