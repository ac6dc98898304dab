#pragma once

/**
 * @file
 * Kernel 1 of the paper: the "while-if" traversal kernel for the DRS.
 * One loop whose control flow is steered by the rdctrl instruction; the
 * three if-bodies (fetch / traverse-one-inner-node / test-leaf-triangles)
 * each end by writing the slot's next traversal state to reg_ray_state.
 * All state-level divergence is eliminated by the hardware mapping warps
 * onto state-uniform rows; only the small intra-body branches (child-hit
 * cases, hit updates, leaf trip counts) remain divergent.
 */

#include "kernels/cost_model.h"
#include "kernels/trav_workspace.h"
#include "simt/kernel.h"

namespace drs::kernels {

/** Block ids of the while-if CFG (exposed for tests). */
struct DrsBlocks
{
    static constexpr int kRdctrl = 0;
    static constexpr int kFetchBody = 1;
    static constexpr int kInnerTest = 2;
    static constexpr int kSetStateInner = 3;
    static constexpr int kLeafHead = 4;
    static constexpr int kLeafTest = 5;
    static constexpr int kSetStateLeaf = 6;
    static constexpr int kExit = 7;
    static constexpr int kCount = 8;
};

/** Configuration of the DRS kernel. */
struct DrsKernelConfig
{
    /**
     * Resident warps per SMX. The paper: Kernel 1 spawns 60 warps, or 58
     * when one backup row is carved out of the main register file
     * instead of an extra register bank.
     */
    int numWarps = 58;
    /** Backup ray rows (M). */
    int backupRows = 1;
    /** Any-hit (shadow ray) traversal: stop at the first intersection. */
    bool anyHit = false;
    CostModel cost = defaultCostModel();

    /** Logical rows: N warps + M backup + 2 empty (paper Section 3.2.2). */
    int rowCount() const { return numWarps + backupRows + 2; }
};

/** Build the while-if Program. */
simt::Program makeDrsProgram(const CostModel &cost);

/**
 * Kernel 1 bound to one SMX. Requires a WarpController (the DRS control
 * or the DMK baseline) to resolve rdctrl.
 */
class DrsKernel : public simt::Kernel
{
  public:
    DrsKernel(const bvh::Bvh &bvh,
              const std::vector<geom::Triangle> &triangles,
              std::span<const geom::Ray> rays, std::size_t first_ray,
              const DrsKernelConfig &config = {});

    const simt::Program &program() const override { return program_; }
    simt::ThreadStep execute(int block, int row, int lane) override;
    int blockForState(simt::TravState state) const override
    {
        return bodyBlock(state);
    }
    simt::RowWorkspace &workspace() override { return workspace_; }
    std::uint64_t raysCompleted() const override
    {
        return workspace_.raysCompleted();
    }

    TravWorkspace &travWorkspace() { return workspace_; }
    const DrsKernelConfig &config() const { return config_; }

    /**
     * Body entry block of Kernel 1 for traversal state @p state: the
     * rdctrl dispatch of this kernel and of the SER kernel extending it.
     */
    static int bodyBlock(simt::TravState state);

  private:
    DrsKernelConfig config_;
    simt::Program program_;
    TravWorkspace workspace_;
};

} // namespace drs::kernels
