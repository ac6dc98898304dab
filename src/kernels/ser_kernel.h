#pragma once

/**
 * @file
 * SER-style traversal kernel: Kernel 1 (makeDrsProgram's while-if
 * blocks, ids and bodies) plus a hit-shading block behind a reorder
 * point at the traversal->shading boundary, modeling NVIDIA's Shader
 * Execution Reordering in this simulator's terms. It adds three things
 * to the kernel it extends: the SHADE block (block 8, RDCTRL's last
 * successor); a deposit of every terminated ray into a shared per-SMX
 * sort buffer keyed by hit material + the BVH-cut code of the hit
 * point; and the shade groups the SER control unit
 * (src/baselines/ser_control.h) fills with key-adjacent rays before it
 * dispatches SHADE for them, so shading executes with coherent
 * neighbors regardless of which warp traced each ray. This is not a
 * launch-order permutation: rays are regrouped *inside* the kernel,
 * between traversal and shading.
 *
 * Traversal semantics are Kernel 1's — hits are bitwise identical to the
 * Aila/DRS kernels and the while-if lockstep check applies by
 * construction; the shade block only adds issue slots and (coherent)
 * material fetches.
 */

#include "kernels/cost_model.h"
#include "kernels/drs_kernel.h"
#include "kernels/trav_workspace.h"
#include "reorder/reorder.h"
#include "reorder/shade_queue.h"
#include "simt/kernel.h"

namespace drs::kernels {

/** Block ids of the SER CFG: DrsBlocks plus the shade body. */
struct SerBlocks : DrsBlocks
{
    static constexpr int kShade = DrsBlocks::kCount;
    static constexpr int kCount = kShade + 1;
};

/** Configuration of the SER kernel (RunConfig::ser feeds this). */
struct SerKernelConfig
{
    /** Resident warps per SMX; rows are bound 1:1 to warps. */
    int numWarps = 48;
    /** BVH-cut size for the hit-point part of the shade sort key. */
    int cutSize = 64;
    CostModel cost = defaultCostModel();
};

/** Build the SER Program: makeDrsProgram's blocks plus SHADE. */
simt::Program makeSerProgram(const CostModel &cost);

/**
 * The SER kernel bound to one SMX. Requires the SerControl as its
 * WarpController (it resolves rdctrl and dispatches shade groups).
 */
class SerKernel : public simt::Kernel
{
  public:
    /** Simulated material-record layout (shade-block memory traffic). */
    static constexpr std::uint64_t kMaterialBase = 0x9000'0000;
    static constexpr std::uint32_t kMaterialBytes = 64;

    SerKernel(const bvh::Bvh &bvh,
              const std::vector<geom::Triangle> &triangles,
              std::span<const geom::Ray> rays, std::size_t first_ray,
              const SerKernelConfig &config = {});

    const simt::Program &program() const override { return program_; }
    simt::ThreadStep execute(int block, int row, int lane) override;
    int blockForState(simt::TravState state) const override
    {
        return DrsKernel::bodyBlock(state);
    }
    simt::RowWorkspace &workspace() override { return workspace_; }
    std::uint64_t raysCompleted() const override
    {
        return workspace_.raysCompleted();
    }

    TravWorkspace &travWorkspace() { return workspace_; }

    /** The shared sort buffer at the shading boundary. */
    reorder::ShadeQueue &shadeQueue() { return queue_; }

    /**
     * Pull up to @p max_entries coherent rays from the queue into row
     * @p row's shade group (the control unit calls this when it diverts
     * a warp to the shade block). Returns the group size.
     */
    std::size_t fillShadeGroup(int row, std::size_t max_entries,
                               reorder::PullStats *stats);

    /** Current shade group of @p row (tests). */
    const std::vector<reorder::ShadeEntry> &shadeGroup(int row) const
    {
        return shadeGroups_.at(static_cast<std::size_t>(row));
    }

  private:
    /** Deposit a terminated ray into the sort buffer. */
    void deposit(std::int64_t ray_id);

    SerKernelConfig config_;
    simt::Program program_;
    TravWorkspace workspace_;
    const std::vector<geom::Triangle> &triangles_;
    std::span<const geom::Ray> rays_; ///< borrowed stripe (hit points)
    reorder::BvhCut cut_;
    reorder::ShadeQueue queue_;
    std::vector<std::vector<reorder::ShadeEntry>> shadeGroups_;
};

} // namespace drs::kernels
