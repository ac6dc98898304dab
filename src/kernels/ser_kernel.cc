#include "kernels/ser_kernel.h"

#include <stdexcept>

namespace drs::kernels {

using simt::Block;
using simt::MemSpace;
using simt::Program;
using simt::ThreadStep;
using simt::TravState;

simt::Program
makeSerProgram(const CostModel &cost)
{
    std::vector<Block> blocks = makeDrsProgram(cost).blocks();
    blocks[SerBlocks::kRdctrl].successors.push_back(SerBlocks::kShade);

    auto &shade = blocks.emplace_back();
    shade.name = "SHADE";
    shade.instructionCount = cost.shade;
    shade.successors = {SerBlocks::kRdctrl};
    shade.memSpace = MemSpace::Texture;
    shade.phase = obs::TravPhase::Fetch;

    return Program(std::move(blocks), SerBlocks::kExit);
}

SerKernel::SerKernel(const bvh::Bvh &bvh,
                     const std::vector<geom::Triangle> &triangles,
                     std::span<const geom::Ray> rays, std::size_t first_ray,
                     const SerKernelConfig &config)
    : config_(config),
      program_(makeSerProgram(config.cost)),
      workspace_(bvh, triangles, rays, first_ray, config.numWarps, 32,
                 /*any_hit=*/false),
      triangles_(triangles),
      rays_(rays),
      cut_(bvh, config.cutSize),
      shadeGroups_(static_cast<std::size_t>(config.numWarps))
{
}

void
SerKernel::deposit(std::int64_t ray_id)
{
    const std::size_t local =
        static_cast<std::size_t>(ray_id) - workspace_.firstRay();
    const geom::Hit &result = workspace_.results().at(local);
    reorder::ShadeEntry entry;
    entry.rayId = static_cast<std::int32_t>(ray_id);
    if (result.triangle != geom::kNoHit) {
        entry.material =
            triangles_[static_cast<std::size_t>(result.triangle)].material;
        const geom::Vec3 point = rays_[local].at(result.t);
        entry.key =
            (static_cast<std::uint64_t>(entry.material + 1) << 32) |
            cut_.code(point);
    } else {
        // Misses shade the environment: one shared bucket, sorted last.
        entry.material = -1;
        entry.key = ~std::uint64_t{0};
    }
    queue_.push(entry);
}

std::size_t
SerKernel::fillShadeGroup(int row, std::size_t max_entries,
                          reorder::PullStats *stats)
{
    auto &group = shadeGroups_.at(static_cast<std::size_t>(row));
    group = queue_.pull(max_entries, stats);
    return group.size();
}

ThreadStep
SerKernel::execute(int block, int row, int lane)
{
    ThreadStep step;
    const RaySlot &slot = workspace_.slot(row, lane);

    switch (block) {
      case SerBlocks::kFetchBody:
        (void)workspace_.fetchBody(row, lane, step);
        step.nextBlock = SerBlocks::kRdctrl;
        return step;
      case SerBlocks::kInnerTest:
        workspace_.innerBody(row, lane, step);
        // A ray that ended in this step left its slot empty, with its
        // id in lastRayId: it has reached the shading boundary.
        if (slot.state == TravState::Fetch)
            deposit(slot.lastRayId);
        step.nextBlock = SerBlocks::kSetStateInner;
        return step;
      case SerBlocks::kSetStateInner:
      case SerBlocks::kSetStateLeaf:
        step.nextBlock = SerBlocks::kRdctrl;
        return step;
      case SerBlocks::kLeafHead:
        step.nextBlock = workspace_.leafHasWork(row, lane)
                             ? SerBlocks::kLeafTest
                             : SerBlocks::kSetStateLeaf;
        return step;
      case SerBlocks::kLeafTest:
        (void)workspace_.leafBody(row, lane, step);
        if (slot.state == TravState::Fetch)
            deposit(slot.lastRayId);
        step.nextBlock = SerBlocks::kLeafHead;
        return step;
      case SerBlocks::kShade: {
        const auto &group =
            shadeGroups_.at(static_cast<std::size_t>(row));
        step.nextBlock = SerBlocks::kRdctrl;
        if (lane < static_cast<int>(group.size())) {
            // Coherent groups hit the same material record, which is
            // where SER's benefit shows up in the cache model.
            step.memAddress =
                kMaterialBase +
                static_cast<std::uint64_t>(group[static_cast<std::size_t>(
                                                     lane)].material +
                                           1) *
                    kMaterialBytes;
            step.memBytes = kMaterialBytes;
        }
        return step;
      }
      default:
        throw std::logic_error("SerKernel: unexpected block");
    }
}

} // namespace drs::kernels
