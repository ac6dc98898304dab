#include "baselines/ser_control.h"

#include <algorithm>
#include <ostream>

#include "simt/warp.h"

namespace drs::baselines {

using simt::RdctrlResult;
using simt::TravState;

SerControl::SerControl(const SerConfig &config, kernels::SerKernel &kernel)
    : config_(config),
      kernel_(kernel),
      shadeBatch_(static_cast<std::size_t>(std::clamp(
          config.shadeBatch, 1,
          kernel.travWorkspace().laneCount()))),
      dispatches_(counters_.get("ser.dispatches")),
      shadeGroups_(counters_.get("ser.shade_groups")),
      shadeRays_(counters_.get("ser.shade_rays")),
      sortedKeySum_(counters_.get("ser.sorted_key_sum")),
      depositKeySum_(counters_.get("ser.deposit_key_sum"))
{
}

RdctrlResult
SerControl::dispatchShade(int row)
{
    const int lanes = kernel_.travWorkspace().laneCount();
    reorder::PullStats pull;
    const std::size_t n = kernel_.fillShadeGroup(
        row, static_cast<std::size_t>(lanes), &pull);
    shadeGroups_.add();
    shadeRays_.add(n);
    sortedKeySum_.add(pull.sortedDistinctKeys);
    depositKeySum_.add(pull.depositDistinctKeys);

    RdctrlResult result;
    result.row = row;
    result.bodyBlock = kernels::SerBlocks::kShade;
    result.mask = n >= 32 ? 0xffffffffu
                          : ((1u << static_cast<unsigned>(n)) - 1u);
    return result;
}

RdctrlResult
SerControl::onRdctrl(int warp)
{
    auto &workspace = kernel_.travWorkspace();
    const int row = warp; // fixed binding: no ray management hardware

    // The warp's row, read from the workspace's row census.
    const std::uint32_t inner_mask = workspace.laneMask(row, TravState::Inner);
    const std::uint32_t leaf_mask = workspace.laneMask(row, TravState::Leaf);
    const std::uint32_t hole_mask = workspace.laneMask(row, TravState::Fetch);
    const int inner = simt::popcount(inner_mask);
    const int leaf = simt::popcount(leaf_mask);

    // A full coherent batch is waiting: shading takes priority, so the
    // buffer cannot grow without bound while every warp traverses.
    if (kernel_.shadeQueue().size() >= shadeBatch_)
        return dispatchShade(row);

    RdctrlResult result;
    result.row = row;
    if (inner + leaf > 0) {
        dispatches_.add();
        if (inner >= leaf) {
            result.ctrl = TravState::Inner;
            result.mask = inner_mask;
        } else {
            result.ctrl = TravState::Leaf;
            result.mask = leaf_mask;
        }
        result.fetchMask = workspace.poolEmpty() ? 0 : hole_mask;
        return result;
    }
    if (!workspace.poolEmpty()) {
        dispatches_.add();
        result.ctrl = TravState::Fetch;
        result.mask = hole_mask;
        return result;
    }
    // Row and pool exhausted: drain the sort buffer, then leave.
    if (!kernel_.shadeQueue().empty())
        return dispatchShade(row);
    result.exit = true;
    return result;
}

void
SerControl::describeState(std::ostream &out) const
{
    out << "  ser control: " << kernel_.shadeQueue().size()
        << " rays parked at the shading boundary (batch " << shadeBatch_
        << ")\n";
}

} // namespace drs::baselines
