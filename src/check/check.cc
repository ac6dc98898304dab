#include "check/check.h"

#include <array>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "kernels/trav_workspace.h"
#include "simt/kernel.h"
#include "simt/memory.h"
#include "simt/sim_stats.h"
#include "simt/warp.h"

namespace drs::check {

bool
checkEnabled(int mode)
{
    if (mode == 0)
        return false;
    if (mode == 1)
        return true;
    const char *env = std::getenv("DRS_CHECK");
    if (env == nullptr)
        return false;
    const std::string_view value(env);
    if (value.empty() || value == "0")
        return false;
    if (value == "1")
        return true;
    static bool warned = false;
    if (!warned) {
        warned = true;
        std::fprintf(stderr,
                     "DRS_CHECK=%s not understood (use 0 or 1); "
                     "invariant checking stays off\n",
                     env);
    }
    return false;
}

void
Checker::checkWarp(const simt::Warp &warp,
                   const simt::Program &program) const
{
    const std::vector<simt::StackEntry> &stack = warp.stack();
    if (stack.empty())
        throw InvariantViolation("warp stack is empty");
    if (stack.front().rpc != warp.exitBlock())
        throw InvariantViolation(
            "bottom stack entry does not reconverge at the exit block");

    const std::uint32_t full = simt::fullMask(warp.lanes());
    for (const simt::StackEntry &e : stack) {
        if (e.pc < 0 || e.pc >= program.blockCount() || e.rpc < 0 ||
            e.rpc >= program.blockCount())
            throw InvariantViolation("stack pc/rpc outside the program");
        if ((e.mask & ~full) != 0)
            throw InvariantViolation(
                "stack mask has lanes beyond the warp width");
    }
    for (std::size_t i = 1; i < stack.size(); ++i)
        if (stack[i].mask == 0)
            throw InvariantViolation(
                "pushed stack entry with an empty mask");

    // IPDOM-tree structure. Each entry above the bottom is either the
    // first child of the entry directly below (its rpc is that entry's
    // pc — divergence parks the parent at the reconvergence point) or a
    // sibling of it (same rpc, same parent). Only the top entry ever
    // executes, so a non-top child never sits at pc == rpc and the two
    // cases cannot collide.
    std::vector<std::size_t> parent_of(stack.size(), 0);
    for (std::size_t i = 1; i < stack.size(); ++i) {
        const simt::StackEntry &e = stack[i];
        const simt::StackEntry &prev = stack[i - 1];
        std::size_t parent;
        if (prev.pc == e.rpc) {
            parent = i - 1;
        } else if (prev.rpc == e.rpc) {
            parent = parent_of[i - 1];
        } else {
            throw InvariantViolation(
                "stack entry reconverges at an unrelated block");
        }
        parent_of[i] = parent;
        if ((e.mask & ~stack[parent].mask) != 0)
            throw InvariantViolation(
                "child mask is not a subset of its parent's");
        for (std::size_t j = parent + 1; j < i; ++j)
            if (parent_of[j] == parent && (stack[j].mask & e.mask) != 0)
                throw InvariantViolation(
                    "sibling stack entries share a lane");
    }
}

void
Checker::checkMemory(const simt::SmxMemory &memory) const
{
    memory.verifyInvariants();
}

void
Checker::checkKernel(simt::Kernel &kernel) const
{
    auto *workspace =
        dynamic_cast<kernels::TravWorkspace *>(&kernel.workspace());
    if (workspace == nullptr)
        return;
    verifyWorkspace(*workspace, /*strict=*/false);
}

void
Checker::checkStats(const simt::SimStats &stats) const
{
    verifyStatsLockstep(stats);
}

void
verifyWorkspace(const kernels::TravWorkspace &workspace, bool strict)
{
    std::unordered_set<std::int64_t> ids;
    std::size_t live = 0;
    const auto first = static_cast<std::int64_t>(workspace.firstRay());
    const auto end =
        first + static_cast<std::int64_t>(workspace.results().size());

    for (int row = 0; row < workspace.rowCount(); ++row) {
        // Recount the row census from the slots themselves.
        std::array<std::uint32_t, simt::kNumTravStates> masks{};
        for (int lane = 0; lane < workspace.laneCount(); ++lane) {
            const kernels::RaySlot &slot = workspace.slot(row, lane);
            masks[static_cast<std::size_t>(slot.state)] |= 1u << lane;
            if (slot.state == simt::TravState::Fetch) {
                if (slot.rayId != -1)
                    throw InvariantViolation(
                        "empty slot still holds a ray id");
                continue;
            }
            ++live;
            if (slot.rayId < first || slot.rayId >= end)
                throw InvariantViolation(
                    "live slot's ray id is outside the SMX stripe");
            if (!ids.insert(slot.rayId).second)
                throw InvariantViolation("two slots hold the same ray");
            if (slot.leafCursor > slot.leafEnd)
                throw InvariantViolation("leaf cursor ran past its end");
        }
        for (int s = 0; s < simt::kNumTravStates; ++s)
            if (workspace.laneMask(row, static_cast<simt::TravState>(s)) !=
                masks[static_cast<std::size_t>(s)])
                throw InvariantViolation(
                    "row census lane mask disagrees with slot states");
    }

    if (live != workspace.liveRays())
        throw InvariantViolation(
            "row census live count disagrees with slot states");

    const std::size_t total = workspace.results().size();
    const std::size_t accounted =
        static_cast<std::size_t>(workspace.raysCompleted()) + live +
        workspace.poolRemaining();
    if (strict) {
        if (accounted != total)
            throw InvariantViolation("rays lost or duplicated");
    } else if (accounted > total) {
        throw InvariantViolation(
            "more rays in flight than the stripe holds");
    }
}

void
verifyStatsLockstep(const simt::SimStats &stats)
{
    const obs::CounterSnapshot &counters = stats.counters;
    const auto expect = [&](std::string_view name, std::uint64_t field) {
        if (!counters.contains(name))
            return;
        if (counters.value(name) != field)
            throw InvariantViolation(
                "SimStats field drifted from counter '" +
                std::string(name) + "'");
    };
    expect("smx.rdctrl.issued", stats.rdctrlIssued);
    expect("smx.rdctrl.stalled_issues", stats.rdctrlStalledIssues);
    expect("smx.rdctrl.stall_cycles", stats.rdctrlStallCycles);
    expect("smx.rf.normal_accesses", stats.rfAccessesNormal);
    expect("smx.rf.shuffle_accesses", stats.rfAccessesShuffle);
    expect("smx.swap.completed", stats.raySwapsCompleted);
    expect("smx.swap.cycles", stats.raySwapCycles);
    expect("smx.spawn.conflict_cycles", stats.spawnBankConflictCycles);
    expect("l1d.access", stats.l1Data.accesses);
    expect("l1d.miss", stats.l1Data.misses);
    expect("l1t.access", stats.l1Texture.accesses);
    expect("l1t.miss", stats.l1Texture.misses);
    expect("l2.access", stats.l2.accesses);
    expect("l2.miss", stats.l2.misses);
}

} // namespace drs::check
