#include "baselines/dmk_control.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>
#include <unordered_set>

#include "simt/smx.h"

namespace drs::baselines {

using simt::RdctrlResult;
using simt::TravState;

DmkControl::DmkControl(const DmkConfig &config,
                       kernels::TravWorkspace &workspace)
    : config_(config),
      workspace_(workspace),
      spawns_(counters_.get("dmk.spawns")),
      raysDumped_(counters_.get("dmk.rays_dumped")),
      raysLoaded_(counters_.get("dmk.rays_loaded")),
      conflictCycles_(counters_.get("dmk.conflict_cycles"))
{
}

DmkStats
DmkControl::stats() const
{
    DmkStats s;
    s.spawns = spawns_.value();
    s.raysDumped = raysDumped_.value();
    s.raysLoaded = raysLoaded_.value();
    s.conflictCycles = conflictCycles_.value();
    return s;
}

int
DmkControl::allocSpawnSlot()
{
    if (!freeSlots_.empty()) {
        const int slot = freeSlots_.back();
        freeSlots_.pop_back();
        return slot;
    }
    return nextSpawnSlot_++;
}

void
DmkControl::freeSpawnSlot(int slot)
{
    freeSlots_.push_back(slot);
}

std::size_t
DmkControl::pooledRays(TravState state) const
{
    return pools_[static_cast<std::size_t>(state)].size();
}

void
DmkControl::verifyInvariants() const
{
    // Fetch slots are never dumped — the fetch pool must stay empty.
    if (!pools_[static_cast<std::size_t>(TravState::Fetch)].empty())
        throw std::logic_error("DmkControl: rays parked in the fetch pool");

    std::unordered_set<int> spawn_slots;
    std::unordered_set<std::int64_t> ray_ids;
    std::size_t pooled = 0;
    for (std::size_t s = 0; s < pools_.size(); ++s) {
        for (const PooledRay &parked : pools_[s]) {
            ++pooled;
            if (parked.payload.state != static_cast<TravState>(s))
                throw std::logic_error(
                    "DmkControl: pooled ray state disagrees with its pool");
            if (parked.payload.rayId < 0)
                throw std::logic_error("DmkControl: pooled empty slot");
            if (!ray_ids.insert(parked.payload.rayId).second)
                throw std::logic_error(
                    "DmkControl: duplicate ray id in spawn memory");
            if (parked.spawnSlot < 0 || parked.spawnSlot >= nextSpawnSlot_)
                throw std::logic_error(
                    "DmkControl: spawn slot out of range");
            if (!spawn_slots.insert(parked.spawnSlot).second)
                throw std::logic_error(
                    "DmkControl: spawn slot used by two rays");
        }
    }
    for (const int slot : freeSlots_) {
        if (slot < 0 || slot >= nextSpawnSlot_)
            throw std::logic_error("DmkControl: freed slot out of range");
        if (!spawn_slots.insert(slot).second)
            throw std::logic_error(
                "DmkControl: slot both free and holding a ray");
    }
    if (spawn_slots.size() != static_cast<std::size_t>(nextSpawnSlot_))
        throw std::logic_error("DmkControl: allocated spawn slots leaked");

    // Every ray of the stripe is in exactly one place: completed, live in
    // a workspace row, still unfetched in the pool, or parked in spawn
    // memory. Ray ids must not repeat across workspace and pools.
    std::size_t live = 0;
    for (int row = 0; row < workspace_.rowCount(); ++row) {
        for (int lane = 0; lane < workspace_.laneCount(); ++lane) {
            const kernels::RaySlot &slot = workspace_.slot(row, lane);
            if (slot.state == TravState::Fetch)
                continue;
            ++live;
            if (slot.rayId < 0)
                throw std::logic_error(
                    "DmkControl: live workspace slot without a ray id");
            if (!ray_ids.insert(slot.rayId).second)
                throw std::logic_error(
                    "DmkControl: ray id held by two slots");
        }
    }
    const std::size_t total = workspace_.results().size();
    const std::size_t accounted = workspace_.raysCompleted() + live +
                                  workspace_.poolRemaining() + pooled;
    if (accounted != total)
        throw std::logic_error("DmkControl: rays not conserved");
}

std::uint32_t
DmkControl::conflictCost(const std::vector<int> &slots)
{
    // Each ray variable is one warp-wide spawn-memory access; lanes touch
    // bank (slot + variable) % banks. Extra cycles per access = (max
    // per-bank population - 1), summed over the variables. Every
    // variable's bank populations are a rotation of variable 0's, so all
    // share one worst bank.
    const int banks = config_.spawnBanks;
    bankPopulation_.assign(static_cast<std::size_t>(banks), 0);
    int worst = 0;
    for (const int slot : slots)
        worst = std::max(
            worst, ++bankPopulation_[static_cast<std::size_t>(slot % banks)]);
    const auto variables =
        static_cast<std::uint32_t>(std::max(config_.cost.rayVariables, 0));
    return variables * static_cast<std::uint32_t>(worst - 1);
}

RdctrlResult
DmkControl::onRdctrl(int warp)
{
    const int row = warp; // DMK has no renaming: warps keep their rows
    const int lanes = workspace_.laneCount();

    // Census of the warp's own row.
    const std::uint32_t inner_lanes =
        workspace_.laneMask(row, TravState::Inner);
    const std::uint32_t leaf_lanes = workspace_.laneMask(row, TravState::Leaf);
    const int inner = simt::popcount(inner_lanes);
    const int leaf = simt::popcount(leaf_lanes);
    const bool input_rays = !workspace_.poolEmpty();
    const bool pools_empty = pools_[1].empty() && pools_[2].empty();

    auto make_dispatch = [&](TravState state) {
        RdctrlResult r;
        r.ctrl = state;
        r.row = row;
        std::uint32_t mask = simt::fullMask(lanes);
        std::uint32_t holes = 0;
        if (state != TravState::Fetch) {
            mask = workspace_.laneMask(row, state);
            holes = workspace_.laneMask(row, TravState::Fetch);
        }
        r.mask = mask;
        // Terminated lanes refetch in place, like any while-if kernel.
        if (holes != 0 && input_rays &&
            simt::popcount(holes) >= config_.fetchRefillThreshold)
            r.fetchMask = holes;
        return r;
    };

    // Fast path: the row's live rays (tolerating a small minority, the
    // same dispatch rule the DRS uses, so Figure 10's "DMK ~= DRS when
    // SI is excluded" comparison is apples to apples) need no spawn.
    const int live = inner + leaf;
    const int minority = std::min(inner, leaf);
    if (live > 0 && minority <= config_.dispatchMinorityTolerance)
        return make_dispatch(inner >= leaf ? TravState::Inner
                                           : TravState::Leaf);
    if (live == 0) {
        if (input_rays && pools_empty)
            return make_dispatch(TravState::Fetch);
        if (pools_empty && !input_rays) {
            // Nothing anywhere for this warp: leave the kernel.
            RdctrlResult r;
            r.exit = true;
            return r;
        }
        // Fall through: reload parked rays from spawn memory.
    }

    // Micro-kernel spawn: dump the row's live rays to spawn memory, then
    // reload a same-state group. The dump writes a contiguous slab (no
    // bank conflicts); the reload gathers scattered slots and pays them.
    RdctrlResult result;
    int overhead = 0;
    std::uint32_t conflicts = 0;

    int dumped = 0;
    for (std::uint32_t live = inner_lanes | leaf_lanes; live != 0;
         live &= live - 1) {
        const int lane = std::countr_zero(live);
        const TravState s = (inner_lanes >> lane) & 1u ? TravState::Inner
                                                       : TravState::Leaf;
        PooledRay pooled;
        pooled.payload = workspace_.takeRay(row, lane);
        pooled.spawnSlot = allocSpawnSlot();
        pools_[static_cast<std::size_t>(s)].push_back(std::move(pooled));
        ++dumped;
        raysDumped_.add();
    }
    if (dumped > 0)
        overhead += config_.cost.spawnDump;

    // Reload the most plentiful pooled state (leaf priority on ties, so
    // nearly finished rays drain first).
    auto &leaf_pool = pools_[static_cast<std::size_t>(TravState::Leaf)];
    auto &inner_pool = pools_[static_cast<std::size_t>(TravState::Inner)];
    auto *pool = &inner_pool;
    TravState reload_state = TravState::Inner;
    if (leaf_pool.size() >= inner_pool.size()) {
        pool = &leaf_pool;
        reload_state = TravState::Leaf;
    }

    if (pool->empty()) {
        // Nothing parked: fetch fresh rays instead (row is now empty).
        if (!input_rays) {
            RdctrlResult r;
            r.exit = true;
            return r;
        }
        result = make_dispatch(TravState::Fetch);
        result.overheadInstructions = overhead;
        if (overhead > 0)
            spawns_.add();
        return result;
    }

    loadSlots_.clear();
    const int take = std::min<int>(lanes, static_cast<int>(pool->size()));
    for (int lane = 0; lane < take; ++lane) {
        PooledRay pooled = std::move(pool->back());
        pool->pop_back();
        workspace_.putRay(row, lane, std::move(pooled.payload));
        loadSlots_.push_back(pooled.spawnSlot);
        freeSpawnSlot(pooled.spawnSlot);
        raysLoaded_.add();
    }
    overhead += config_.cost.spawnLoad;
    conflicts += conflictCost(loadSlots_);

    spawns_.add();
    conflictCycles_.add(conflicts);
    if (smx_ != nullptr)
        smx_->addSpawnConflictCycles(conflicts);

    result = make_dispatch(reload_state);
    // Bank conflicts replay the conflicting spawn-memory instructions;
    // replays occupy issue slots, so — as the paper stresses — these
    // cycles cannot be hidden by other warps.
    result.overheadInstructions = overhead + static_cast<int>(conflicts);
    return result;
}

} // namespace drs::baselines
