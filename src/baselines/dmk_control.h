#pragma once

/**
 * @file
 * Dynamic Micro-Kernel (DMK) baseline (Zambreno & Steffen, MICRO 2010),
 * modeled as the paper's Section 4.4 describes it: when a warp's rays
 * diverge in traversal state, the warp explicitly dumps its live rays to
 * on-chip spawn memory and reloads a same-state group, paying
 * spawn-related instructions (the SI category of Figure 10) plus
 * unhidden spawn-memory bank-conflict cycles. Warps keep their own rows
 * (no renaming hardware); regrouping is pure data movement.
 */

#include <array>
#include <cstdint>
#include <vector>

#include "kernels/cost_model.h"
#include "kernels/trav_workspace.h"
#include "obs/counters.h"
#include "simt/controller.h"

namespace drs::simt {
class Smx;
}

namespace drs::baselines {

/** DMK hardware configuration. */
struct DmkConfig
{
    /** Spawn memory banks per SMX (paper: configured to 32). */
    int spawnBanks = 32;
    /** Resident warps (paper: 54 for the DMK kernel). */
    int numWarps = 54;
    /**
     * DMK regroups whenever a warp diverges: any opposite-state minority
     * beyond a single straggler triggers a micro-kernel spawn.
     */
    int dispatchMinorityTolerance = 1;
    /** Same batched hole-refill threshold as the DRS. */
    int fetchRefillThreshold = 4;
    kernels::CostModel cost = kernels::defaultCostModel();
};

/**
 * Counters for tests/benches. A value snapshot of the control's obs
 * counters ("dmk.*" names), which are the source of truth.
 */
struct DmkStats
{
    std::uint64_t spawns = 0;           ///< dump+reload events
    std::uint64_t raysDumped = 0;
    std::uint64_t raysLoaded = 0;
    std::uint64_t conflictCycles = 0;   ///< unhidden bank-conflict cycles
};

/**
 * DMK controller for one SMX. Drives the same while-if kernel as the DRS
 * but regroups rays through spawn memory instead of renaming warps.
 */
class DmkControl : public simt::WarpController
{
  public:
    /**
     * @param config DMK parameters
     * @param workspace the kernel's concrete workspace (DMK moves ray
     *        payloads through spawn memory, which requires slot access)
     */
    DmkControl(const DmkConfig &config, kernels::TravWorkspace &workspace);

    void attach(simt::Smx &smx) override { smx_ = &smx; }
    simt::RdctrlResult onRdctrl(int warp) override;
    void cycle(int issued_instructions) override { (void)issued_instructions; }
    obs::CounterSnapshot countersSnapshot() const override
    {
        return counters_.snapshot();
    }

    DmkStats stats() const;

    /** Rays currently parked in spawn memory (per state; tests). */
    std::size_t pooledRays(simt::TravState state) const;

    /**
     * Bank-conflict cycles of reloading the rays parked in spawn-memory
     * @p slots: one warp-wide access per ray variable, variable v of
     * slot s in bank (s + v) % spawnBanks.
     */
    std::uint32_t conflictCost(const std::vector<int> &slots);

    /**
     * Spawn-memory invariants: pooled payloads match their pool's state
     * and hold a real ray, spawn slots are unique across pools and the
     * free list (and account for every allocated slot), ray ids are
     * unique across workspace and pools, and the strict conservation law
     * holds: completed + live-in-rows + unfetched + pooled rays equals
     * the stripe size. Throws std::logic_error.
     */
    void verifyInvariants() const override;

  private:
    /** A ray parked in spawn memory. */
    struct PooledRay
    {
        kernels::RaySlot payload;
        int spawnSlot = 0; ///< spawn-memory slot (bank = slot % banks)
    };

    int allocSpawnSlot();
    void freeSpawnSlot(int slot);

    DmkConfig config_;
    kernels::TravWorkspace &workspace_;
    simt::Smx *smx_ = nullptr;
    std::array<std::vector<PooledRay>, simt::kNumTravStates> pools_;
    std::vector<int> freeSlots_;
    int nextSpawnSlot_ = 0;

    // Scratch of onRdctrl's reload, reused across spawns.
    std::vector<int> loadSlots_;
    std::vector<int> bankPopulation_;

    /** Observability counters ("dmk.*"); see obs::Counters. */
    obs::Counters counters_;
    obs::Counter &spawns_;
    obs::Counter &raysDumped_;
    obs::Counter &raysLoaded_;
    obs::Counter &conflictCycles_;
};

} // namespace drs::baselines
