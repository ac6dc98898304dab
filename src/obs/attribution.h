#pragma once

/**
 * @file
 * Cycle-attribution profiler: issue-slot accounting.
 *
 * Every scheduler issue slot of every SMX cycle is classified into
 * exactly one bucket — the top-down cycle accounting the paper's Fig.
 * 9/10 argument rests on (stall slots converted into issued slots). The
 * taxonomy (DESIGN.md §9):
 *
 *  - IssuedFull       instruction issued with every SIMD lane active
 *  - IssuedPartial    instruction issued under divergence (< all lanes)
 *  - StalledRdctrl    slot lost waiting on the ray-dispatch controller
 *  - StalledMemory    slot lost waiting on an outstanding memory access
 *  - StalledScoreboard slot lost on an in-core hazard; only the TBC
 *                     divergence barrier charges it (DMK replays its
 *                     spawn bank conflicts as issued instructions)
 *  - NoReadyWarp      no eligible warp (includes dual-issue width lost
 *                     at block boundaries)
 *  - Drained          every warp of the scheduler's partition exited
 *
 * Each slot is additionally attributed to the traversal phase of the
 * warp it was issued to (or blamed on): inner-node traversal, leaf
 * intersection, ray fetch/store bookkeeping, or none (control blocks).
 *
 * The accounting carries a hard conservation invariant
 *
 *     sum over buckets x phases == slotsPerCycle x cycles
 *
 * verified per cycle in endCycle() and end-to-end in
 * verifyConservation() (called from the SMX's collectStats under
 * DRS_CHECK). Attribution is a pure observer: it never feeds back into
 * scheduling, and SimStats are bit-identical with it on or off.
 */

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace drs::obs {

class Json;

/** Exclusive classification of one scheduler issue slot. */
enum class SlotBucket : std::uint8_t
{
    IssuedFull = 0,
    IssuedPartial,
    StalledRdctrl,
    StalledMemory,
    StalledScoreboard,
    NoReadyWarp,
    Drained,
};

inline constexpr int kNumSlotBuckets = 7;

/** Stable snake_case name used in JSON reports and tables. */
const char *slotBucketName(SlotBucket bucket);

/**
 * Traversal phase a slot is attributed to. Kernel programs tag each
 * block (simt::Block::phase); control/exit blocks stay None.
 */
enum class TravPhase : std::uint8_t
{
    None = 0,
    Fetch,
    Inner,
    Leaf,
};

inline constexpr int kNumTravPhases = 4;

/** Stable snake_case name used in JSON reports and tables. */
const char *travPhaseName(TravPhase phase);

/**
 * Per-SMX issue-slot ledger. The SMX records every slot of every cycle
 * (issued slots at issue time, unissued slots when a scheduler closes
 * its cycle) and calls endCycle() once per cycle, which enforces the
 * per-cycle conservation invariant. Disabled instances ignore all
 * recording so call sites need no branches beyond a null check.
 */
class IssueAttribution
{
  public:
    /** Arm the ledger for @p slots_per_cycle scheduler slots per cycle. */
    void enable(int slots_per_cycle);

    bool enabled() const { return slotsPerCycle_ > 0; }
    int slotsPerCycle() const { return slotsPerCycle_; }

    /** Classify @p n slots of the current cycle. */
    void record(SlotBucket bucket, TravPhase phase, std::uint64_t n = 1)
    {
        counts_[index(bucket, phase)] += n;
        cycleSlots_ += n;
    }

    /**
     * Close the current cycle. Throws std::logic_error if the slots
     * recorded this cycle do not sum to exactly slotsPerCycle().
     */
    void endCycle();

    std::uint64_t cycles() const { return cycles_; }
    std::uint64_t count(SlotBucket bucket, TravPhase phase) const
    {
        return counts_[index(bucket, phase)];
    }
    std::uint64_t bucketTotal(SlotBucket bucket) const;
    std::array<std::uint64_t, kNumSlotBuckets> bucketTotals() const;
    std::uint64_t totalSlots() const;

    /** Fold another SMX's ledger into this one (same slotsPerCycle). */
    void merge(const IssueAttribution &other);

    /**
     * End-to-end conservation: totalSlots() == slotsPerCycle x cycles.
     * Throws std::logic_error with a full breakdown on violation.
     */
    void verifyConservation() const;

  private:
    static constexpr std::size_t index(SlotBucket bucket, TravPhase phase)
    {
        return static_cast<std::size_t>(bucket) * kNumTravPhases +
               static_cast<std::size_t>(phase);
    }

    std::array<std::uint64_t, kNumSlotBuckets * kNumTravPhases> counts_{};
    std::uint64_t cycles_ = 0;
    std::uint64_t cycleSlots_ = 0;
    int slotsPerCycle_ = 0;
};

/**
 * Owns one IssueAttribution per SMX for a run, mirroring how
 * TraceCollector owns per-SMX tracers. The run wires smx(i) into each
 * unit; merged() folds the per-SMX ledgers for reporting.
 */
class AttributionCollector
{
  public:
    AttributionCollector(int num_smx, int slots_per_cycle);

    int smxCount() const { return static_cast<int>(perSmx_.size()); }
    IssueAttribution &smx(int index) { return *perSmx_.at(index); }
    const IssueAttribution &smx(int index) const { return *perSmx_.at(index); }

    /** Block names of the kernel program, for hottest-block reporting. */
    void setBlockNames(std::vector<std::string> names);
    const std::vector<std::string> &blockNames() const { return blockNames_; }

    IssueAttribution merged() const;

    /**
     * "attribution" section of a bench-report row (schema v3+):
     * slots_per_cycle, cycles, and per-bucket totals with a traversal-
     * phase breakdown.
     */
    Json toJson() const;

  private:
    std::vector<std::unique_ptr<IssueAttribution>> perSmx_;
    std::vector<std::string> blockNames_;
};

} // namespace drs::obs
