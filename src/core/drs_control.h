#pragma once

/**
 * @file
 * The DRS control logic (paper Section 3): ray state table, warp renaming
 * table, and the greedy ray-swap engine with its three designated rows
 * (fetch-state collecting, leaf-state collecting, inner-state ejecting).
 *
 * Attached to one SMX as its WarpController: it intercepts rdctrl issue,
 * maps warps onto state-uniform rows (possibly stalling them while
 * shuffling is in flight), and moves ray register data between rows
 * through the swap buffers, modeling register-bank contention with the
 * operand collectors.
 *
 * Dispatch rule: a row is dispatchable when its live rays all share one
 * traversal state. Empty (fetch-state) slots are tolerated — rdctrl is a
 * per-thread read, so hole lanes receive FETCH and refill in place when
 * enough of them accumulate; scattered holes are gathered by the
 * fetch-collect shuffle task, exactly the row's purpose in the paper.
 * Rows mixing inner- and leaf-state rays stall the warp until shuffling
 * separates them.
 */

#include <array>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "core/drs_config.h"
#include "obs/counters.h"
#include "simt/controller.h"
#include "simt/warp.h"

namespace drs::simt {
class Smx;
}

namespace drs::core {

/** The three shuffle tasks of the greedy swap scheme. */
enum class ShuffleTask
{
    FetchCollect = 0,
    LeafCollect = 1,
    InnerEject = 2,
};

/**
 * Counters exposed for tests and benches. A value snapshot of the
 * control's obs counters ("drs.*" names), which are the source of truth.
 */
struct DrsControlStats
{
    std::uint64_t remaps = 0;          ///< warp-to-new-row mappings
    std::uint64_t stallsStarted = 0;   ///< rdctrl issues that had to wait
    std::uint64_t movesCompleted = 0;  ///< single-ray moves
    std::uint64_t exchangesCompleted = 0; ///< two-ray exchanges
    std::uint64_t idleCycles = 0;      ///< cycles with no shuffle work
};

/**
 * DRS control for one SMX.
 *
 * Lifecycle: construct with the kernel's RowWorkspace, attach() to the
 * Smx, then the Smx drives onRdctrl()/cycle().
 */
class DrsControl : public simt::WarpController
{
  public:
    /**
     * @param config hardware configuration
     * @param workspace the kernel's row-addressed ray state
     * @param num_warps resident warps (N); rows = N + M + 2
     */
    DrsControl(const DrsConfig &config, simt::RowWorkspace &workspace,
               int num_warps);

    void attach(simt::Smx &smx) override { smx_ = &smx; }
    simt::RdctrlResult onRdctrl(int warp) override;
    void cycle(int issued_instructions) override;

    /**
     * 1 while the engine is dirty (the next call scans for operations);
     * otherwise the call that completes the first in-flight operation,
     * found by replaying the advance loop, or kNoChange when idle.
     * stateVersion() grows at every bind, unbind, operation start and
     * completion, and consolidation.
     */
    std::uint64_t callsUntilChange(int issued_instructions) const override;
    obs::CounterSnapshot countersSnapshot() const override
    {
        return counters_.snapshot();
    }

    /**
     * Renaming-table and swap-engine invariants: warpRow_/rowOwner_ are
     * mutually consistent bijections on the bound pairs (row-ownership
     * exclusivity), the unbound-row set matches rowOwner_, in-flight
     * operations only touch unbound rows with in-range lanes and
     * positive remaining work, and each row's lock count equals the
     * in-flight operations touching it. Throws std::logic_error.
     */
    void verifyInvariants() const override;

    /**
     * Arm swap-boundary fault injection: as each shuffle operation
     * completes, the injector may flip one bit of the destination slot's
     * ray payload — modeling a soft error in the swap buffers while ray
     * registers are in flight between rows. nullptr detaches.
     */
    void setFault(fault::FaultInjector *fault) override { fault_ = fault; }

    /** Row ownership + in-flight operations, for the watchdog dump. */
    void describeState(std::ostream &out) const override;

    /** Row currently renamed to @p warp, or -1 while stalled. */
    int warpRow(int warp) const { return warpRow_.at(warp); }

    DrsControlStats stats() const;

    /** Number of in-flight shuffle operations (tests). */
    int activeOperations() const;

  private:
    /** One in-flight ray move/exchange. */
    struct Operation
    {
        bool active = false;
        bool isExchange = false;
        int rowA = -1, laneA = -1;
        int rowB = -1, laneB = -1;
        int transfersRemaining = 0; ///< variable read+write pairs left
        int setupRemaining = 0;     ///< fixed op setup cycles left
        std::uint64_t startCycle = 0;
    };

    /**
     * A row's census: its lane masks per traversal state, read from the
     * workspace and counted on demand (the searches test the masks
     * first, which rejects most rows without counting).
     */
    struct RowCensus
    {
        std::uint32_t fetchLanes = 0;
        std::uint32_t innerLanes = 0;
        std::uint32_t leafLanes = 0;
        std::uint32_t liveLanes() const { return innerLanes | leafLanes; }
        int fetch() const { return simt::popcount(fetchLanes); }
        int inner() const { return simt::popcount(innerLanes); }
        int leaf() const { return simt::popcount(leafLanes); }
        int live() const { return simt::popcount(liveLanes()); }
    };

    RowCensus census(int row) const;

    /** First lane of @p row in @p state, or -1. */
    int firstLane(int row, simt::TravState state) const;

    /** True when the row can be dispatched without divergence stalls. */
    bool dispatchable(const RowCensus &c) const;

    /** Dispatch decision for a dispatchable row. */
    simt::RdctrlResult dispatch(int warp, int row, const RowCensus &c);

    /**
     * Visit the unbound, unlocked rows in ascending order until
     * @p visit(row) returns true; returns that row, or -1.
     */
    template <typename Visit>
    int findFreeRow(Visit &&visit) const;

    /** Find the best unbound, unlocked, dispatchable row (or -1). */
    int findUniformRow() const;

    /**
     * Memoized findUniformRow: a stalled warp retries in every step its
     * scheduler is free, and most such steps find the rows unchanged.
     */
    int cachedUniformRow();

    bool rowLocked(int row) const
    {
        return lockCount_[static_cast<std::size_t>(row)] != 0;
    }
    void setUnbound(int row, bool unbound);
    void bindRow(int warp, int row);
    void unbindWarpRow(int warp);

    /** Pick the next operation for an idle shuffle task. */
    std::optional<Operation> chooseOperation(ShuffleTask task);

    /** Re-select a designated row for @p task if needed. */
    void refreshDesignatedRow(ShuffleTask task);

    /** Start @p op in the request-table entry @p entry; locks its rows. */
    void startOperation(Operation &entry, const Operation &op);

    void completeOperation(Operation &op);

    /** Idealized mode: consolidate all unbound rows instantly. */
    void idealConsolidate();

    DrsConfig config_;
    simt::RowWorkspace &workspace_;
    simt::Smx *smx_ = nullptr;
    fault::FaultInjector *fault_ = nullptr;
    int numWarps_;
    int rows_;
    int lanes_;

    std::vector<int> warpRow_;    ///< renaming table: warp -> row (-1 none)
    std::vector<int> rowOwner_;   ///< row -> warp (-1 unbound)
    /** Bit r set when row r is unbound (rowOwner_[r] == -1). */
    std::vector<std::uint64_t> unbound_;
    /** Per row, the in-flight operations touching it. */
    std::vector<int> lockCount_;
    std::array<int, 3> designated_{-1, -1, -1}; ///< per ShuffleTask row
    /**
     * In-flight operations: the swapping request table. Each shuffle
     * task pipelines up to buffersPerTask() concurrent operations (one
     * buffer carries one variable between its read and write cycle).
     */
    std::vector<Operation> ops_;
    int opsPerTask_ = 2;
    std::uint64_t now_ = 0;
    bool dirty_ = true; ///< unbound-row set or contents changed

    // Per-cycle sample of the drain-termination check.
    std::uint64_t liveCacheCycle_ = ~0ULL;
    std::size_t liveCacheValue_ = 1;
    bool liveCachePoolEmpty_ = false;

    // Memoized uniform-row search (see cachedUniformRow()).
    bool uniformCacheValid_ = false;
    int uniformCacheRow_ = -1;

    /** callsUntilChange()'s {setup, transfers} per operation (scratch). */
    mutable std::vector<std::pair<int, int>> replay_;

    // Scratch of idealConsolidate, reused across calls.
    std::vector<int> poolRows_;
    std::vector<std::pair<int, int>> innerRays_;
    std::vector<std::pair<int, int>> leafRays_;
    std::vector<std::pair<int, int>> targets_;

    /** Lets tests corrupt the tables to prove verifyInvariants notices. */
    friend struct DrsControlTestPeer;

    /** Observability counters ("drs.*"); see obs::Counters. */
    obs::Counters counters_;
    obs::Counter &remaps_;
    obs::Counter &stallsStarted_;
    obs::Counter &movesCompleted_;
    obs::Counter &exchangesCompleted_;
    obs::Counter &swapsCompleted_;
    obs::Counter &idleCycles_;
};

} // namespace drs::core
