#pragma once

/**
 * @file
 * Interfaces between the SIMT core and ray-management hardware.
 *
 * The DRS control unit (src/core) and the DMK baseline (src/baselines)
 * both sit on the warp-issue path of an SMX: they intercept the rdctrl
 * instruction, may stall it, and decide which row of rays a warp works on
 * and which traversal state the warp will process next. The SIMT core only
 * sees these two small interfaces; it never depends on the concrete
 * hardware models.
 */

#include <array>
#include <cstdint>
#include <iosfwd>
#include <stdexcept>
#include <vector>

#include "obs/counters.h"

namespace drs::fault {
class FaultInjector;
}

namespace drs::simt {

/** Ray traversal states, exactly the paper's three (Figure 1/4). */
enum class TravState : std::uint8_t
{
    Fetch = 0, ///< slot must fetch a new ray (empty slots are Fetch)
    Inner = 1, ///< ray must traverse inner BVH nodes
    Leaf = 2,  ///< ray must test leaf triangles
};

/** Number of distinct TravState values. */
inline constexpr int kNumTravStates = 3;

/**
 * The register-file-resident rows of ray state, as seen by ray-management
 * hardware. Implemented by the traversal kernels (they own the actual
 * per-slot live variables); the DRS control reads states and commands
 * logical ray moves through it.
 *
 * The base class keeps the row census — per row, one lane mask for each
 * traversal state — plus the number of live rays, the ray state table
 * the DRS hardware keeps. Implementations report every slot state change
 * through setLaneState(), so the census is never rescanned.
 */
class RowWorkspace
{
  public:
    /**
     * @param rows number of logical rows (N warps + M backup + 2 empty)
     * @param lanes slots per row (the warp size), in [1, 32]
     * @throws std::invalid_argument on a non-positive row count or an
     *         out-of-range lane count (the census masks are 32-bit)
     */
    RowWorkspace(int rows, int lanes) : rows_(rows), lanes_(lanes)
    {
        if (rows <= 0)
            throw std::invalid_argument("workspace needs at least one row");
        if (lanes < 1 || lanes > 32)
            throw std::invalid_argument(
                "workspace lanes must be in [1, 32] (lane masks are 32-bit)");
        const std::uint32_t all =
            lanes == 32 ? 0xffffffffu : (1u << lanes) - 1u;
        masks_.assign(static_cast<std::size_t>(rows), {all, 0u, 0u});
    }

    virtual ~RowWorkspace() = default;

    /** Number of logical rows (N warps + M backup + 2 empty). */
    int rowCount() const { return rows_; }

    /** Lanes per row (the warp size). */
    int laneCount() const { return lanes_; }

    /** Traversal state of slot (row, lane), read from the slot itself. */
    virtual TravState state(int row, int lane) const = 0;

    /** Lanes of @p row whose slots are in @p state (the row census). */
    std::uint32_t laneMask(int row, TravState state) const
    {
        return masks_[static_cast<std::size_t>(row)]
                     [static_cast<std::size_t>(state)];
    }

    /** Number of live (Inner or Leaf) rays currently held in rows. */
    std::size_t liveRays() const { return liveRays_; }

    /**
     * Move the ray of (src_row, src_lane) into (dst_row, dst_lane); the
     * source slot becomes Fetch (empty). The destination must be Fetch.
     */
    virtual void moveRay(int src_row, int src_lane, int dst_row,
                         int dst_lane) = 0;

    /** Exchange the rays (or emptiness) of two slots. */
    virtual void swapRays(int row_a, int lane_a, int row_b, int lane_b) = 0;

    /** True when the SMX's input ray pool is exhausted. */
    virtual bool poolEmpty() const = 0;

    /**
     * Fault-injection hook: flip one bit of the ray payload held in slot
     * (row, lane). @p bit indexes into the slot's ray bytes modulo their
     * size, so any value is safe. Empty slots are a no-op. Default: the
     * workspace does not model payload corruption.
     */
    virtual void corruptRay(int row, int lane, std::uint32_t bit)
    {
        (void)row;
        (void)lane;
        (void)bit;
    }

  protected:
    /** Record that slot (row, lane) now holds @p state in the census. */
    void setLaneState(int row, int lane, TravState state)
    {
        auto &masks = masks_[static_cast<std::size_t>(row)];
        const std::uint32_t bit = 1u << lane;
        // The masks partition the lanes: a lane outside the fetch mask
        // holds a live ray.
        if ((masks[static_cast<std::size_t>(TravState::Fetch)] & bit) == 0)
            --liveRays_;
        for (std::uint32_t &mask : masks)
            mask &= ~bit;
        masks[static_cast<std::size_t>(state)] |= bit;
        if (state != TravState::Fetch)
            ++liveRays_;
    }

  private:
    /** Lets tests corrupt the census to prove the checker notices. */
    friend struct RowWorkspaceTestPeer;

    int rows_;
    int lanes_;
    /** Per row, one lane mask per TravState (they partition the lanes). */
    std::vector<std::array<std::uint32_t, kNumTravStates>> masks_;
    std::size_t liveRays_ = 0;
};

/** Outcome of a warp's attempt to issue the rdctrl instruction. */
struct RdctrlResult
{
    /** Issue cannot proceed this cycle (ongoing shuffling, no row). */
    bool stall = false;
    /** trav_ctrl_val == EXIT: the warp leaves the kernel. */
    bool exit = false;
    /** Traversal state the warp will process (valid when proceeding). */
    TravState ctrl = TravState::Fetch;
    /** Row the warp is now mapped to (valid when proceeding). */
    int row = -1;
    /** Active-lane mask for the selected body. */
    std::uint32_t mask = 0;
    /**
     * Lanes whose slots are empty and receive FETCH as their per-thread
     * trav_ctrl_val (rdctrl reads a value per thread): these lanes run
     * the fetch if-body before the warp returns to rdctrl, refilling
     * holes without a shuffle. 0 when the row has no refillable holes.
     */
    std::uint32_t fetchMask = 0;
    /**
     * Explicit body block to dispatch instead of the state-mapped one
     * (kernel_.blockForState(ctrl)). Used by controllers whose kernels
     * have bodies with no TravState equivalent — the SER control unit
     * dispatches the shade block this way. -1 keeps the state mapping.
     */
    int bodyBlock = -1;
    /**
     * Spawn-overhead warp instructions to issue before the body (the
     * DMK's data dump/load instructions; 0 for DRS).
     */
    int overheadInstructions = 0;
};

class Smx; // forward declaration (simt/smx.h)

/**
 * Ray-management hardware attached to one SMX (DRS control or DMK).
 * A null controller means the plain baseline GPU (Aila's kernel).
 */
class WarpController
{
  public:
    virtual ~WarpController() = default;

    /**
     * Bind to the SMX this controller serves, after the SMX exists.
     * Controllers use it for shuffle-statistic callbacks.
     */
    virtual void attach(Smx &smx) { (void)smx; }

    /**
     * A warp wants to issue rdctrl. Called once per issue attempt. A
     * stalled warp retries in every step in which its scheduler is free,
     * and the SMX steps at least once the answer may have changed (see
     * callsUntilChange()).
     */
    virtual RdctrlResult onRdctrl(int warp) = 0;

    /**
     * Advance one core cycle (ray-swap engine progress).
     * @param issued_instructions instructions the SMX issued this cycle,
     *        used to model register-bank contention with the operand
     *        collectors.
     */
    virtual void cycle(int issued_instructions) = 0;

    /** callsUntilChange() when no cycle() call will change the state. */
    static constexpr std::uint64_t kNoChange = ~std::uint64_t{0};

    /**
     * Grows with every change the controller makes to the state a
     * stalled warp's retry reads. The retry also reads the kernel's rows
     * and pool, which the SMX sees change when it runs semantics.
     */
    std::uint64_t stateVersion() const { return stateVersion_; }

    /**
     * The number of upcoming cycle() calls, each with
     * @p issued_instructions, up to and including the first that may
     * change the state a stalled warp's retry reads: 1 when the next
     * call may, kNoChange when none will (then only onRdctrl or the
     * kernel's semantics can). The default, 0, says the state may have
     * changed already, so stalled warps retry every cycle: exact for a
     * controller that does not keep stateVersion().
     */
    virtual std::uint64_t callsUntilChange(int issued_instructions) const
    {
        (void)issued_instructions;
        return 0;
    }

    /**
     * Snapshot of this controller's observability counters ("drs.*",
     * "dmk.*"); merged into the owning SMX's SimStats::counters.
     */
    virtual obs::CounterSnapshot countersSnapshot() const { return {}; }

    /**
     * Verify the controller's internal invariants (renaming-table
     * consistency, ray conservation through its pools/operations).
     * Called periodically by the SMX under DRS_CHECK; implementations
     * throw std::logic_error on violation. Default: nothing to check.
     */
    virtual void verifyInvariants() const {}

    /**
     * Attach a fault injector (nullptr detaches). Controllers that model
     * transfer-boundary faults (DRS corrupts ray payloads as swaps
     * complete) roll on it; the default controller has no fault sites.
     */
    virtual void setFault(fault::FaultInjector *fault) { (void)fault; }

    /**
     * Append a human-readable dump of the controller's state (row
     * ownership, in-flight shuffle operations) to @p out. Used by the
     * forward-progress watchdog's diagnostic report. Default: nothing.
     */
    virtual void describeState(std::ostream &out) const { (void)out; }

  protected:
    /** Record a change to the state stalled warps' retries read. */
    void bumpStateVersion() { ++stateVersion_; }

  private:
    std::uint64_t stateVersion_ = 0;
};

} // namespace drs::simt
