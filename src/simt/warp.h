#pragma once

/**
 * @file
 * Warp execution state: the per-warp SIMT reconvergence stack (immediate
 * post-dominator based, as in GPGPU-Sim) and issue bookkeeping.
 */

#include <cstdint>
#include <vector>

#include "simt/kernel_ir.h"

namespace drs::simt {

/** One reconvergence-stack entry. */
struct StackEntry
{
    int pc = 0;            ///< next block to execute
    int rpc = 0;           ///< reconvergence block (pop when pc == rpc)
    std::uint32_t mask = 0; ///< active lanes
};

/**
 * Number of set bits in a lane mask. Spelled out because the baseline
 * x86-64 target has no popcount instruction, and the builtin becomes a
 * library call there.
 */
inline int
popcount(std::uint32_t mask)
{
    mask -= (mask >> 1) & 0x55555555u;
    mask = (mask & 0x33333333u) + ((mask >> 2) & 0x33333333u);
    return static_cast<int>(
        (((mask + (mask >> 4)) & 0x0f0f0f0fu) * 0x01010101u) >> 24);
}

/** Full mask for @p lanes threads. */
inline std::uint32_t
fullMask(int lanes)
{
    return lanes >= 32 ? 0xffffffffu : ((1u << lanes) - 1u);
}

/**
 * A warp: SIMT stack plus scheduler-visible state. The SMX drives it; this
 * class only encapsulates the reconvergence-stack mechanics.
 */
class Warp
{
  public:
    /**
     * @param id warp id within the SMX
     * @param row initial ray row the warp operates on
     * @param entry_block kernel entry block
     * @param exit_block kernel exit block
     * @param lanes warp width, in [1, 32]
     * @throws std::invalid_argument on an out-of-range warp width (the
     *         mask arithmetic shifts 1u << lane, so lanes > 32 would
     *         silently wrap instead of failing)
     */
    Warp(int id, int row, int entry_block, int exit_block, int lanes);

    int id() const { return id_; }

    /** Ray row this warp is renamed onto (row == id without DRS). */
    int row() const { return row_; }
    void bindRow(int row) { row_ = row; }

    bool exited() const { return exited_; }

    /** Current block to execute (stack top pc). */
    int pc() const { return stack_.back().pc; }

    /** Active mask of the current stack top. */
    std::uint32_t activeMask() const { return stack_.back().mask; }

    /**
     * Apply per-lane successor choices after the current block completed.
     *
     * @param next_blocks successor per lane (indexed by lane id); only
     *        lanes in the active mask are read
     * @param program the kernel CFG (for reconvergence points)
     */
    void applySuccessors(const std::vector<int> &next_blocks,
                         const Program &program);

    /**
     * Force a uniform branch: push a body entry for @p mask lanes that
     * reconverges at @p rpc (the rdctrl block, in the dispatch pattern).
     */
    void pushUniformBody(int body_block, std::uint32_t mask, int rpc);

    /** Terminate the warp (trav_ctrl_val == EXIT). */
    void forceExit();

    /** Stack depth (diagnostics/tests). */
    std::size_t stackDepth() const { return stack_.size(); }

    /** Read-only stack view (invariant checker, tests). */
    const std::vector<StackEntry> &stack() const { return stack_; }

    /** Exit block of the kernel this warp runs (invariant checker). */
    int exitBlock() const { return exitBlock_; }

    /** Warp width (invariant checker). */
    int lanes() const { return lanes_; }

    // --- scheduler-visible issue state (owned by the SMX) ---
    /** Instructions still to issue in the current block. */
    int remainingInstructions = 0;
    /** Extra spawn-overhead instructions to issue before the block. */
    int overheadInstructions = 0;
    /** Warp is blocked until this cycle (its memory access returns). */
    std::uint64_t readyCycle = 0;
    /** Set while the warp is stalled on rdctrl. */
    bool stalledOnRdctrl = false;
    /** Cycle the current rdctrl stall began (tracer bookkeeping). */
    std::uint64_t stallStartCycle = 0;
    /** Cycle the current block began issuing (tracer bookkeeping). */
    std::uint64_t blockStartCycle = 0;
    /** The rdctrl result has been obtained for the pending dispatch. */
    bool rdctrlResolved = false;
    /** Pending uniform dispatch after rdctrl issues. */
    int pendingBody = -1;
    std::uint32_t pendingMask = 0;
    /** Optional second dispatch: the fetch body for hole lanes. */
    int pendingFetchBody = -1;
    std::uint32_t pendingFetchMask = 0;
    bool pendingExit = false;

  private:
    void popConverged();

    int id_;
    int row_;
    int exitBlock_;
    int lanes_;
    bool exited_ = false;
    std::vector<StackEntry> stack_;
};

} // namespace drs::simt
