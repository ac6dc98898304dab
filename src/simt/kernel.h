#pragma once

/**
 * @file
 * The kernel execution interface: a Program (CFG) plus per-thread
 * semantics over row/lane-addressed thread state. One Kernel instance is
 * bound to one SMX (it owns that SMX's ray pool and rows).
 */

#include <cstdint>

#include "simt/controller.h"
#include "simt/kernel_ir.h"

namespace drs::simt {

/** What one thread reports after a block's semantics execute. */
struct ThreadStep
{
    /** Successor block id (must be one of the block's successors). */
    int nextBlock = -1;
    /** Byte address touched, when the block has a memory instruction. */
    std::uint64_t memAddress = 0;
    /** Access width in bytes (0 = this lane made no access). */
    std::uint32_t memBytes = 0;
};

/**
 * A simulated kernel: static CFG + dynamic per-thread semantics.
 *
 * The SMX calls execute() for every active lane when a block's
 * instructions have issued; the kernel mutates its private thread state
 * and reports the successor plus any memory traffic.
 */
class Kernel
{
  public:
    virtual ~Kernel() = default;

    /** The kernel's control-flow graph. */
    virtual const Program &program() const = 0;

    /** Execute block @p block for the thread at (row, lane). */
    virtual ThreadStep execute(int block, int row, int lane) = 0;

    /**
     * Body entry block for traversal state @p state (used to dispatch the
     * controller's trav_ctrl_val). Only meaningful for rdctrl-style
     * kernels; others may return -1.
     */
    virtual int blockForState(TravState state) const { (void)state; return -1; }

    /** Row-addressed state storage, for ray-management hardware. */
    virtual RowWorkspace &workspace() = 0;

    /** Rays fully traced so far on this SMX. */
    virtual std::uint64_t raysCompleted() const = 0;

    /**
     * Snapshot of the kernel's own observability counters (e.g.
     * "pathpred.*"); merged into the owning SMX's SimStats::counters.
     */
    virtual obs::CounterSnapshot countersSnapshot() const { return {}; }
};

} // namespace drs::simt
