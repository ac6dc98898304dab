#pragma once

/**
 * @file
 * Thread Block Compaction baseline (Fung & Aamodt, HPCA 2011), as the
 * paper evaluates it: the Aila while-while kernel runs on thread blocks
 * of 6 warps that share a block-wide reconvergence stack. At a divergent
 * branch all warps of the block synchronize, then threads are compacted
 * into new warps — but a thread can only move to its own SIMD lane in
 * another warp (per-lane compaction), and the block-wide barrier costs
 * synchronization latency. Both limits are the reasons the paper gives
 * for TBC's modest SIMD-efficiency gains.
 */

#include <array>
#include <cstdint>
#include <vector>

#include "kernels/aila_kernel.h"
#include "simt/smx.h"

namespace drs::baselines {

/** TBC configuration. */
struct TbcConfig
{
    /** Warps per thread block (paper: 6, as in the TBC paper). */
    int warpsPerBlock = 6;
    /** Resident warps per SMX (runs Aila's kernel: 48). */
    int numWarps = 48;
    /** Cycles a block pays at each divergence barrier. */
    int syncLatency = 4;
    kernels::AilaConfig kernelConfig{};
};

/**
 * One SMX executing the while-while kernel under TBC: a second
 * simt::SmxExecutor (the block-wide stack does not fit the per-warp
 * Smx), sharing the memory system, program and workspace semantics with
 * the rest of the simulator. simt::runGpu drives it through
 * simt::SmxSetup::executor.
 *
 * Attribution charges the block-wide divergence barrier to the
 * stalled-scoreboard bucket. The TBC has no swap hardware, so of the
 * SMX's fault sites only L1 tag corruption applies — the same
 * FaultConfig injects strictly fewer fault kinds here, by design.
 */
class TbcSmx : public simt::SmxExecutor
{
  public:
    /**
     * @param config GPU configuration
     * @param tbc TBC parameters
     * @param kernel the Aila kernel instance bound to this SMX
     * @param shared GPU-wide L2/DRAM
     */
    TbcSmx(const simt::GpuConfig &config, const TbcConfig &tbc,
           kernels::AilaKernel &kernel, simt::SharedMemorySide &shared);

    /** True when every thread block has exited. */
    bool done() const override;

    /**
     * Block-stack invariants, verified periodically under a checker:
     * every stack is non-empty with its bottom entry reconverging at the
     * exit block; the running-warp count matches the top entry; pcs/rpcs
     * are valid blocks; compaction is
     * lane-preserving (a thread only ever occupies its home lane);
     * threads stay within their block's rows and appear at most once per
     * entry; child entries reconverge at their parent's pc and hold
     * pairwise-disjoint subsets of the parent's threads. Throws
     * std::logic_error.
     */
    void verifyInvariants() const override;

    /** Forward-progress measure: completed rays + exited blocks. */
    std::uint64_t progressCount() const override;

    /** Per-block stack depth, top entry and barrier state. */
    void describeState(std::ostream &out) const override;

  private:
    void issue() override;

    /** A thread's permanent identity: its home (row, lane) slot. */
    struct ThreadRef
    {
        int row = -1;
        int lane = -1;
    };

    /**
     * A compacted warp: per lane, one thread or none. A warp waiting on
     * memory stays where it is until commitMemory() sets its readyCycle:
     * block stacks are only restructured by finishEntry, which runs at
     * the start of the next step — after the commit.
     */
    struct CompactedWarp
    {
        /** Per lane; row < 0 = hole (every lane past the warp width). */
        std::array<ThreadRef, 32> lanes{};
        /** Threads in lanes, counted when the warp is formed. */
        int activeThreads = 0;
        int remainingInstructions = 0;
        std::uint64_t readyCycle = 0;
        bool semanticsDone = false;
    };

    /** One block-wide reconvergence stack entry. */
    struct BlockEntry
    {
        int pc = 0;
        int rpc = 0;
        std::vector<CompactedWarp> warps;
    };

    /** One thread block: 6 warps sharing a stack. */
    struct ThreadBlock
    {
        std::vector<BlockEntry> stack;
        bool exited = false;
        /** Buffered successor per thread slot, filled at warp completion. */
        std::vector<int> nextBlocks; // indexed row-major over block slots
        std::uint64_t barrierUntil = 0;
        /** Warps of the top entry whose semantics have not run yet. */
        std::size_t runningWarps = 0;
    };

    /** Successor @p t buffered when its warp completed. */
    int nextBlock(const ThreadBlock &block, const ThreadRef &t) const;

    /**
     * Compact the threads of @p entry whose successor is @p target into
     * new warps, lane-preserving.
     */
    std::vector<CompactedWarp> compact(const ThreadBlock &block,
                                       const BlockEntry &entry, int target);

    /** Pop the block's top entry, keeping its warp list for compact(). */
    void popEntry(ThreadBlock &block);

    /** All warps of the top entry finished: partition and push. */
    void finishEntry(ThreadBlock &block);

    int issueFromBlock(ThreadBlock &block, int max_issues);
    void completeWarp(ThreadBlock &block, CompactedWarp &warp);

    /** Charge scheduler @p scheduler's unissued slots (attribution). */
    void attributeUnissued(int scheduler, int slots);

    int threadSlotIndex(const ThreadRef &t) const;

    TbcConfig tbc_;
    std::vector<ThreadBlock> blocks_;
    std::vector<int> lastIssuedBlock_; ///< per scheduler
    /** finishEntry's successor list (scratch, ascending). */
    std::vector<int> targets_;
    /** Warp lists of discarded stack entries, reused by compact(). */
    std::vector<std::vector<CompactedWarp>> spareWarps_;

    obs::Counter &syncStallCycles_;
};

} // namespace drs::baselines
