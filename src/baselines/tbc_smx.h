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
#include <span>
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
 * Like Smx it steps only at its events. A scheduler whose greedy block
 * can issue runs that block's current warp down; every warp of a top
 * entry is armed and ready, so warps complete in order and the issuing
 * one is the first whose semantics have not run. A block finishes its
 * top entry once its barrier has passed and its last warp's access has
 * returned, whichever scheduler owns it. The cycles between are credited
 * in bulk.
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
     * @throws std::invalid_argument when warpsPerBlock or numWarps is
     *         below 1, numWarps is not a multiple of warpsPerBlock, or
     *         the program has more than 64 blocks (successor sets are
     *         64-bit masks)
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
     * pairwise-disjoint subsets of the parent's threads; the top
     * entry's warps complete in order, and those still running are
     * ready with instructions left. Throws std::logic_error.
     */
    void verifyInvariants() const override;

    /** Forward-progress measure: completed rays + exited blocks. */
    std::uint64_t progressCount() const override;

    /** Per-block stack depth, top entry and barrier state. */
    void describeState(std::ostream &out) const override;

  private:
    void issue() override;
    std::uint64_t eventHorizon() const override;
    void creditCycles(std::uint64_t target) override;

    /** A thread's permanent identity: its home (row, lane) slot. */
    struct ThreadRef
    {
        int row = -1;
        int lane = -1;
    };

    /**
     * A compacted warp: per lane, one thread or none. A warp waiting on
     * memory stays in its entry: block stacks are only restructured by
     * finishEntry, once every warp of the top entry has completed and
     * its access has returned.
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
        /** The top entry's buffered successors, one bit per program block. */
        std::uint64_t successors = 0;
        std::uint64_t barrierUntil = 0;
        /** Warps of the top entry whose semantics have not run yet. */
        std::size_t runningWarps = 0;
        /**
         * Once runningWarps is 0: the cycle the top entry finishes, set
         * when its last warp completes.
         */
        std::uint64_t finishCycle = 0;
    };

    /** True when @p block can issue at @p cycle. */
    static bool canIssue(const ThreadBlock &block, std::uint64_t cycle)
    {
        return !block.exited && block.barrierUntil <= cycle &&
               block.runningWarps != 0;
    }

    /** The top entry's issuing warp: the first still running. */
    static CompactedWarp &issuingWarp(ThreadBlock &block)
    {
        auto &warps = block.stack.back().warps;
        return warps[warps.size() - block.runningWarps];
    }
    static const CompactedWarp &issuingWarp(const ThreadBlock &block)
    {
        const auto &warps = block.stack.back().warps;
        return warps[warps.size() - block.runningWarps];
    }

    /** Successor @p t buffered when its warp completed. */
    int nextBlock(const ThreadBlock &block, const ThreadRef &t) const;

    /** An empty warp list, reusing a discarded entry's when there is one. */
    std::vector<CompactedWarp> spareWarpList();

    /**
     * Compact the threads of @p entry, lane-preserving and in one pass:
     * those whose successor is the i-th lowest block of @p targets go to
     * the new warps appended to the empty list @p into[i]; the others
     * are left out.
     */
    void compact(const ThreadBlock &block, const BlockEntry &entry,
                 std::uint64_t targets,
                 std::span<std::vector<CompactedWarp> *const> into);

    /** Pop the block's top entry, keeping its warp list for reuse. */
    void popEntry(ThreadBlock &block);

    /** All warps of the top entry finished: partition and push. */
    void finishEntry(ThreadBlock &block);

    int issueFromBlock(ThreadBlock &block, int max_issues);

    /** Issue @p n of @p warp's remaining instructions of @p blk. */
    void creditIssue(CompactedWarp &warp, const simt::Block &blk, int n);

    void completeWarp(ThreadBlock &block, CompactedWarp &warp);

    /** Charge scheduler @p scheduler's unissued slots (attribution). */
    void attributeUnissued(int scheduler, int slots);

    int threadSlotIndex(const ThreadRef &t) const;

    TbcConfig tbc_;
    std::vector<ThreadBlock> blocks_;
    std::vector<int> lastIssuedBlock_; ///< per scheduler
    /** Warp lists of discarded stack entries, reused by spareWarpList(). */
    std::vector<std::vector<CompactedWarp>> spareWarps_;
    /** compact()'s per-target, per-lane count of warps filled. */
    std::vector<std::array<std::uint32_t, 32>> laneDepth_;

    obs::Counter &syncStallCycles_;
};

} // namespace drs::baselines
