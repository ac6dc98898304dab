#pragma once

/**
 * @file
 * One streaming multiprocessor (SMX): the executor surface every SMX
 * model shares, and Smx — warps, greedy-then-oldest warp schedulers with
 * dual issue, the per-SMX memory path, and the hook points for
 * ray-management hardware (rdctrl interception). This is the heart of
 * the GPGPU-Sim substitute.
 */

#include <cstdint>
#include <memory>
#include <vector>

#include "obs/attribution.h"
#include "obs/counters.h"
#include "obs/sampler.h"
#include "obs/trace.h"
#include "simt/check.h"
#include "simt/config.h"
#include "simt/controller.h"
#include "simt/kernel.h"
#include "simt/memory.h"
#include "simt/sim_stats.h"
#include "simt/warp.h"

namespace drs::simt {

/**
 * The SMX surface simt::runGpu and runEngine drive: one SMX executing
 * one kernel against the GPU-wide L2/DRAM side. Smx (per-warp stacks,
 * ray-management controllers) and baselines::TbcSmx (block-wide
 * compaction) are its two executors; what they share is written here
 * once: the per-cycle check and observer tail of step(), the
 * shared-side memory commit, the statistics tail and the observer,
 * checker and fault hooks.
 *
 * step() buffers shared-side (L2/DRAM) requests; commitMemory() must be
 * called after every step() — serially, in SMX-index order across the
 * GPU — to play them against the L2 and release the waiting warps. A
 * warp never observes its own memory latency within the cycle that
 * issued the access, so the commit order alone fixes the L2's access
 * interleaving, for any number of stepping threads.
 */
class SmxExecutor
{
  public:
    virtual ~SmxExecutor() = default;
    SmxExecutor(const SmxExecutor &) = delete;
    SmxExecutor &operator=(const SmxExecutor &) = delete;

    /** True when every warp has exited. */
    virtual bool done() const = 0;

    /** Advance one core cycle. */
    void step();

    /** Resolve this cycle's buffered shared-side requests. */
    void commitMemory();

    /** Current cycle count. */
    std::uint64_t cycle() const { return cycle_; }

    /**
     * The earliest cycle at which step() may do more than count down:
     * start or complete a block, retry a stalled warp, run the periodic
     * checks or feed an observer. runEngine's sequential loop credits
     * the cycles before it with skipTo() instead of stepping them. The
     * default, cycle(), steps every cycle.
     */
    virtual std::uint64_t nextEventCycle() const { return cycle_; }

    /**
     * Credit the cycles [cycle(), @p target) in bulk, with exactly the
     * effects step() has in them; afterwards cycle() == @p target.
     * @throws std::logic_error when @p target lies past nextEventCycle()
     */
    virtual void skipTo(std::uint64_t target);

    /**
     * Run this SMX alone to completion (runEngine with one SMX).
     * @throws std::runtime_error when it is not done after max_cycles
     */
    void run(std::uint64_t max_cycles = 2'000'000'000ULL);

    /** Statistics gathered so far (cache stats included). */
    SimStats collectStats() const;

    /**
     * This SMX's observability counter registry ("smx.*" names). The
     * executor, its controller and tests may register counters; see
     * obs::Counters for the single-stepping-worker contract.
     */
    obs::Counters &counters() { return counters_; }

    /**
     * Attach an issue-slot attribution ledger (nullptr = off, the
     * default). Must be enabled for schedulersPerSmx x
     * issuesPerScheduler slots per cycle. Pure observation: every slot
     * of every cycle is classified (DESIGN.md §9) but scheduling never
     * reads the ledger, so SimStats are bit-identical either way.
     */
    void setAttribution(obs::IssueAttribution *attribution)
    {
        attribution_ = attribution;
    }

    /**
     * Attach a windowed time-series sampler (nullptr = off, the
     * default). Pure observation, like the attribution ledger.
     */
    void setSampler(obs::TimeSampler *sampler) { sampler_ = sampler; }

    /**
     * Attach an invariant checker (nullptr = off, the default). Checking
     * is pure observation — SimStats are bit-identical either way — but
     * every violation throws out of step()/collectStats().
     */
    void setCheck(const CheckContext *check) { check_ = check; }

    /**
     * Attach a fault injector (nullptr = off, the default). Arms this
     * SMX's private fault sites (L1 tag corruption; Smx also forwards it
     * to its controller for swap-boundary ray bit flips). Shared-side
     * (L2/DRAM) faults are armed separately on the SharedMemorySide so
     * their RNG stream is only advanced at the commit barrier.
     */
    virtual void setFault(fault::FaultInjector *fault);

    /**
     * Monotone forward-progress measure for the watchdog: completed rays
     * plus exited warps (or blocks). While the SMX is not done() this
     * must eventually grow; a stuck value over a large cycle budget
     * means livelock.
     */
    virtual std::uint64_t progressCount() const = 0;

    /**
     * Append a human-readable dump of this SMX's architectural state to
     * @p out — the watchdog's diagnostic.
     */
    virtual void describeState(std::ostream &out) const = 0;

  protected:
    SmxExecutor(const GpuConfig &config, Kernel &kernel,
                SharedMemorySide &shared);

    /** Issue this cycle's instructions (the executor's scheduling). */
    virtual void issue() = 0;

    /** Executor-specific structural checks, run with the periodic ones. */
    virtual void verifyInvariants() const {}

    /** Executor-specific SimStats fields and counters. */
    virtual void addStats(SimStats &stats) const { (void)stats; }

    /**
     * Resolve a warp access in the L1 and buffer its shared-side half;
     * commitMemory() sets @p ready_cycle, which must stay valid until
     * then.
     */
    void deferAccess(std::uint64_t &ready_cycle, MemSpace space,
                     const std::vector<std::uint64_t> &addresses,
                     std::uint32_t bytes);

    /**
     * Scratch for the lane addresses of one warp instruction, filled by
     * the executor and passed to deferAccess(). Per SMX: the SMX-threaded
     * engine steps SMXs concurrently.
     */
    std::vector<std::uint64_t> memAddresses_;

    /** Approximate operand-collector traffic of one warp instruction. */
    static constexpr std::uint64_t kRfAccessesPerInstruction = 3;

    const GpuConfig &config_;
    Kernel &kernel_;
    SmxMemory memory_;
    std::uint64_t cycle_ = 0;
    stats::ActiveThreadHistogram histogram_;

    /**
     * Observability counters (the ad-hoc scalar fields of earlier
     * revisions live here now). Handles are registered once in the
     * constructor; the hot path increments through stable references.
     */
    obs::Counters counters_;
    obs::Counter &normalRfAccesses_;

    obs::IssueAttribution *attribution_ = nullptr;
    obs::TimeSampler *sampler_ = nullptr;
    const CheckContext *check_ = nullptr;
    fault::FaultInjector *fault_ = nullptr;

  private:
    /** One L1-resolved access awaiting its shared-side commit. */
    struct DeferredAccess
    {
        std::uint64_t *readyCycle = nullptr;
        std::uint64_t issueCycle = 0;
        PendingWarpAccess pending;
    };

    /** This cycle's accesses, in issue order (cleared, never freed). */
    std::vector<DeferredAccess> deferredAccesses_;
};

/**
 * A simulated SMX executing one kernel with a fixed set of resident warps
 * (persistent-threads style, as in the paper's setup: Aila's kernel spawns
 * 48 warps, the DRS Kernel 1 spawns 60).
 */
class Smx : public SmxExecutor
{
  public:
    /**
     * @param config GPU configuration (Table 1)
     * @param kernel kernel bound to this SMX (owns its ray pool/rows)
     * @param controller ray-management hardware, or nullptr for baseline
     * @param num_warps resident warps
     * @param shared GPU-wide L2/DRAM side
     */
    Smx(const GpuConfig &config, Kernel &kernel, WarpController *controller,
        int num_warps, SharedMemorySide &shared);

    bool done() const override { return liveWarps_ == 0; }

    std::uint64_t nextEventCycle() const override { return horizon_; }
    void skipTo(std::uint64_t target) override;

    /** Shuffle-side RF access/swap counters, added by the controller. */
    void addShuffleRfAccesses(std::uint64_t n) { shuffleRfAccesses_.add(n); }
    void recordRaySwap(std::uint64_t duration_cycles)
    {
        raySwapsCompleted_.add();
        raySwapCycles_.add(duration_cycles);
        if (tracer_ && tracer_->enabled())
            tracer_->record(obs::TraceEventKind::RaySwap, -1,
                            cycle_ >= duration_cycles
                                ? cycle_ - duration_cycles
                                : 0,
                            cycle_);
    }
    void addSpawnConflictCycles(std::uint64_t n)
    {
        spawnConflictCycles_.add(n);
    }

    /**
     * Attach a cycle-level event tracer (nullptr = off, the default).
     * Tracing is pure observation: SimStats are identical either way.
     */
    void setTracer(obs::Tracer *tracer) { tracer_ = tracer; }

    void setFault(fault::FaultInjector *fault) override;

    std::uint64_t progressCount() const override;

    /**
     * Warp PCs/rows/stalls/IPDOM stacks and the controller's row
     * ownership.
     */
    void describeState(std::ostream &out) const override;

    const std::vector<Warp> &warps() const { return warps_; }

  private:
    void issue() override;
    void verifyInvariants() const override;
    void addStats(SimStats &stats) const override;

    /** Try to issue up to the dual-issue width from warp @p w. */
    int issueFromWarp(Warp &warp, int max_issues);

    /**
     * Issue @p n of @p warp's pending instructions: its spawn overhead
     * first, then @p block's own. Completing the block is the caller's.
     */
    void creditIssue(Warp &warp, const Block &block, int n);

    /**
     * True when @p warp is mid-block and may issue at @p cycle, so a
     * scheduler whose greedy warp it is issues from nothing else.
     */
    bool midBlock(const Warp &warp, std::uint64_t cycle) const
    {
        return !warp.exited() && warp.readyCycle <= cycle &&
               warp.overheadInstructions + warp.remainingInstructions > 0;
    }

    /** nextEventCycle() as of the end of this cycle's issue. */
    std::uint64_t eventHorizon() const;

    /** A block's instructions finished issuing: run semantics. */
    void completeBlock(Warp &warp);

    /** Handle the rdctrl handshake; returns false when the warp stalls. */
    bool resolveRdctrl(Warp &warp);

    bool warpReady(const Warp &warp) const;

    /**
     * Charge scheduler @p scheduler's @p slots unissued slots of this
     * cycle to one stall bucket, blamed on the oldest culprit warp of
     * its partition (attribution enabled only).
     */
    void attributeUnissued(int scheduler, int slots);

    WarpController *controller_;
    /** The kernel's program (fixed for the kernel's lifetime). */
    const Program &program_;
    std::vector<Warp> warps_;
    /** Last warp each scheduler issued from (greedy policy). */
    std::vector<int> lastIssued_;
    /** Warps with stalledOnRdctrl set (none of them has exited). */
    std::uint64_t stalledWarps_ = 0;
    /** Warps that have not exited. */
    std::size_t liveWarps_ = 0;
    /** nextEventCycle(), set by every issue(). */
    std::uint64_t horizon_ = 0;

    obs::Counter &rdctrlIssued_;
    obs::Counter &rdctrlStalledIssues_;
    obs::Counter &rdctrlStallCycles_;
    obs::Counter &shuffleRfAccesses_;
    obs::Counter &raySwapsCompleted_;
    obs::Counter &raySwapCycles_;
    obs::Counter &spawnConflictCycles_;
    obs::Counter &issueIdleCycles_;

    obs::Tracer *tracer_ = nullptr;

    /** Per-block {instructions, active-thread sum} (see SimStats). */
    std::vector<std::pair<std::uint64_t, std::uint64_t>> blockIssue_;

    /** Per-lane successors of the completing block (scratch). */
    std::vector<int> nextBlocks_;
};

} // namespace drs::simt
