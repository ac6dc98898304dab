#include "simt/smx.h"

#include "fault/fault.h"
#include "simt/engine.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace drs::simt {

SmxExecutor::SmxExecutor(const GpuConfig &config, Kernel &kernel,
                         SharedMemorySide &shared)
    : config_(config),
      kernel_(kernel),
      memory_(config.memory, shared),
      normalRfAccesses_(counters_.get("smx.rf.normal_accesses"))
{
    // Loud bounds validation up front: the issue loops mask lanes with
    // 1u << lane and partition warps by scheduler, so an out-of-range
    // width or scheduler count would wrap silently instead of failing.
    // Plain throws (not assert) — the default build is RelWithDebInfo
    // with NDEBUG.
    if (config.simdLanes < 1 || config.simdLanes > 32)
        throw std::invalid_argument(
            "Smx: simdLanes must be in [1, 32] (lane masks are 32-bit)");
    if (config.schedulersPerSmx < 1)
        throw std::invalid_argument("Smx: need at least one scheduler");
}

void
SmxExecutor::step()
{
    // Periodic deep checks: cheap per-event checks (checkWarp) run at
    // every stack change, the heavier memory/workspace/structure scans
    // amortize over a window of cycles. The final state is re-checked by
    // the run-level verification in the harness.
    if (check_ && (cycle_ & 1023u) == 0) {
        check_->checkMemory(memory_);
        check_->checkKernel(kernel_);
        verifyInvariants();
    }

    issue();

    // The attribution ledger and the sampler observe every cycle; the
    // periodic deep checks above run at every multiple of 1024.
    const std::uint64_t next = cycle_ + 1;
    if (attribution_ || sampler_) {
        horizon_ = next;
    } else {
        horizon_ = eventHorizon();
        if (check_)
            horizon_ = std::min(horizon_,
                                (next + 1023u) & ~std::uint64_t{1023u});
    }

    // Close the attribution/sampling cycle last so the ledgers see the
    // whole cycle; endCycle enforces per-cycle slot conservation.
    if (attribution_)
        attribution_->endCycle();
    if (sampler_)
        sampler_->tick(histogram_.instructions(), histogram_.activeThreads(),
                       kernel_.raysCompleted());

    ++cycle_;
}

void
SmxExecutor::run(std::uint64_t max_cycles)
{
    runEngine(std::vector<SmxExecutor *>{this}, max_cycles);
}

std::string
describeEngineState(const std::vector<SmxExecutor *> &smxs)
{
    std::ostringstream out;
    for (std::size_t i = 0; i < smxs.size(); ++i) {
        out << "SMX " << i << (smxs[i]->done() ? " (done)" : "") << ":\n";
        smxs[i]->describeState(out);
    }
    return out.str();
}

namespace {

/**
 * Engine policing after the clock advanced from @p from to @p cycle:
 * forward-progress watchdog and cooperative cancellation, called after
 * every event. Throws fault::WatchdogTimeout / exec::Cancelled /
 * exec::DeadlineExceeded. The deadline check reads the clock, so it is
 * amortized: it runs when the advance crosses a multiple of 1024;
 * cancellation is a plain atomic load checked every time. Before the
 * watchdog's dump, every live SMX is brought up to @p cycle.
 */
void
policeCycle(const std::vector<SmxExecutor *> &smxs, std::uint64_t from,
            std::uint64_t cycle, fault::Watchdog *watchdog,
            const exec::CancelToken *cancel)
{
    if (watchdog != nullptr && watchdog->enabled()) {
        std::uint64_t progress = 0;
        for (SmxExecutor *smx : smxs)
            progress += smx->progressCount();
        if (watchdog->observe(cycle, progress)) {
            for (SmxExecutor *smx : smxs)
                if (!smx->done())
                    smx->skipTo(cycle);
            throw fault::WatchdogTimeout(cycle, watchdog->budgetCycles(),
                                         describeEngineState(smxs));
        }
    }
    if (cancel != nullptr) {
        if (cancel->cancelled())
            throw exec::Cancelled("simulation cancelled");
        if ((from >> 10) != (cycle >> 10) && cancel->deadlineExpired())
            throw exec::DeadlineExceeded("simulation deadline exceeded");
    }
}

} // namespace

void
runEngine(const std::vector<SmxExecutor *> &smxs, std::uint64_t max_cycles,
          fault::Watchdog *watchdog, const exec::CancelToken *cancel)
{
    bool all_done = true;
    for (SmxExecutor *smx : smxs)
        all_done = all_done && smx->done();
    if (all_done)
        return;
    if (max_cycles == 0)
        throw std::runtime_error("GPU simulation exceeded max_cycles");

    // Cycles completed: every SMX is stepped or skipped up to here.
    std::uint64_t cycle = 0;
    for (;;) {
        std::uint64_t target = std::numeric_limits<std::uint64_t>::max();
        bool live = false;
        for (SmxExecutor *smx : smxs) {
            if (!smx->done()) {
                live = true;
                target = std::min(target, smx->nextEventCycle());
            }
        }
        if (!live)
            return;
        // The per-cycle loop gives up after stepping cycle max_cycles - 1,
        // and observes the watchdog after every cycle.
        target = std::min(target, max_cycles - 1);
        if (watchdog != nullptr && watchdog->enabled()) {
            const std::uint64_t last = watchdog->lastProgressCycle();
            const std::uint64_t budget = watchdog->budgetCycles();
            if (budget <= std::numeric_limits<std::uint64_t>::max() - last)
                target = std::min(target, last + budget);
        }

        // Index order: the L2 sees the due SMXs' accesses in it.
        for (SmxExecutor *smx : smxs) {
            if (!smx->done() && smx->nextEventCycle() <= target) {
                smx->skipTo(target);
                smx->step();
            }
        }

        const std::uint64_t from = cycle;
        cycle = target + 1;
        policeCycle(smxs, from, cycle, watchdog, cancel);
        if (cycle >= max_cycles)
            throw std::runtime_error("GPU simulation exceeded max_cycles");
    }
}

void
SmxExecutor::skipTo(std::uint64_t target)
{
    if (target > horizon_)
        throw std::logic_error("SmxExecutor: skipTo past the next event");
    if (target > cycle_)
        creditCycles(target);
}

void
SmxExecutor::setFault(fault::FaultInjector *fault)
{
    fault_ = fault;
    memory_.setFault(fault);
}

SimStats
SmxExecutor::collectStats() const
{
    SimStats s;
    s.cycles = cycle_;
    s.histogram = histogram_;
    s.raysTraced = kernel_.raysCompleted();
    s.rfAccessesNormal = normalRfAccesses_.value();
    s.l1Data = memory_.l1DataStats();
    s.l1Texture = memory_.l1TextureStats();

    // The exported counter snapshot: the SMX registry, the kernel's and
    // the executor's own additions, and the cache models bridged under
    // their hierarchical names.
    s.counters = counters_.snapshot();
    s.counters.merge(kernel_.countersSnapshot());
    addStats(s);
    s.counters.add("l1d.access", s.l1Data.accesses);
    s.counters.add("l1d.miss", s.l1Data.misses);
    s.counters.add("l1t.access", s.l1Texture.accesses);
    s.counters.add("l1t.miss", s.l1Texture.misses);
    if (fault_ != nullptr && fault_->enabled()) {
        const fault::FaultCounters &f = fault_->counters();
        s.counters.add("fault.swap_bit_flips", f.swapBitFlips);
        s.counters.add("fault.cache_tag_flips", f.cacheTagFlips);
        s.counters.add("fault.dram_delayed", f.dramDelayed);
        s.counters.add("fault.dram_dropped", f.dramDropped);
        s.counters.add("fault.alloc_failures", f.allocFailures);
    }
    if (check_) {
        check_->checkStats(s);
        if (attribution_) {
            // Hard conservation invariant of the attribution ledger:
            // every slot of every cycle classified exactly once, and the
            // issued buckets must agree with the instruction histogram.
            attribution_->verifyConservation();
            if (attribution_->cycles() != cycle_)
                throw std::logic_error(
                    "issue attribution: ledger cycles out of step with "
                    "the SMX");
            const std::uint64_t issued =
                attribution_->bucketTotal(obs::SlotBucket::IssuedFull) +
                attribution_->bucketTotal(obs::SlotBucket::IssuedPartial);
            if (issued != histogram_.instructions())
                throw std::logic_error(
                    "issue attribution: issued slots disagree with the "
                    "instruction histogram");
        }
    }
    return s;
}

Smx::Smx(const GpuConfig &config, Kernel &kernel, WarpController *controller,
         int num_warps, SharedMemorySide &shared)
    : SmxExecutor(config, kernel, shared),
      controller_(controller),
      program_(kernel.program()),
      lastIssued_(static_cast<std::size_t>(config.schedulersPerSmx), -1),
      rdctrlIssued_(counters_.get("smx.rdctrl.issued")),
      rdctrlStalledIssues_(counters_.get("smx.rdctrl.stalled_issues")),
      rdctrlStallCycles_(counters_.get("smx.rdctrl.stall_cycles")),
      shuffleRfAccesses_(counters_.get("smx.rf.shuffle_accesses")),
      raySwapsCompleted_(counters_.get("smx.swap.completed")),
      raySwapCycles_(counters_.get("smx.swap.cycles")),
      spawnConflictCycles_(counters_.get("smx.spawn.conflict_cycles")),
      issueIdleCycles_(counters_.get("smx.issue.idle_cycles")),
      blockIssue_(static_cast<std::size_t>(kernel.program().blockCount()),
                  {0, 0}),
      nextBlocks_(static_cast<std::size_t>(config.simdLanes), -1)
{
    if (num_warps < 1)
        throw std::invalid_argument("Smx: need at least one resident warp");
    retryEpochs_.assign(static_cast<std::size_t>(num_warps), 0);

    const int entry = 0;
    warps_.reserve(static_cast<std::size_t>(num_warps));
    for (int w = 0; w < num_warps; ++w) {
        warps_.emplace_back(w, w, entry, program_.exitBlock(),
                            config.simdLanes);
        if (!warps_.back().exited())
            ++liveWarps_;
    }
}

bool
Smx::warpReady(const Warp &warp) const
{
    return !warp.exited() && warp.readyCycle <= cycle_;
}

bool
Smx::resolveRdctrl(Warp &warp)
{
    assert(controller_ != nullptr);
    const RdctrlResult result = controller_->onRdctrl(warp.id());
    if (result.stall) {
        if (!warp.stalledOnRdctrl) {
            warp.stalledOnRdctrl = true;
            warp.stallStartCycle = cycle_;
            rdctrlStalledIssues_.add();
            ++stalledWarps_;
        }
        // The answer reflects the state as of this step's start at the
        // latest (the controller samples the pool once per cycle).
        retryEpochs_[static_cast<std::size_t>(warp.id())] = stepEpoch_;
        return false;
    }
    if (warp.stalledOnRdctrl) {
        if (tracer_ && tracer_->enabled())
            tracer_->record(obs::TraceEventKind::RdctrlStall, warp.id(),
                            warp.stallStartCycle, cycle_);
        warp.stalledOnRdctrl = false;
        --stalledWarps_;
    }
    warp.rdctrlResolved = true;
    warp.pendingExit = result.exit;
    warp.pendingBody = result.exit      ? -1
                       : result.bodyBlock >= 0
                           ? result.bodyBlock
                           : kernel_.blockForState(result.ctrl);
    warp.pendingMask = result.mask;
    warp.pendingFetchMask = result.fetchMask;
    warp.pendingFetchBody =
        result.fetchMask ? kernel_.blockForState(TravState::Fetch) : -1;
    if (result.row >= 0)
        warp.bindRow(result.row);
    warp.overheadInstructions = result.overheadInstructions;
    return true;
}

int
Smx::issueFromWarp(Warp &warp, int max_issues)
{
    if (warp.exited() || warp.readyCycle > cycle_)
        return 0;

    const Block &block = program_.block(warp.pc());

    // Starting a fresh block: handle the rdctrl handshake first.
    if (warp.remainingInstructions == 0 && warp.overheadInstructions == 0) {
        if (block.specialOp == SpecialOp::Rdctrl && !warp.rdctrlResolved) {
            if (controller_ == nullptr)
                throw std::logic_error(
                    "rdctrl kernel running without a controller");
            if (!resolveRdctrl(warp))
                return 0;
        }
        warp.remainingInstructions = block.instructionCount;
        warp.blockStartCycle = cycle_;
    }

    // Credit the whole issue width at once; a block that ends this cycle
    // completes here, and dual issue stops at the block boundary.
    const int pending = warp.overheadInstructions + warp.remainingInstructions;
    const int issued = std::min(pending, max_issues);
    creditIssue(warp, block, issued);
    if (issued == pending) {
        completeBlock(warp);
        if (warp.exited())
            --liveWarps_;
    }
    return issued;
}

void
Smx::creditIssue(Warp &warp, const Block &block, int n)
{
    // DMK spawn data movement first: full-warp instructions tagged SI.
    const int overhead = std::min(n, warp.overheadInstructions);
    if (overhead > 0) {
        const auto count = static_cast<std::uint64_t>(overhead);
        histogram_.recordInstructions(config_.simdLanes, true, count);
        warp.overheadInstructions -= overhead;
        if (attribution_)
            attribution_->record(obs::SlotBucket::IssuedFull,
                                 obs::TravPhase::None, count);
    }
    const int body = n - overhead;
    if (body > 0) {
        const int active = popcount(warp.activeMask());
        const auto count = static_cast<std::uint64_t>(body);
        histogram_.recordInstructions(active, block.spawnRelated, count);
        auto &issue = blockIssue_[static_cast<std::size_t>(warp.pc())];
        issue.first += count;
        issue.second += static_cast<std::uint64_t>(active) * count;
        warp.remainingInstructions -= body;
        if (attribution_)
            attribution_->record(active == config_.simdLanes
                                     ? obs::SlotBucket::IssuedFull
                                     : obs::SlotBucket::IssuedPartial,
                                 block.phase, count);
    }
    normalRfAccesses_.add(kRfAccessesPerInstruction *
                          static_cast<std::uint64_t>(n));
}

void
Smx::completeBlock(Warp &warp)
{
    const int pc = warp.pc();
    const Block &block = program_.block(pc);

    if (tracer_ && tracer_->enabled())
        tracer_->record(obs::TraceEventKind::Block, warp.id(),
                        warp.blockStartCycle, cycle_ + 1, pc);

    if (block.specialOp == SpecialOp::Rdctrl) {
        rdctrlIssued_.add();
        warp.rdctrlResolved = false;
        if (warp.pendingExit) {
            warp.forceExit();
        } else {
            assert(warp.pendingBody >= 0);
            // Hole lanes run the fetch body after the main body (both
            // entries reconverge back at rdctrl, where pc still points).
            if (warp.pendingFetchMask != 0 && warp.pendingFetchBody >= 0 &&
                warp.pendingFetchBody != warp.pendingBody) {
                warp.pushUniformBody(warp.pendingFetchBody,
                                     warp.pendingFetchMask, pc);
            }
            warp.pushUniformBody(warp.pendingBody, warp.pendingMask, pc);
        }
        if (check_)
            check_->checkWarp(warp, program_);
        return;
    }

    ++semanticBlocks_;
    const std::uint32_t mask = warp.activeMask();
    memAddresses_.clear();
    std::uint32_t bytes = 0;
    for (int lane = 0; lane < config_.simdLanes; ++lane) {
        if (!(mask & (1u << lane)))
            continue;
        const ThreadStep step = kernel_.execute(pc, warp.row(), lane);
        nextBlocks_[static_cast<std::size_t>(lane)] = step.nextBlock;
        if (block.memSpace != MemSpace::None && step.memBytes > 0) {
            memAddresses_.push_back(step.memAddress);
            bytes = step.memBytes;
        }
    }

    if (!memAddresses_.empty())
        warp.readyCycle =
            cycle_ + memory_.warpAccess(block.memSpace, memAddresses_, bytes);

    warp.applySuccessors(nextBlocks_, program_);
    if (check_)
        check_->checkWarp(warp, program_);
}

void
Smx::verifyInvariants() const
{
    const auto stalled = std::count_if(
        warps_.begin(), warps_.end(),
        [](const Warp &warp) { return warp.stalledOnRdctrl; });
    if (static_cast<std::uint64_t>(stalled) != stalledWarps_)
        throw std::logic_error(
            "Smx: stalled-warp count disagrees with the warps");
    const auto live = std::count_if(
        warps_.begin(), warps_.end(),
        [](const Warp &warp) { return !warp.exited(); });
    if (static_cast<std::size_t>(live) != liveWarps_)
        throw std::logic_error("Smx: live-warp count disagrees with the warps");
    if (controller_ != nullptr)
        controller_->verifyInvariants();
}

void
Smx::issue()
{
    int issued_total = 0;
    const int per_scheduler = config_.issuesPerScheduler();
    const auto schedulers =
        static_cast<std::size_t>(config_.schedulersPerSmx);
    if (controller_ != nullptr)
        stepEpoch_ = stateEpoch();

    for (std::size_t s = 0; s < schedulers; ++s) {
        // Greedy-then-oldest: try the warp this scheduler issued from
        // last; when it cannot issue, fall back to the oldest ready warp.
        int issued = 0;
        const int last = lastIssued_[s];
        if (last >= 0) {
            Warp &warp = warps_[static_cast<std::size_t>(last)];
            if (warpReady(warp))
                issued = issueFromWarp(warp, per_scheduler);
        }

        // Oldest-first over this scheduler's warp partition: warps are
        // as old as their index, so one ascending pass tries them oldest
        // first, skipping those that fail to issue (e.g. stalled on
        // rdctrl). The greedy warp is tried again in its turn.
        for (std::size_t w = s; issued == 0 && w < warps_.size();
             w += schedulers) {
            Warp &warp = warps_[w];
            if (!warpReady(warp))
                continue;
            issued = issueFromWarp(warp, per_scheduler);
            if (issued > 0)
                lastIssued_[s] = static_cast<int>(w);
        }
        if (attribution_)
            attributeUnissued(static_cast<int>(s), per_scheduler - issued);
        issued_total += issued;
    }

    // Count stall time of rdctrl-stalled warps (Figure 9's metric).
    rdctrlStallCycles_.add(stalledWarps_);

    if (issued_total == 0)
        issueIdleCycles_.add();

    if (controller_ != nullptr)
        controller_->cycle(issued_total);
}

std::uint64_t
Smx::eventHorizon() const
{
    const std::uint64_t next = cycle_ + 1;
    std::uint64_t horizon = std::numeric_limits<std::uint64_t>::max();
    const std::uint64_t epoch = stalledWarps_ != 0 ? stateEpoch() : 0;
    bool sleeping = false;
    int busy = 0;

    const int per_scheduler = config_.issuesPerScheduler();
    const auto schedulers =
        static_cast<std::size_t>(config_.schedulersPerSmx);
    for (std::size_t s = 0; s < schedulers; ++s) {
        // A scheduler counting down its greedy warp's block issues from
        // no other warp until the cycle the block's last instruction
        // issues.
        const int last = lastIssued_[s];
        if (last >= 0) {
            const Warp &warp = warps_[static_cast<std::size_t>(last)];
            if (midBlock(warp, next)) {
                const auto pending = static_cast<std::uint64_t>(
                    warp.overheadInstructions + warp.remainingInstructions);
                const auto width = static_cast<std::uint64_t>(per_scheduler);
                horizon = std::min(horizon,
                                   cycle_ + (pending + width - 1) / width);
                ++busy;
                continue;
            }
        }
        // A free scheduler acts next cycle if a warp of its partition may
        // issue, or retry rdctrl with a state changed since its last
        // attempt; otherwise once the first waiting warp wakes.
        for (std::size_t w = s; w < warps_.size(); w += schedulers) {
            const Warp &warp = warps_[w];
            if (warp.exited())
                continue;
            if (warp.stalledOnRdctrl) {
                if (retryEpochs_[w] != epoch)
                    return next;
                sleeping = true;
                continue;
            }
            if (warp.readyCycle <= next)
                return next;
            horizon = std::min(horizon, warp.readyCycle);
        }
    }
    if (!sleeping)
        return horizon;

    // A stalled warp whose epoch has not moved stalls again until a
    // controller cycle() call changes the state: the retry after that
    // call is the first that may pass. Up to the horizon, every cycle
    // issues the busy schedulers' full width.
    const std::uint64_t calls =
        controller_->callsUntilChange(busy * per_scheduler);
    const std::uint64_t wake =
        calls >= std::numeric_limits<std::uint64_t>::max() - next
            ? std::numeric_limits<std::uint64_t>::max()
            : next + calls;
    return std::min(horizon, wake);
}

void
Smx::creditCycles(std::uint64_t target)
{
    // Between events each busy scheduler issues its full width from its
    // greedy warp, every free one issues nothing, and no warp starts,
    // completes or retries anything (see eventHorizon()).
    const std::uint64_t cycles = target - cycle_;
    const int per_scheduler = config_.issuesPerScheduler();
    int issued_per_cycle = 0;
    for (const int last : lastIssued_) {
        if (last < 0)
            continue;
        Warp &warp = warps_[static_cast<std::size_t>(last)];
        if (!midBlock(warp, cycle_))
            continue;
        // Fewer than the block's remaining instructions, by the horizon.
        creditIssue(warp, program_.block(warp.pc()),
                    static_cast<int>(cycles) * per_scheduler);
        issued_per_cycle += per_scheduler;
    }
    rdctrlStallCycles_.add(stalledWarps_ * cycles);
    if (issued_per_cycle == 0)
        issueIdleCycles_.add(cycles);
    if (controller_ == nullptr) {
        cycle_ = target;
        return;
    }
    // The swap engine's port budget depends on each cycle's issue count,
    // and its trace events carry the cycle.
    for (; cycle_ < target; ++cycle_)
        controller_->cycle(issued_per_cycle);
}

void
Smx::attributeUnissued(int scheduler, int slots)
{
    if (slots <= 0)
        return;

    // Blame the oldest culprit warp of this scheduler's partition (the
    // first in index order), with the same priority the taxonomy lists:
    // a warp parked by the ray hardware outranks a memory wait, which
    // outranks plain "nothing eligible". Every future readyCycle here is
    // a memory wait.
    const Warp *rdctrl = nullptr;
    const Warp *memory = nullptr;
    const Warp *live = nullptr;
    const auto keep_oldest = [](const Warp *&oldest, const Warp &warp) {
        if (oldest == nullptr)
            oldest = &warp;
    };
    for (std::size_t w = static_cast<std::size_t>(scheduler);
         w < warps_.size();
         w += static_cast<std::size_t>(config_.schedulersPerSmx)) {
        const Warp &warp = warps_[w];
        if (warp.exited())
            continue;
        keep_oldest(live, warp);
        if (warp.stalledOnRdctrl)
            keep_oldest(rdctrl, warp);
        else if (warp.readyCycle > cycle_)
            keep_oldest(memory, warp);
    }

    obs::SlotBucket bucket = obs::SlotBucket::Drained;
    const Warp *blame = nullptr;
    if (live == nullptr) {
        bucket = obs::SlotBucket::Drained;
    } else if (rdctrl != nullptr) {
        bucket = obs::SlotBucket::StalledRdctrl;
        blame = rdctrl;
    } else if (memory != nullptr) {
        bucket = obs::SlotBucket::StalledMemory;
        blame = memory;
    } else {
        // Every live warp is nominally ready yet the scheduler came up
        // short — no eligible warp, or dual-issue width lost at a block
        // boundary. Charge the oldest live warp's phase.
        bucket = obs::SlotBucket::NoReadyWarp;
        blame = live;
    }
    const obs::TravPhase phase =
        blame != nullptr ? program_.block(blame->pc()).phase
                         : obs::TravPhase::None;
    attribution_->record(bucket, phase, static_cast<std::uint64_t>(slots));
}

void
Smx::setFault(fault::FaultInjector *fault)
{
    SmxExecutor::setFault(fault);
    if (controller_ != nullptr)
        controller_->setFault(fault);
}

std::uint64_t
Smx::progressCount() const
{
    return kernel_.raysCompleted() + (warps_.size() - liveWarps_);
}

void
Smx::describeState(std::ostream &out) const
{
    out << "  cycle=" << cycle_ << " raysCompleted="
        << kernel_.raysCompleted() << '\n';
    for (const auto &w : warps_) {
        out << "  warp " << w.id();
        if (w.exited()) {
            out << " exited\n";
            continue;
        }
        out << " row=" << w.row() << " readyCycle=" << w.readyCycle;
        if (w.stalledOnRdctrl)
            out << " STALLED-on-rdctrl since=" << w.stallStartCycle;
        out << " stack=[";
        for (std::size_t i = 0; i < w.stack().size(); ++i) {
            const auto &e = w.stack()[i];
            if (i)
                out << ' ';
            out << "{pc=" << e.pc << " rpc=" << e.rpc << " mask=0x"
                << std::hex << e.mask << std::dec << '}';
        }
        out << "]\n";
    }
    if (controller_ != nullptr)
        controller_->describeState(out);
}

void
Smx::addStats(SimStats &s) const
{
    s.rdctrlIssued = rdctrlIssued_.value();
    s.rdctrlStalledIssues = rdctrlStalledIssues_.value();
    s.rdctrlStallCycles = rdctrlStallCycles_.value();
    s.rfAccessesShuffle = shuffleRfAccesses_.value();
    s.raySwapsCompleted = raySwapsCompleted_.value();
    s.raySwapCycles = raySwapCycles_.value();
    s.spawnBankConflictCycles = spawnConflictCycles_.value();
    s.blockIssue = blockIssue_;
    if (controller_ != nullptr)
        s.counters.merge(controller_->countersSnapshot());
}

} // namespace drs::simt
