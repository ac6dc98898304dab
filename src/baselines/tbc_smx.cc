#include "baselines/tbc_smx.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <unordered_set>
#include <utility>

namespace drs::baselines {

using simt::Program;
using simt::ThreadStep;

TbcSmx::TbcSmx(const simt::GpuConfig &config, const TbcConfig &tbc,
               kernels::AilaKernel &kernel, simt::SharedMemorySide &shared)
    : SmxExecutor(config, kernel, shared),
      tbc_(tbc),
      lastIssuedBlock_(static_cast<std::size_t>(config.schedulersPerSmx),
                       -1),
      syncStallCycles_(counters_.get("tbc.sync_stall_cycles"))
{
    if (tbc.warpsPerBlock < 1)
        throw std::invalid_argument("TBC: warpsPerBlock must be at least 1");
    if (tbc.numWarps < 1)
        throw std::invalid_argument("TBC: numWarps must be at least 1");
    if (tbc.numWarps % tbc.warpsPerBlock != 0)
        throw std::invalid_argument(
            "TBC: numWarps must be a multiple of warpsPerBlock");
    if (kernel.program().blockCount() > 64)
        throw std::invalid_argument(
            "TBC: successor sets hold at most 64 program blocks");

    const int num_blocks = tbc.numWarps / tbc.warpsPerBlock;
    const int lanes = config.simdLanes;
    blocks_.resize(static_cast<std::size_t>(num_blocks));
    for (int b = 0; b < num_blocks; ++b) {
        ThreadBlock &block = blocks_[static_cast<std::size_t>(b)];
        BlockEntry entry;
        entry.pc = 0;
        entry.rpc = kernel.program().exitBlock();
        for (int w = 0; w < tbc.warpsPerBlock; ++w) {
            CompactedWarp warp;
            const int row = b * tbc.warpsPerBlock + w;
            for (int lane = 0; lane < lanes; ++lane)
                warp.lanes[static_cast<std::size_t>(lane)] = {row, lane};
            warp.activeThreads = lanes;
            entry.warps.push_back(std::move(warp));
        }
        block.stack.push_back(std::move(entry));
        block.nextBlocks.assign(
            static_cast<std::size_t>(tbc.numWarps) * lanes, -1);
        // Arm the initial entry.
        for (auto &warp : block.stack.back().warps) {
            warp.remainingInstructions =
                kernel.program().block(0).instructionCount;
            warp.semanticsDone = false;
            warp.readyCycle = 0;
        }
        block.runningWarps = block.stack.back().warps.size();
    }
}

int
TbcSmx::threadSlotIndex(const ThreadRef &t) const
{
    return t.row * config_.simdLanes + t.lane;
}

bool
TbcSmx::done() const
{
    for (const auto &b : blocks_)
        if (!b.exited)
            return false;
    return true;
}

int
TbcSmx::nextBlock(const ThreadBlock &block, const ThreadRef &t) const
{
    return block.nextBlocks[static_cast<std::size_t>(threadSlotIndex(t))];
}

std::vector<TbcSmx::CompactedWarp>
TbcSmx::spareWarpList()
{
    std::vector<CompactedWarp> warps;
    if (!spareWarps_.empty()) {
        warps = std::move(spareWarps_.back());
        spareWarps_.pop_back();
        warps.clear();
    }
    return warps;
}

void
TbcSmx::compact(const ThreadBlock &block, const BlockEntry &entry,
                std::uint64_t targets,
                std::span<std::vector<CompactedWarp> *const> into)
{
    // Per-lane compaction: the k-th thread (in warp order) of home lane
    // L bound for the i-th target goes to lane L of into[i]'s k-th warp.
    std::array<int, 64> target_index;
    target_index.fill(-1);
    int index = 0;
    for (std::uint64_t rest = targets; rest != 0; rest &= rest - 1)
        target_index[static_cast<std::size_t>(std::countr_zero(rest))] =
            index++;
    laneDepth_.assign(into.size(), {});
    for (const auto &warp : entry.warps) {
        for (const ThreadRef &t : warp.lanes) {
            if (t.row < 0)
                continue;
            const int next = nextBlock(block, t);
            assert(next >= 0 && next < 64);
            const int i = target_index[static_cast<std::size_t>(next)];
            if (i < 0)
                continue;
            const auto lane = static_cast<std::size_t>(t.lane);
            std::vector<CompactedWarp> &warps =
                *into[static_cast<std::size_t>(i)];
            std::uint32_t &k = laneDepth_[static_cast<std::size_t>(i)][lane];
            if (k == warps.size())
                warps.emplace_back();
            CompactedWarp &slot = warps[k++];
            slot.lanes[lane] = t;
            ++slot.activeThreads;
        }
    }
}

void
TbcSmx::popEntry(ThreadBlock &block)
{
    spareWarps_.push_back(std::move(block.stack.back().warps));
    block.stack.pop_back();
}

void
TbcSmx::completeWarp(ThreadBlock &block, CompactedWarp &warp)
{
    const BlockEntry &top = block.stack.back();
    const simt::Block &blk = kernel_.program().block(top.pc);

    memAddresses_.clear();
    std::uint32_t bytes = 0;
    for (const auto &t : warp.lanes) {
        if (t.row < 0)
            continue;
        const ThreadStep step = kernel_.execute(top.pc, t.row, t.lane);
        block.nextBlocks[static_cast<std::size_t>(threadSlotIndex(t))] =
            step.nextBlock;
        assert(step.nextBlock >= 0 && step.nextBlock < 64);
        block.successors |= std::uint64_t{1} << step.nextBlock;
        if (blk.memSpace != simt::MemSpace::None && step.memBytes > 0) {
            memAddresses_.push_back(step.memAddress);
            bytes = step.memBytes;
        }
    }
    if (!memAddresses_.empty())
        warp.readyCycle =
            cycle_ + memory_.warpAccess(blk.memSpace, memAddresses_, bytes);
    warp.semanticsDone = true;
    if (--block.runningWarps != 0)
        return;
    // The last warp: the entry finishes once its barrier has passed and
    // every warp's access has returned.
    block.finishCycle = block.barrierUntil;
    for (const auto &peer : top.warps)
        block.finishCycle = std::max(block.finishCycle, peer.readyCycle);
}

void
TbcSmx::finishEntry(ThreadBlock &block)
{
    const Program &prog = kernel_.program();
    BlockEntry &top = block.stack.back();

    // The entry's distinct buffered successors, in ascending block order.
    const std::uint64_t targets = block.successors;
    assert(targets != 0);

    auto arm_top = [&](BlockEntry &entry) {
        const int count = prog.block(entry.pc).instructionCount;
        for (auto &warp : entry.warps) {
            warp.remainingInstructions = count;
            warp.semanticsDone = false;
            warp.readyCycle = cycle_;
        }
        block.runningWarps = entry.warps.size();
        block.successors = 0;
    };

    if (std::has_single_bit(targets)) {
        const int next = std::countr_zero(targets);
        if (next == top.rpc) {
            if (block.stack.size() > 1) {
                popEntry(block);
            } else {
                top.pc = next;
            }
        } else {
            top.pc = next;
            // Straight-line continuation: recompact anyway, which merges
            // holes left by threads that reached the reconvergence point.
            std::vector<CompactedWarp> warps = spareWarpList();
            std::vector<CompactedWarp> *const into[] = {&warps};
            compact(block, top, targets, into);
            spareWarps_.push_back(std::exchange(top.warps, std::move(warps)));
        }
    } else {
        // Block-wide divergence: barrier + compaction. A child entry per
        // successor but the reconvergence point, pushed in ascending
        // block order, then filled in one pass over the parent's warps
        // (pushes move the parent, so it is addressed by index).
        const int rpc = prog.immediatePostDominator(top.pc);
        top.pc = rpc;
        const std::size_t parent = block.stack.size() - 1;
        const std::uint64_t children = targets & ~(std::uint64_t{1} << rpc);
        for (std::uint64_t rest = children; rest != 0; rest &= rest - 1)
            block.stack.push_back(
                BlockEntry{std::countr_zero(rest), rpc, spareWarpList()});
        std::array<std::vector<CompactedWarp> *, 64> into{};
        const std::size_t count = block.stack.size() - parent - 1;
        for (std::size_t i = 0; i < count; ++i)
            into[i] = &block.stack[parent + 1 + i].warps;
        compact(block, block.stack[parent], children, {into.data(), count});
        block.barrierUntil = cycle_ + static_cast<std::uint64_t>(
                                          tbc_.syncLatency);
        syncStallCycles_.add(static_cast<std::uint64_t>(tbc_.syncLatency));
    }

    while (block.stack.size() > 1 &&
           block.stack.back().pc == block.stack.back().rpc)
        popEntry(block);

    BlockEntry &new_top = block.stack.back();
    if (block.stack.size() == 1 && new_top.pc == prog.exitBlock()) {
        block.exited = true;
        return;
    }
    arm_top(new_top);
}

int
TbcSmx::issueFromBlock(ThreadBlock &block, int max_issues)
{
    if (!canIssue(block, cycle_))
        return 0;

    // The first running warp issues until it completes.
    CompactedWarp &warp = issuingWarp(block);
    const int issued = std::min(max_issues, warp.remainingInstructions);
    creditIssue(warp, kernel_.program().block(block.stack.back().pc),
                issued);
    if (warp.remainingInstructions == 0)
        completeWarp(block, warp);
    return issued;
}

void
TbcSmx::creditIssue(CompactedWarp &warp, const simt::Block &blk, int n)
{
    const auto count = static_cast<std::uint64_t>(n);
    histogram_.recordInstructions(warp.activeThreads, blk.spawnRelated,
                                  count);
    normalRfAccesses_.add(kRfAccessesPerInstruction * count);
    warp.remainingInstructions -= n;
    if (attribution_)
        attribution_->record(warp.activeThreads == config_.simdLanes
                                 ? obs::SlotBucket::IssuedFull
                                 : obs::SlotBucket::IssuedPartial,
                             blk.phase, count);
}

void
TbcSmx::verifyInvariants() const
{
    const Program &prog = kernel_.program();
    const int lanes = config_.simdLanes;

    for (std::size_t b = 0; b < blocks_.size(); ++b) {
        const ThreadBlock &block = blocks_[b];
        if (block.stack.empty())
            throw std::logic_error("TBC: empty block stack");
        if (block.stack.front().rpc != prog.exitBlock())
            throw std::logic_error(
                "TBC: bottom stack entry does not reconverge at exit");
        const auto &top_warps = block.stack.back().warps;
        if (!block.exited &&
            block.runningWarps !=
                static_cast<std::size_t>(std::count_if(
                    top_warps.begin(), top_warps.end(),
                    [](const auto &warp) { return !warp.semanticsDone; })))
            throw std::logic_error(
                "TBC: running-warp count disagrees with the top entry");
        // issuingWarp() relies on in-order completion: the running warps
        // are the last runningWarps ones, each ready with work left.
        for (std::size_t w = 0; !block.exited && w < top_warps.size(); ++w) {
            const CompactedWarp &warp = top_warps[w];
            const bool running =
                w >= top_warps.size() - block.runningWarps;
            if (warp.semanticsDone == running)
                throw std::logic_error(
                    "TBC: top-entry warps completed out of order");
            if (running && (warp.readyCycle > cycle_ ||
                            warp.remainingInstructions <= 0))
                throw std::logic_error(
                    "TBC: a running warp is not ready to issue");
        }

        const int first_row = static_cast<int>(b) * tbc_.warpsPerBlock;
        const int last_row = first_row + tbc_.warpsPerBlock;

        // Per-entry thread sets (home slot indices) for the subset and
        // disjointness checks below.
        std::vector<std::unordered_set<int>> entry_threads;
        entry_threads.reserve(block.stack.size());

        for (const BlockEntry &entry : block.stack) {
            if (entry.pc < 0 || entry.pc >= prog.blockCount() ||
                entry.rpc < 0 || entry.rpc >= prog.blockCount())
                throw std::logic_error("TBC: stack pc/rpc out of range");
            std::unordered_set<int> threads;
            for (const CompactedWarp &warp : entry.warps) {
                for (std::size_t lane = static_cast<std::size_t>(lanes);
                     lane < warp.lanes.size(); ++lane)
                    if (warp.lanes[lane].row >= 0)
                        throw std::logic_error(
                            "TBC: thread in a lane past the warp width");
                if (warp.activeThreads !=
                    std::count_if(warp.lanes.begin(), warp.lanes.end(),
                                  [](const ThreadRef &t) {
                                      return t.row >= 0;
                                  }))
                    throw std::logic_error(
                        "TBC: compacted warp's thread count is stale");
                for (int lane = 0; lane < lanes; ++lane) {
                    const ThreadRef &t =
                        warp.lanes[static_cast<std::size_t>(lane)];
                    if (t.row < 0)
                        continue;
                    // Per-lane compaction: a thread can only occupy its
                    // own home lane in any warp it is compacted into.
                    if (t.lane != lane)
                        throw std::logic_error(
                            "TBC: thread compacted into a foreign lane");
                    if (t.row < first_row || t.row >= last_row)
                        throw std::logic_error(
                            "TBC: thread from another block's rows");
                    if (!threads.insert(threadSlotIndex(t)).second)
                        throw std::logic_error(
                            "TBC: thread appears twice in one entry");
                }
            }
            entry_threads.push_back(std::move(threads));
        }

        // Child entries reconverge at their parent's pc (the parent is
        // parked there while children run); siblings of one parent hold
        // pairwise-disjoint subsets of the parent's threads. The entry
        // below is the parent iff its pc is this entry's rpc (non-top
        // entries never advance, and children are never created sitting
        // on their rpc, so this is unambiguous); otherwise it must be a
        // sibling and the parent is inherited.
        std::vector<std::size_t> parent_of(block.stack.size(), 0);
        for (std::size_t i = 1; i < block.stack.size(); ++i) {
            const BlockEntry &entry = block.stack[i];
            const BlockEntry &prev = block.stack[i - 1];
            std::size_t parent;
            if (prev.pc == entry.rpc) {
                parent = i - 1;
            } else if (prev.rpc == entry.rpc) {
                parent = parent_of[i - 1];
            } else {
                throw std::logic_error(
                    "TBC: stack entry reconverges at an unrelated block");
            }
            parent_of[i] = parent;
            for (const int slot : entry_threads[i]) {
                if (entry_threads[parent].count(slot) == 0)
                    throw std::logic_error(
                        "TBC: child entry holds a thread its parent lacks");
                for (std::size_t j = parent + 1; j < i; ++j)
                    if (parent_of[j] == parent &&
                        entry_threads[j].count(slot) != 0)
                        throw std::logic_error(
                            "TBC: sibling entries share a thread");
            }
        }
    }
}

void
TbcSmx::issue()
{
    const int per_scheduler = config_.issuesPerScheduler();
    const int schedulers = config_.schedulersPerSmx;

    // Barrier maintenance: an entry whose warps have all completed (and
    // waited out their memory latency) partitions and compacts, whether
    // or not a scheduler visits the block this cycle.
    for (auto &block : blocks_)
        if (!block.exited && block.runningWarps == 0 &&
            block.finishCycle <= cycle_)
            finishEntry(block);

    for (int s = 0; s < schedulers; ++s) {
        // Greedy-then-oldest over this scheduler's block partition.
        const int last = lastIssuedBlock_[static_cast<std::size_t>(s)];
        int issued = 0;
        if (last >= 0)
            issued = issueFromBlock(blocks_[static_cast<std::size_t>(last)],
                                    per_scheduler);
        if (issued == 0) {
            for (std::size_t b = static_cast<std::size_t>(s);
                 b < blocks_.size();
                 b += static_cast<std::size_t>(schedulers)) {
                issued = issueFromBlock(blocks_[b], per_scheduler);
                if (issued > 0) {
                    lastIssuedBlock_[static_cast<std::size_t>(s)] =
                        static_cast<int>(b);
                    break;
                }
            }
        }
        if (attribution_)
            attributeUnissued(s, per_scheduler - issued);
    }
}

std::uint64_t
TbcSmx::eventHorizon() const
{
    const std::uint64_t next = cycle_ + 1;
    std::uint64_t horizon = std::numeric_limits<std::uint64_t>::max();

    // A top entry whose warps have all run finishes at its finish time,
    // or next cycle when that time has already come.
    for (const auto &block : blocks_)
        if (!block.exited && block.runningWarps == 0)
            horizon = std::min(horizon, std::max(block.finishCycle, next));

    const int per_scheduler = config_.issuesPerScheduler();
    const auto schedulers =
        static_cast<std::size_t>(config_.schedulersPerSmx);
    for (std::size_t s = 0; s < schedulers; ++s) {
        // A scheduler whose greedy block can issue runs its current warp
        // down until that warp's last instruction issues.
        const int last = lastIssuedBlock_[s];
        if (last >= 0) {
            const ThreadBlock &block = blocks_[static_cast<std::size_t>(last)];
            if (canIssue(block, next)) {
                const auto remaining = static_cast<std::uint64_t>(
                    issuingWarp(block).remainingInstructions);
                const auto width = static_cast<std::uint64_t>(per_scheduler);
                horizon = std::min(horizon,
                                   cycle_ + (remaining + width - 1) / width);
                continue;
            }
        }
        // A free scheduler acts next cycle if a block of its partition
        // can issue then; otherwise once the first barrier passes.
        for (std::size_t b = s; b < blocks_.size(); b += schedulers) {
            const ThreadBlock &block = blocks_[b];
            if (block.exited || block.runningWarps == 0)
                continue;
            if (block.barrierUntil <= next)
                return next;
            horizon = std::min(horizon, block.barrierUntil);
        }
    }
    return horizon;
}

void
TbcSmx::creditCycles(std::uint64_t target)
{
    // Between events each busy scheduler issues its full width from its
    // greedy block's current warp, and nothing else happens (see
    // eventHorizon()).
    const auto width =
        static_cast<std::uint64_t>(config_.issuesPerScheduler());
    for (const int last : lastIssuedBlock_) {
        if (last < 0)
            continue;
        ThreadBlock &block = blocks_[static_cast<std::size_t>(last)];
        if (!canIssue(block, cycle_))
            continue;
        // Fewer than the warp's remaining instructions, by the horizon.
        creditIssue(issuingWarp(block),
                    kernel_.program().block(block.stack.back().pc),
                    static_cast<int>((target - cycle_) * width));
    }
    cycle_ = target;
}

void
TbcSmx::attributeUnissued(int scheduler, int slots)
{
    if (slots <= 0)
        return;

    // Blame the first culprit block of this scheduler's partition, in
    // partition order (deterministic). The TBC-specific stall is the
    // block-wide divergence barrier, charged to stalled-scoreboard; a
    // block whose compacted warps wait on memory is stalled-memory.
    const ThreadBlock *barrier = nullptr;
    const ThreadBlock *memory = nullptr;
    const ThreadBlock *live = nullptr;
    for (std::size_t b = static_cast<std::size_t>(scheduler);
         b < blocks_.size();
         b += static_cast<std::size_t>(config_.schedulersPerSmx)) {
        const ThreadBlock &block = blocks_[b];
        if (block.exited)
            continue;
        if (live == nullptr)
            live = &block;
        if (block.barrierUntil > cycle_) {
            if (barrier == nullptr)
                barrier = &block;
        } else if (memory == nullptr) {
            for (const auto &warp : block.stack.back().warps) {
                if (warp.readyCycle > cycle_) {
                    memory = &block;
                    break;
                }
            }
        }
    }

    obs::SlotBucket bucket = obs::SlotBucket::Drained;
    const ThreadBlock *blame = nullptr;
    if (live == nullptr) {
        bucket = obs::SlotBucket::Drained;
    } else if (barrier != nullptr) {
        bucket = obs::SlotBucket::StalledScoreboard;
        blame = barrier;
    } else if (memory != nullptr) {
        bucket = obs::SlotBucket::StalledMemory;
        blame = memory;
    } else {
        bucket = obs::SlotBucket::NoReadyWarp;
        blame = live;
    }
    const obs::TravPhase phase =
        blame != nullptr
            ? kernel_.program().block(blame->stack.back().pc).phase
            : obs::TravPhase::None;
    attribution_->record(bucket, phase, static_cast<std::uint64_t>(slots));
}

std::uint64_t
TbcSmx::progressCount() const
{
    std::uint64_t exited = 0;
    for (const auto &block : blocks_)
        if (block.exited)
            ++exited;
    return kernel_.raysCompleted() + exited;
}

void
TbcSmx::describeState(std::ostream &out) const
{
    out << "  cycle=" << cycle_ << " raysCompleted="
        << kernel_.raysCompleted() << '\n';
    for (std::size_t b = 0; b < blocks_.size(); ++b) {
        const ThreadBlock &block = blocks_[b];
        out << "  block " << b;
        if (block.exited) {
            out << " exited\n";
            continue;
        }
        out << " stackDepth=" << block.stack.size();
        if (!block.stack.empty()) {
            const BlockEntry &top = block.stack.back();
            out << " top{pc=" << top.pc << " rpc=" << top.rpc
                << " warps=" << top.warps.size() << '}';
        }
        if (block.barrierUntil > cycle_)
            out << " barrierUntil=" << block.barrierUntil;
        out << '\n';
    }
}

} // namespace drs::baselines
