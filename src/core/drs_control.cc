#include "core/drs_control.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <ostream>
#include <stdexcept>

#include "fault/fault.h"
#include "simt/smx.h"

namespace drs::core {

using simt::RdctrlResult;
using simt::TravState;

DrsControl::DrsControl(const DrsConfig &config,
                       simt::RowWorkspace &workspace, int num_warps)
    : config_(config),
      workspace_(workspace),
      numWarps_(num_warps),
      rows_(workspace.rowCount()),
      lanes_(workspace.laneCount()),
      remaps_(counters_.get("drs.remaps")),
      stallsStarted_(counters_.get("drs.stalls_started")),
      movesCompleted_(counters_.get("drs.moves")),
      exchangesCompleted_(counters_.get("drs.exchanges")),
      swapsCompleted_(counters_.get("drs.swaps")),
      idleCycles_(counters_.get("drs.idle_cycles"))
{
    if (rows_ < num_warps + config.backupRows + 2)
        throw std::invalid_argument(
            "workspace must provide N + M + 2 rows for the DRS");
    if (config.swapBuffers < 3)
        throw std::invalid_argument("DRS needs at least 3 swap buffers");

    opsPerTask_ = std::max(config.buffersPerTask(), 1);
    ops_.assign(static_cast<std::size_t>(opsPerTask_) * 3, Operation{});
    warpRow_.assign(static_cast<std::size_t>(num_warps), -1);
    rowOwner_.assign(static_cast<std::size_t>(rows_), -1);
    unbound_.assign(static_cast<std::size_t>(rows_ + 63) / 64, 0);
    lockCount_.assign(static_cast<std::size_t>(rows_), 0);
    for (int row = 0; row < rows_; ++row)
        setUnbound(row, true);
    // Initially the first N rows are bound to the N warps (Section 3.2.2).
    for (int w = 0; w < num_warps; ++w) {
        warpRow_[static_cast<std::size_t>(w)] = w;
        rowOwner_[static_cast<std::size_t>(w)] = w;
        setUnbound(w, false);
    }
}

DrsControl::RowCensus
DrsControl::census(int row) const
{
    RowCensus c;
    c.fetchLanes = workspace_.laneMask(row, TravState::Fetch);
    c.innerLanes = workspace_.laneMask(row, TravState::Inner);
    c.leafLanes = workspace_.laneMask(row, TravState::Leaf);
    return c;
}

int
DrsControl::firstLane(int row, TravState state) const
{
    const std::uint32_t mask = workspace_.laneMask(row, state);
    return mask != 0 ? std::countr_zero(mask) : -1;
}

bool
DrsControl::dispatchable(const RowCensus &c) const
{
    if (c.liveLanes() == 0)
        return !workspace_.poolEmpty(); // all-fetch row: batched refill
    // Live rays must share a single traversal state; holes are fine, and
    // a minority of opposite-state rays within the tolerance rides along
    // with its lanes inactive.
    const int minority = std::min(c.inner(), c.leaf());
    return minority <= config_.dispatchMinorityTolerance;
}

RdctrlResult
DrsControl::dispatch(int warp, int row, const RowCensus &c)
{
    bindRow(warp, row);

    RdctrlResult result;
    result.row = row;
    if (c.liveLanes() == 0) {
        result.ctrl = TravState::Fetch;
        result.mask = simt::fullMask(lanes_);
        return result;
    }

    const bool inner = c.inner() >= c.leaf();
    result.ctrl = inner ? TravState::Inner : TravState::Leaf;
    const std::uint32_t mask = inner ? c.innerLanes : c.leafLanes;
    const std::uint32_t holes = c.fetchLanes;
    result.mask = mask;
    assert(mask != 0);
    // Batched hole refill: when enough empty slots accumulated, their
    // lanes receive FETCH as their per-thread trav_ctrl_val.
    if (holes != 0 && !workspace_.poolEmpty() &&
        simt::popcount(holes) >= config_.fetchRefillThreshold) {
        result.fetchMask = holes;
    }
    return result;
}

void
DrsControl::setUnbound(int row, bool unbound)
{
    std::uint64_t &word = unbound_[static_cast<std::size_t>(row) / 64];
    const std::uint64_t bit = std::uint64_t{1} << (row % 64);
    word = unbound ? word | bit : word & ~bit;
}

template <typename Visit>
int
DrsControl::findFreeRow(Visit &&visit) const
{
    for (std::size_t word = 0; word < unbound_.size(); ++word) {
        for (std::uint64_t bits = unbound_[word]; bits != 0;
             bits &= bits - 1) {
            const int row =
                static_cast<int>(word * 64) + std::countr_zero(bits);
            if (!rowLocked(row) && visit(row))
                return row;
        }
    }
    return -1;
}

void
DrsControl::bindRow(int warp, int row)
{
    const int old = warpRow_[static_cast<std::size_t>(warp)];
    if (old == row)
        return;
    if (old >= 0) {
        rowOwner_[static_cast<std::size_t>(old)] = -1;
        setUnbound(old, true);
    }
    assert(rowOwner_[static_cast<std::size_t>(row)] == -1 &&
           "a row may not be bound to more than one warp");
    warpRow_[static_cast<std::size_t>(warp)] = row;
    rowOwner_[static_cast<std::size_t>(row)] = warp;
    setUnbound(row, false);
    dirty_ = true;
    uniformCacheValid_ = false;
    bumpStateVersion();
}

void
DrsControl::unbindWarpRow(int warp)
{
    const int old = warpRow_[static_cast<std::size_t>(warp)];
    if (old < 0)
        return;
    rowOwner_[static_cast<std::size_t>(old)] = -1;
    warpRow_[static_cast<std::size_t>(warp)] = -1;
    setUnbound(old, true);
    dirty_ = true;
    uniformCacheValid_ = false;
    bumpStateVersion();
}

int
DrsControl::findUniformRow() const
{
    // Preference order: drain leaf rows first, keep inner rows moving,
    // fetch new work last; prefer fuller rows for higher SIMD payoff.
    int best = -1;
    int best_score = -1;
    findFreeRow([&](int row) {
        const RowCensus c = census(row);
        if (!dispatchable(c))
            return false;
        // Fuller rows give higher SIMD payoff per dispatch; leaf rows
        // break ties so nearly finished rays drain.
        const int score =
            c.liveLanes() != 0 ? c.live() * 4 + (c.leafLanes != 0 ? 1 : 0)
                               : 1; // all-fetch (pool non-empty)
        if (score > best_score) {
            best_score = score;
            best = row;
        }
        return false;
    });
    return best;
}

int
DrsControl::cachedUniformRow()
{
    if (uniformCacheValid_) {
        const int row = uniformCacheRow_;
        if (row < 0)
            return -1;
        if (rowOwner_[static_cast<std::size_t>(row)] == -1 &&
            !rowLocked(row))
            return row;
    }
    uniformCacheRow_ = findUniformRow();
    uniformCacheValid_ = true;
    return uniformCacheRow_;
}

RdctrlResult
DrsControl::onRdctrl(int warp)
{
    // Terminal condition: no pool rays and no live rays anywhere. Both
    // are sampled at the cycle's first rdctrl, and every warp issuing
    // rdctrl later in the same cycle sees that sample.
    if (liveCacheCycle_ != now_) {
        liveCacheCycle_ = now_;
        liveCachePoolEmpty_ = workspace_.poolEmpty();
        liveCacheValue_ = liveCachePoolEmpty_ ? workspace_.liveRays() : 1;
    }
    if (liveCachePoolEmpty_ && liveCacheValue_ == 0) {
        unbindWarpRow(warp);
        RdctrlResult result;
        result.exit = true;
        return result;
    }

    const int own = warpRow_[static_cast<std::size_t>(warp)];
    if (own >= 0) {
        const RowCensus c = census(own);
        if (dispatchable(c)) {
            // Near-full rows run in place. Under-full rows circulate:
            // the warp takes a fuller unbound row and releases its own
            // to the swap engine for topping up.
            const int majority = std::max(c.inner(), c.leaf());
            const int refill =
                !workspace_.poolEmpty() &&
                        c.fetch() >= config_.fetchRefillThreshold
                    ? c.fetch()
                    : 0;
            const bool full_enough =
                majority + refill >= config_.fullDispatchTarget ||
                workspace_.poolEmpty();
            if (!full_enough) {
                const int fuller = cachedUniformRow();
                if (fuller >= 0 && census(fuller).live() > c.live()) {
                    const RowCensus fc = census(fuller);
                    unbindWarpRow(warp);
                    remaps_.add();
                    return dispatch(warp, fuller, fc);
                }
            }
            return dispatch(warp, own, c);
        }
    }

    const int found = cachedUniformRow();
    if (found >= 0) {
        if (own >= 0)
            unbindWarpRow(warp);
        remaps_.add();
        return dispatch(warp, found, census(found));
    }

    // Stall: release the warp's row so the swap engine may reorganize it.
    if (own >= 0) {
        unbindWarpRow(warp);
        stallsStarted_.add();
    }
    RdctrlResult result;
    result.stall = true;
    return result;
}

void
DrsControl::refreshDesignatedRow(ShuffleTask task)
{
    const auto t = static_cast<std::size_t>(task);
    auto designated_elsewhere = [&](int row) {
        for (std::size_t other = 0; other < designated_.size(); ++other)
            if (other != t && designated_[other] == row)
                return true;
        return false;
    };

    // Keep the current designation while it is still useful. A mask is
    // "full" when every lane is in that state.
    const std::uint32_t full = simt::fullMask(lanes_);
    const int current = designated_[t];
    if (current >= 0 && rowOwner_[static_cast<std::size_t>(current)] < 0 &&
        !rowLocked(current) && !designated_elsewhere(current)) {
        const RowCensus c = census(current);
        const bool still_useful =
            (task == ShuffleTask::FetchCollect && c.fetchLanes != full &&
             c.liveLanes() != 0) ||
            (task == ShuffleTask::LeafCollect && c.leafLanes != 0 &&
             c.leafLanes != full) ||
            (task == ShuffleTask::InnerEject && c.innerLanes != 0 &&
             c.innerLanes != full);
        if (still_useful)
            return;
    }
    designated_[t] = -1;

    int best = -1;
    int best_score = -1;
    findFreeRow([&](int row) {
        if (designated_elsewhere(row))
            return false;
        const RowCensus c = census(row);
        int score = -1;
        switch (task) {
          case ShuffleTask::FetchCollect:
            // Nearly-empty mixed rows are cheapest to finish emptying.
            if (c.fetchLanes != 0 && c.fetchLanes != full &&
                c.liveLanes() != 0)
                score = c.fetch();
            break;
          case ShuffleTask::LeafCollect:
            // Rows already rich in leaf rays finish collecting fastest.
            // Only rows that actually mix leaf with inner need fixing.
            if (c.leafLanes != 0 && c.innerLanes != 0)
                score = c.leaf();
            break;
          case ShuffleTask::InnerEject:
            // Rows with few inner rays are emptied of them fastest.
            if (c.innerLanes != 0 && c.leafLanes != 0)
                score = lanes_ - c.inner();
            break;
        }
        if (score > best_score) {
            best_score = score;
            best = row;
        }
        return false;
    });
    designated_[t] = best;
}

std::optional<DrsControl::Operation>
DrsControl::chooseOperation(ShuffleTask task)
{
    refreshDesignatedRow(task);
    const int home = designated_[static_cast<std::size_t>(task)];
    if (home < 0)
        return std::nullopt;

    // The first unbound, unlocked row other than home, in ascending
    // order, whose census is accepted.
    auto partner_rows = [&](auto &&accept) {
        return findFreeRow(
            [&](int row) { return row != home && accept(census(row)); });
    };

    Operation op;
    op.rowA = home;
    op.startCycle = now_;
    op.setupRemaining = config_.opSetupCycles;

    switch (task) {
      case ShuffleTask::FetchCollect: {
        // Empty the home row: move a live ray into a hole of a row whose
        // live rays share the ray's state (keeping that row dispatchable).
        int lane = firstLane(home, TravState::Inner);
        TravState state = TravState::Inner;
        if (lane < 0) {
            lane = firstLane(home, TravState::Leaf);
            state = TravState::Leaf;
        }
        if (lane < 0)
            return std::nullopt;
        const bool want_inner = state == TravState::Inner;
        const int home_live = census(home).live();
        // Monotone consolidation: rays only move from emptier rows into
        // strictly fuller compatible rows, so the engine cannot ping-pong
        // with the inner-eject task. Prefer a hole in a row whose live
        // rays already match; accept a majority-compatible mixed row
        // otherwise.
        // Only pure, strictly fuller rows accept rays: anything looser
        // lets this task undo the separation the other two tasks make.
        const int partner = partner_rows([&](const RowCensus &c) {
            if (c.fetchLanes == 0)
                return false;
            const bool pure = want_inner
                                  ? (c.leafLanes == 0 && c.innerLanes != 0)
                                  : (c.innerLanes == 0 && c.leafLanes != 0);
            return pure && c.live() > home_live;
        });
        if (partner < 0)
            return std::nullopt;
        op.rowA = home;
        op.laneA = lane;
        op.rowB = partner;
        op.laneB = firstLane(partner, TravState::Fetch);
        op.isExchange = false;
        break;
      }
      case ShuffleTask::LeafCollect: {
        // Fill a non-leaf slot of the home row with a leaf ray, or
        // exchange one of its inner rays for a donor's leaf ray. The
        // donor is the mixed row with the fewest leaf rays: it becomes
        // dispatchable after the fewest moves.
        const int hole = firstLane(home, TravState::Fetch);
        const int inner_slot = firstLane(home, TravState::Inner);
        int donor = -1;
        int donor_leaves = lanes_ + 1;
        findFreeRow([&](int row) {
            if (row == home)
                return false;
            const RowCensus c = census(row);
            if (c.leafLanes != 0 && c.innerLanes != 0 &&
                c.leaf() < donor_leaves) {
                donor = row;
                donor_leaves = c.leaf();
            }
            return false;
        });
        if (donor < 0)
            return std::nullopt;
        if (hole >= 0) {
            op.rowA = donor;
            op.laneA = firstLane(donor, TravState::Leaf);
            op.rowB = home;
            op.laneB = hole;
            op.isExchange = false;
        } else if (inner_slot >= 0) {
            op.rowA = home;
            op.laneA = inner_slot;
            op.rowB = donor;
            op.laneB = firstLane(donor, TravState::Leaf);
            op.isExchange = true;
        } else {
            return std::nullopt;
        }
        break;
      }
      case ShuffleTask::InnerEject: {
        // Push an inner ray from the home row into an inner-compatible
        // row (hole first, leaf-exchange second, any hole as last resort
        // — the paper's "empty slots on other rows").
        const int lane = firstLane(home, TravState::Inner);
        if (lane < 0)
            return std::nullopt;
        int partner = partner_rows([&](const RowCensus &c) {
            return c.fetchLanes != 0 && c.leafLanes == 0 &&
                   c.innerLanes != 0;
        });
        bool exchange = false;
        int partner_lane = -1;
        if (partner >= 0) {
            partner_lane = firstLane(partner, TravState::Fetch);
        } else {
            partner = partner_rows([&](const RowCensus &c) {
                return c.leafLanes != 0 && c.inner() > c.leaf();
            });
            if (partner >= 0) {
                partner_lane = firstLane(partner, TravState::Leaf);
                exchange = true;
            }
        }
        if (partner_lane < 0) {
            partner = partner_rows(
                [&](const RowCensus &c) { return c.fetchLanes != 0; });
            if (partner < 0)
                return std::nullopt;
            partner_lane = firstLane(partner, TravState::Fetch);
            exchange = false;
        }
        op.rowA = home;
        op.laneA = lane;
        op.rowB = partner;
        op.laneB = partner_lane;
        op.isExchange = exchange;
        break;
      }
    }

    assert(op.laneA >= 0 && op.laneB >= 0);
    // A move streams 17 variables through the buffers (read + write per
    // variable); an exchange streams both rays.
    op.transfersRemaining = config_.rayVariables * (op.isExchange ? 2 : 1);
    op.active = true;
    return op;
}

void
DrsControl::startOperation(Operation &entry, const Operation &op)
{
    entry = op;
    ++lockCount_[static_cast<std::size_t>(op.rowA)];
    ++lockCount_[static_cast<std::size_t>(op.rowB)];
    bumpStateVersion();
}

void
DrsControl::completeOperation(Operation &op)
{
    if (op.isExchange) {
        workspace_.swapRays(op.rowA, op.laneA, op.rowB, op.laneB);
        exchangesCompleted_.add();
    } else {
        workspace_.moveRay(op.rowA, op.laneA, op.rowB, op.laneB);
        movesCompleted_.add();
    }
    swapsCompleted_.add();
    // Fault site: the ray just written through the swap buffers may land
    // with a flipped payload bit (soft error while registers were in
    // flight). Injected after the move so the corruption is in the
    // destination slot, exactly where real buffer damage would surface.
    if (fault_ != nullptr && fault_->rollSwapBitFlip())
        workspace_.corruptRay(op.rowB, op.laneB, fault_->pick(256));
    --lockCount_[static_cast<std::size_t>(op.rowA)];
    --lockCount_[static_cast<std::size_t>(op.rowB)];
    if (smx_ != nullptr) {
        smx_->recordRaySwap(now_ - op.startCycle);
        smx_->addShuffleRfAccesses(
            2ULL * static_cast<std::uint64_t>(config_.rayVariables) *
            (op.isExchange ? 2 : 1));
    }
    op = Operation{};
    dirty_ = true;
    uniformCacheValid_ = false;
    bumpStateVersion();
}

void
DrsControl::describeState(std::ostream &out) const
{
    out << "  drs: now=" << now_ << " row ownership {";
    bool first = true;
    for (int w = 0; w < numWarps_; ++w) {
        if (warpRow_[static_cast<std::size_t>(w)] < 0)
            continue;
        if (!first)
            out << ' ';
        out << 'w' << w << "->r" << warpRow_[static_cast<std::size_t>(w)];
        first = false;
    }
    out << "} designated fetch=" << designated_[0]
        << " leaf=" << designated_[1] << " inner=" << designated_[2]
        << '\n';
    for (const auto &op : ops_) {
        if (!op.active)
            continue;
        out << "  drs op: " << (op.isExchange ? "exchange" : "move")
            << " (" << op.rowA << ',' << op.laneA << ")<->(" << op.rowB
            << ',' << op.laneB << ") transfersRemaining="
            << op.transfersRemaining << " setupRemaining="
            << op.setupRemaining << " started=" << op.startCycle << '\n';
    }
}

int
DrsControl::activeOperations() const
{
    int n = 0;
    for (const auto &op : ops_)
        if (op.active)
            ++n;
    return n;
}

void
DrsControl::cycle(int issued_instructions)
{
    ++now_;

    if (config_.idealized) {
        if (dirty_) {
            dirty_ = false;
            idealConsolidate(); // may re-set dirty_ when work remains
        }
        return;
    }

    // Start new operations on idle tasks. Scanning is gated on dirty_:
    // candidate rows only change through events that set it. A task whose
    // designated row blocks another task's only viable move releases it;
    // bounded retry rounds let designations rotate to a feasible
    // assignment within one event.
    bool any_active = false;
    if (dirty_) {
        dirty_ = false;
        for (int round = 0; round < 3; ++round) {
            bool released = false;
            for (int t = 0; t < 3; ++t) {
                bool failed = false;
                for (int k = 0; k < opsPerTask_ && !failed; ++k) {
                    auto &op = ops_[static_cast<std::size_t>(
                        t * opsPerTask_ + k)];
                    if (op.active)
                        continue;
                    auto chosen =
                        chooseOperation(static_cast<ShuffleTask>(t));
                    if (chosen) {
                        chosen->startCycle = now_;
                        startOperation(op, *chosen);
                    } else {
                        failed = true;
                    }
                }
                if (failed &&
                    designated_[static_cast<std::size_t>(t)] >= 0) {
                    designated_[static_cast<std::size_t>(t)] = -1;
                    released = true;
                }
            }
            if (!released)
                break;
        }
    }

    // Advance active operations. A swap buffer holds one 32-bit variable
    // between its read and write cycle, so k buffers sustain ~k/2
    // variable transfers per cycle; register-bank ports are shared with
    // the operand collectors of normal execution (the paper's
    // bank-conflict effect).
    int ports = config_.registerBanks - (issued_instructions + 1) / 2;
    ports = std::max(ports, 2);
    // One buffer sustains about one variable transfer per two cycles;
    // generous configurations also speed up individual operations.
    const int per_op_rate = config_.buffersPerTask() >= 4 ? 2 : 1;

    for (int t = 0; t < 3; ++t) {
        int task_budget = config_.buffersPerTask();
        for (int k = 0; k < opsPerTask_; ++k) {
            auto &op = ops_[static_cast<std::size_t>(t * opsPerTask_ + k)];
            if (!op.active)
                continue;
            any_active = true;
            if (op.setupRemaining > 0) {
                --op.setupRemaining;
                continue;
            }
            const int grant = std::min(
                {per_op_rate, task_budget, ports, op.transfersRemaining});
            if (grant <= 0)
                continue;
            ports -= grant;
            task_budget -= grant;
            op.transfersRemaining -= grant;
            if (op.transfersRemaining == 0)
                completeOperation(op);
        }
    }

    if (!any_active)
        idleCycles_.add();
}

std::uint64_t
DrsControl::callsUntilChange(int issued_instructions) const
{
    // A dirty engine scans for new operations (or consolidates) on the
    // next call. A clean one changes nothing until an operation
    // completes: replay cycle()'s advance on copies of the in-flight
    // counters up to the first call that completes one.
    if (dirty_)
        return 1;
    replay_.clear();
    for (const Operation &op : ops_)
        replay_.push_back(op.active ? std::pair{op.setupRemaining,
                                                op.transfersRemaining}
                                    : std::pair{0, 0});
    const int ports_per_call =
        std::max(config_.registerBanks - (issued_instructions + 1) / 2, 2);
    const int per_op_rate = config_.buffersPerTask() >= 4 ? 2 : 1;
    for (std::uint64_t call = 1;; ++call) {
        int ports = ports_per_call;
        bool progress = false;
        for (int t = 0; t < 3; ++t) {
            int task_budget = config_.buffersPerTask();
            for (int k = 0; k < opsPerTask_; ++k) {
                auto &[setup, transfers] =
                    replay_[static_cast<std::size_t>(t * opsPerTask_ + k)];
                if (transfers == 0)
                    continue; // idle entry
                if (setup > 0) {
                    --setup;
                    progress = true;
                    continue;
                }
                const int grant = std::min(
                    {per_op_rate, task_budget, ports, transfers});
                if (grant <= 0)
                    continue;
                progress = true;
                ports -= grant;
                task_budget -= grant;
                transfers -= grant;
                if (transfers == 0)
                    return call;
            }
        }
        if (!progress)
            return kNoChange;
    }
}

void
DrsControl::verifyInvariants() const
{
    // Renaming tables: the bound (warp, row) pairs must form a bijection
    // read identically from both directions — this is the paper's
    // row-ownership exclusivity (one warp per row, one row per warp).
    for (int w = 0; w < numWarps_; ++w) {
        const int row = warpRow_[static_cast<std::size_t>(w)];
        if (row < -1 || row >= rows_)
            throw std::logic_error("DrsControl: warpRow out of range");
        if (row >= 0 && rowOwner_[static_cast<std::size_t>(row)] != w)
            throw std::logic_error(
                "DrsControl: warpRow/rowOwner tables disagree");
    }
    for (int row = 0; row < rows_; ++row) {
        const int w = rowOwner_[static_cast<std::size_t>(row)];
        if (w < -1 || w >= numWarps_)
            throw std::logic_error("DrsControl: rowOwner out of range");
        if (w >= 0 && warpRow_[static_cast<std::size_t>(w)] != row)
            throw std::logic_error(
                "DrsControl: rowOwner/warpRow tables disagree");
    }

    for (const int row : designated_)
        if (row < -1 || row >= rows_)
            throw std::logic_error("DrsControl: designated row out of range");

    // In-flight operations only move rays between unbound rows (binding
    // paths skip locked rows, and chooseOperation picks unbound ones);
    // a bound endpoint would mean the swap engine races the warp
    // executing on that row.
    for (const auto &op : ops_) {
        if (!op.active)
            continue;
        if (op.rowA < 0 || op.rowA >= rows_ || op.rowB < 0 ||
            op.rowB >= rows_ || op.rowA == op.rowB)
            throw std::logic_error("DrsControl: operation rows invalid");
        if (op.laneA < 0 || op.laneA >= lanes_ || op.laneB < 0 ||
            op.laneB >= lanes_)
            throw std::logic_error("DrsControl: operation lanes invalid");
        if (rowOwner_[static_cast<std::size_t>(op.rowA)] >= 0 ||
            rowOwner_[static_cast<std::size_t>(op.rowB)] >= 0)
            throw std::logic_error(
                "DrsControl: in-flight operation touches a bound row");
        if (op.transfersRemaining <= 0 || op.setupRemaining < 0)
            throw std::logic_error(
                "DrsControl: operation has no remaining work");
    }

    // The row searches visit the unbound set and skip locked rows; a
    // stale bit or count would silently misdirect dispatch and shuffles.
    for (std::size_t word = 0; word < unbound_.size(); ++word) {
        for (int bit = 0; bit < 64; ++bit) {
            const int row = static_cast<int>(word * 64) + bit;
            const bool unbound = (unbound_[word] >> bit) & 1u;
            if (unbound != (row < rows_ &&
                            rowOwner_[static_cast<std::size_t>(row)] < 0))
                throw std::logic_error(
                    "DrsControl: unbound-row set disagrees with rowOwner");
        }
    }
    std::vector<int> locks(static_cast<std::size_t>(rows_), 0);
    for (const auto &op : ops_) {
        if (!op.active)
            continue;
        ++locks[static_cast<std::size_t>(op.rowA)];
        ++locks[static_cast<std::size_t>(op.rowB)];
    }
    if (locks != lockCount_)
        throw std::logic_error(
            "DrsControl: row lock counts disagree with in-flight operations");
}

DrsControlStats
DrsControl::stats() const
{
    DrsControlStats s;
    s.remaps = remaps_.value();
    s.stallsStarted = stallsStarted_.value();
    s.movesCompleted = movesCompleted_.value();
    s.exchangesCompleted = exchangesCompleted_.value();
    s.idleCycles = idleCycles_.value();
    return s;
}

void
DrsControl::idealConsolidate()
{
    // Idealized 1-cycle shuffling: gather the live rays of ALL unbound
    // rows and repack them into full, state-pure rows (inner rows first,
    // then leaf rows, then empty rows). This is the fixed point the real
    // swap engine works toward.
    poolRows_.clear();
    innerRays_.clear();
    leafRays_.clear();
    findFreeRow([&](int row) {
        poolRows_.push_back(row);
        const std::uint32_t inner = workspace_.laneMask(row, TravState::Inner);
        const std::uint32_t leaf = workspace_.laneMask(row, TravState::Leaf);
        for (int lane = 0; lane < lanes_; ++lane) {
            if ((inner >> lane) & 1u)
                innerRays_.emplace_back(row, lane);
            else if ((leaf >> lane) & 1u)
                leafRays_.emplace_back(row, lane);
        }
        return false;
    });
    if (poolRows_.empty())
        return;

    targets_.clear();
    for (int row : poolRows_)
        for (int lane = 0; lane < lanes_; ++lane)
            targets_.emplace_back(row, lane);

    std::size_t cursor = 0;
    auto place = [&](std::vector<std::pair<int, int>> &rays) {
        for (std::size_t i = 0; i < rays.size() && cursor < targets_.size();
             ++i) {
            const auto target = targets_[cursor++];
            const auto src = rays[i];
            if (src == target)
                continue;
            workspace_.swapRays(src.first, src.second, target.first,
                                target.second);
            // A later source may have occupied the target slot; it now
            // lives where src was.
            for (auto *list : {&innerRays_, &leafRays_})
                for (std::size_t j = 0; j < list->size(); ++j)
                    if ((*list)[j] == target)
                        (*list)[j] = src;
        }
    };
    place(innerRays_);
    // Leaf rays start at the next row boundary so no row mixes states.
    if (cursor % static_cast<std::size_t>(lanes_) != 0)
        cursor += static_cast<std::size_t>(lanes_) -
                  cursor % static_cast<std::size_t>(lanes_);
    place(leafRays_);
    uniformCacheValid_ = false;
    bumpStateVersion();
}

} // namespace drs::core
