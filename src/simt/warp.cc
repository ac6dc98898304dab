#include "simt/warp.h"

#include <array>
#include <bit>
#include <cassert>
#include <stdexcept>

namespace drs::simt {

Warp::Warp(int id, int row, int entry_block, int exit_block, int lanes)
    : id_(id), row_(row), exitBlock_(exit_block), lanes_(lanes)
{
    if (lanes < 1 || lanes > 32)
        throw std::invalid_argument(
            "Warp: lanes must be in [1, 32] (lane masks are 32-bit)");
    stack_.push_back(StackEntry{entry_block, exit_block, fullMask(lanes)});
    if (entry_block == exit_block)
        exited_ = true;
}

void
Warp::applySuccessors(const std::vector<int> &next_blocks,
                      const Program &program)
{
    assert(!exited_);
    StackEntry &top = stack_.back();
    const std::uint32_t mask = top.mask & fullMask(lanes_);
    const int branch_pc = top.pc;

    // Partition active lanes by successor, kept in ascending block order
    // (insertion into a fixed array: there is at most one target per
    // lane, and rarely more than a few).
    struct Target
    {
        int block;
        std::uint32_t lanes;
    };
    std::array<Target, 32> targets;
    std::size_t count = 0;
    for (std::uint32_t rest = mask; rest != 0; rest &= rest - 1) {
        const int lane = std::countr_zero(rest);
        const int next = next_blocks[static_cast<std::size_t>(lane)];
        std::size_t i = 0;
        while (i < count && targets[i].block < next)
            ++i;
        if (i == count || targets[i].block != next) {
            for (std::size_t j = count; j > i; --j)
                targets[j] = targets[j - 1];
            targets[i] = {next, 0};
            ++count;
        }
        targets[i].lanes |= 1u << lane;
    }
    assert(count != 0);

    if (count == 1) {
        const int next = targets[0].block;
        if (next == top.rpc) {
            // Reached the reconvergence point: rejoin the entry below.
            if (stack_.size() > 1) {
                stack_.pop_back();
            } else {
                // The bottom entry's rpc must be the exit block — pushed
                // that way in the constructor and never rewritten. If it
                // ever weren't, overwriting pc here would skip the exit
                // re-check below and the warp would keep running at its
                // "reconvergence" block. Fail loudly instead of
                // continuing on a corrupted stack.
                if (top.rpc != exitBlock_)
                    throw std::logic_error(
                        "Warp: bottom stack entry reconverges at a "
                        "non-exit block");
                top.pc = next;
            }
        } else {
            top.pc = next;
        }
    } else {
        // Divergence: the current entry becomes the reconvergence entry at
        // the immediate post-dominator; one entry per target is pushed.
        const int rpc = program.immediatePostDominator(branch_pc);
        top.pc = rpc;
        // Push in ascending block order, so the highest block runs first;
        // any fixed order is architecturally valid.
        for (std::size_t i = 0; i < count; ++i) {
            if (targets[i].block == rpc)
                continue; // these lanes wait at the reconvergence entry
            stack_.push_back(StackEntry{targets[i].block, rpc,
                                        targets[i].lanes});
        }
    }

    popConverged();
    if (stack_.size() == 1 && stack_.back().pc == exitBlock_)
        exited_ = true;
}

void
Warp::pushUniformBody(int body_block, std::uint32_t mask, int rpc)
{
    assert(!exited_);
    assert(mask != 0);
    stack_.push_back(StackEntry{body_block, rpc, mask});
}

void
Warp::forceExit()
{
    stack_.clear();
    stack_.push_back(StackEntry{exitBlock_, exitBlock_, 0});
    exited_ = true;
}

void
Warp::popConverged()
{
    while (stack_.size() > 1 && stack_.back().pc == stack_.back().rpc)
        stack_.pop_back();
}

} // namespace drs::simt
