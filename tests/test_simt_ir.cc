/**
 * @file
 * Unit tests for the kernel IR: CFG validation and immediate
 * post-dominator computation (the SIMT reconvergence points).
 */

#include <gtest/gtest.h>

#include "kernels/aila_kernel.h"
#include "kernels/drs_kernel.h"
#include "simt/kernel_ir.h"
#include "simt/warp.h"

namespace drs::simt {
namespace {

Block
makeBlock(std::string name, std::vector<int> succ, int instr = 1)
{
    Block b;
    b.name = std::move(name);
    b.successors = std::move(succ);
    b.instructionCount = instr;
    return b;
}

TEST(Program, RejectsEmpty)
{
    EXPECT_THROW(Program({}, 0), std::invalid_argument);
}

TEST(Program, RejectsExitWithSuccessors)
{
    std::vector<Block> blocks;
    blocks.push_back(makeBlock("a", {1}));
    blocks.push_back(makeBlock("exit", {0}));
    EXPECT_THROW(Program(std::move(blocks), 1), std::invalid_argument);
}

TEST(Program, RejectsDanglingSuccessor)
{
    std::vector<Block> blocks;
    blocks.push_back(makeBlock("a", {5}));
    blocks.push_back(makeBlock("exit", {}));
    EXPECT_THROW(Program(std::move(blocks), 1), std::invalid_argument);
}

TEST(Program, RejectsUnreachableExit)
{
    std::vector<Block> blocks;
    blocks.push_back(makeBlock("a", {0})); // self loop, never exits
    blocks.push_back(makeBlock("exit", {}));
    EXPECT_THROW(Program(std::move(blocks), 1), std::invalid_argument);
}

TEST(Program, RejectsNonPositiveSize)
{
    std::vector<Block> blocks;
    blocks.push_back(makeBlock("a", {1}, 0));
    blocks.push_back(makeBlock("exit", {}));
    EXPECT_THROW(Program(std::move(blocks), 1), std::invalid_argument);
}

TEST(Program, DiamondPostDominators)
{
    //     0         entry
    //    / \        left, right
    //   1   2
    //    \ /        join
    //     3 -> 4(exit)
    std::vector<Block> blocks;
    blocks.push_back(makeBlock("entry", {1, 2}));
    blocks.push_back(makeBlock("left", {3}));
    blocks.push_back(makeBlock("right", {3}));
    blocks.push_back(makeBlock("join", {4}));
    blocks.push_back(makeBlock("exit", {}));
    const Program p(std::move(blocks), 4);
    EXPECT_EQ(p.immediatePostDominator(0), 3);
    EXPECT_EQ(p.immediatePostDominator(1), 3);
    EXPECT_EQ(p.immediatePostDominator(2), 3);
    EXPECT_EQ(p.immediatePostDominator(3), 4);
    EXPECT_EQ(p.immediatePostDominator(4), 4);
}

TEST(Program, NestedDiamonds)
{
    // 0 -> {1, 4}; 1 -> {2, 3}; 2,3 -> 5; 4 -> 5; 5 -> 6(exit)
    std::vector<Block> blocks;
    blocks.push_back(makeBlock("0", {1, 4}));
    blocks.push_back(makeBlock("1", {2, 3}));
    blocks.push_back(makeBlock("2", {5}));
    blocks.push_back(makeBlock("3", {5}));
    blocks.push_back(makeBlock("4", {5}));
    blocks.push_back(makeBlock("5", {6}));
    blocks.push_back(makeBlock("exit", {}));
    const Program p(std::move(blocks), 6);
    EXPECT_EQ(p.immediatePostDominator(0), 5);
    EXPECT_EQ(p.immediatePostDominator(1), 5);
    EXPECT_EQ(p.immediatePostDominator(5), 6);
}

TEST(Program, LoopPostDominators)
{
    // 0 -> 1; 1 -> {2, 3}; 2 -> 1 (back edge); 3(exit)
    std::vector<Block> blocks;
    blocks.push_back(makeBlock("pre", {1}));
    blocks.push_back(makeBlock("head", {2, 3}));
    blocks.push_back(makeBlock("body", {1}));
    blocks.push_back(makeBlock("exit", {}));
    const Program p(std::move(blocks), 3);
    EXPECT_EQ(p.immediatePostDominator(1), 3);
    EXPECT_EQ(p.immediatePostDominator(2), 1);
}

TEST(Program, AilaKernelReconvergencePoints)
{
    // The while-while CFG must produce the divergence behaviour of the
    // paper's Figure 1: inner-loop divergence reconverges at the leaf
    // head, leaf-loop divergence at the done check, and the done check at
    // the store (the warp waits for its longest ray before refetching).
    using B = kernels::AilaBlocks;
    const Program p = kernels::makeAilaProgram(kernels::defaultCostModel());
    EXPECT_EQ(p.immediatePostDominator(B::kInnerHead), B::kLeafHead);
    EXPECT_EQ(p.immediatePostDominator(B::kInnerTest), B::kInnerHead);
    EXPECT_EQ(p.immediatePostDominator(B::kLeafHead), B::kDoneCheck);
    EXPECT_EQ(p.immediatePostDominator(B::kLeafTest), B::kLeafHead);
    EXPECT_EQ(p.immediatePostDominator(B::kDoneCheck), B::kStore);
    EXPECT_EQ(p.immediatePostDominator(B::kStore), B::kFetch);
    EXPECT_EQ(p.immediatePostDominator(B::kFetch), B::kExit);
}

TEST(Program, DrsKernelReconvergencePoints)
{
    // The while-if CFG: every if-body reconverges back toward rdctrl;
    // intra-body sub-branches reconverge inside the body.
    using B = kernels::DrsBlocks;
    const Program p = kernels::makeDrsProgram(kernels::defaultCostModel());
    EXPECT_EQ(p.immediatePostDominator(B::kInnerTest), B::kSetStateInner);
    EXPECT_EQ(p.immediatePostDominator(B::kLeafHead), B::kSetStateLeaf);
    EXPECT_EQ(p.immediatePostDominator(B::kLeafTest), B::kLeafHead);
    EXPECT_EQ(p.immediatePostDominator(B::kSetStateInner), B::kRdctrl);
    EXPECT_EQ(p.immediatePostDominator(B::kRdctrl), B::kExit);
}

TEST(Program, TotalInstructionCount)
{
    std::vector<Block> blocks;
    blocks.push_back(makeBlock("a", {1}, 10));
    blocks.push_back(makeBlock("exit", {}, 2));
    const Program p(std::move(blocks), 1);
    EXPECT_EQ(p.totalInstructionCount(), 12);
}

TEST(Program, KernelLoopBodySizeMatchesPaperScale)
{
    // Paper: "the main while loop of Kernel 1 is composed of over 300
    // lines of instructions, where the rdctrl instruction only takes up
    // one line." Our calibration keeps rdctrl a small fraction of the
    // loop body.
    const Program p = kernels::makeDrsProgram(kernels::defaultCostModel());
    const int rdctrl =
        p.block(kernels::DrsBlocks::kRdctrl).instructionCount;
    const int total = p.totalInstructionCount();
    EXPECT_LT(static_cast<double>(rdctrl) / total, 0.07);
}

// ------------------------------------------------- Warp on nested loops
//
// Regression coverage for the bottom-entry reconvergence audit: the
// bottom stack entry's rpc is always the exit block, so a uniform jump
// that hits it must run through the exit re-check (not silently rewrite
// pc), and nested-loop divergence must wind and unwind the stack without
// ever leaving the bottom entry reconverging anywhere else.

/** 0 -> 1; 1 -> {2, 5}; 2 -> {3, 4}; 3 -> 2; 4 -> 1; 5 = exit. */
Program
makeNestedLoopProgram()
{
    std::vector<Block> blocks;
    blocks.push_back(makeBlock("pre", {1}));
    blocks.push_back(makeBlock("outer", {2, 5}));
    blocks.push_back(makeBlock("inner", {3, 4}));
    blocks.push_back(makeBlock("body", {2}));
    blocks.push_back(makeBlock("latch", {1}));
    blocks.push_back(makeBlock("exit", {}));
    return Program(std::move(blocks), 5);
}

TEST(Warp, RejectsBadLaneCount)
{
    EXPECT_THROW(Warp(0, 0, 0, 1, 0), std::invalid_argument);
    EXPECT_THROW(Warp(0, 0, 0, 1, 33), std::invalid_argument);
}

TEST(Warp, SingleEntryRpcHitExitsWarp)
{
    // The bottom entry's rpc is the exit block; a uniform jump onto it
    // must exit the warp through the re-check, not leave a live warp
    // parked at its "reconvergence point".
    std::vector<Block> blocks;
    blocks.push_back(makeBlock("a", {1}));
    blocks.push_back(makeBlock("exit", {}));
    Program program(std::move(blocks), 1);

    Warp warp(0, 0, 0, 1, 32);
    const std::vector<int> next(32, 1);
    warp.applySuccessors(next, program);
    EXPECT_TRUE(warp.exited());
    EXPECT_EQ(warp.stackDepth(), 1u);
}

TEST(Warp, SingleEntryNonRpcJumpContinues)
{
    // A uniform jump that does NOT hit the bottom entry's rpc simply
    // advances pc: depth stays 1, the warp keeps running.
    const Program program = makeNestedLoopProgram();
    Warp warp(0, 0, 0, 5, 32);
    std::vector<int> next(32, 1);
    warp.applySuccessors(next, program);
    EXPECT_FALSE(warp.exited());
    EXPECT_EQ(warp.pc(), 1);
    EXPECT_EQ(warp.stackDepth(), 1u);
    std::fill(next.begin(), next.end(), 2);
    warp.applySuccessors(next, program);
    EXPECT_FALSE(warp.exited());
    EXPECT_EQ(warp.pc(), 2);
    EXPECT_EQ(warp.stackDepth(), 1u);
}

TEST(Warp, NestedLoopDivergenceSchedule)
{
    const Program program = makeNestedLoopProgram();
    EXPECT_EQ(program.immediatePostDominator(1), 5);
    EXPECT_EQ(program.immediatePostDominator(2), 4);

    Warp warp(0, 0, 0, 5, 32);
    std::vector<int> next(32, 1);
    warp.applySuccessors(next, program); // 0 -> 1, uniform
    EXPECT_EQ(warp.pc(), 1);
    EXPECT_EQ(warp.stackDepth(), 1u);

    // Outer divergence at 1: rpc = ipdom(1) = exit. Lanes 16..31 head
    // straight for the exit and wait at the bottom entry; lanes 0..15
    // enter the loop nest as a pushed side.
    for (int i = 0; i < 32; ++i)
        next[static_cast<std::size_t>(i)] = (i < 16) ? 2 : 5;
    warp.applySuccessors(next, program);
    EXPECT_EQ(warp.stackDepth(), 2u);
    EXPECT_EQ(warp.pc(), 2);
    EXPECT_EQ(popcount(warp.activeMask()), 16);

    // Inner divergence at 2: rpc = ipdom(2) = 4. Lanes 8..15 target the
    // rpc itself and wait at the new reconvergence entry; lanes 0..7
    // take the loop body.
    for (int i = 0; i < 16; ++i)
        next[static_cast<std::size_t>(i)] = (i < 8) ? 3 : 4;
    warp.applySuccessors(next, program);
    EXPECT_EQ(warp.stackDepth(), 3u);
    EXPECT_EQ(warp.pc(), 3);
    EXPECT_EQ(popcount(warp.activeMask()), 8);

    // The body loops back to the inner head: the side entry just moves.
    std::fill(next.begin(), next.end(), 2);
    warp.applySuccessors(next, program);
    EXPECT_EQ(warp.stackDepth(), 3u);
    EXPECT_EQ(warp.pc(), 2);
    EXPECT_EQ(popcount(warp.activeMask()), 8);

    // All 8 lanes now leave the inner loop: pc hits rpc 4, the side
    // pops, and the reconvergence entry resumes with all 16 lanes.
    std::fill(next.begin(), next.end(), 4);
    warp.applySuccessors(next, program);
    EXPECT_EQ(warp.stackDepth(), 2u);
    EXPECT_EQ(warp.pc(), 4);
    EXPECT_EQ(popcount(warp.activeMask()), 16);

    // The latch returns to the outer head: still one side deep.
    std::fill(next.begin(), next.end(), 1);
    warp.applySuccessors(next, program);
    EXPECT_EQ(warp.stackDepth(), 2u);
    EXPECT_EQ(warp.pc(), 1);

    // Second outer iteration exits uniformly: the side's pc hits its rpc
    // (the exit), pops, and the bottom entry — already waiting at the
    // exit — reports the warp done with every lane reconverged.
    std::fill(next.begin(), next.end(), 5);
    warp.applySuccessors(next, program);
    EXPECT_TRUE(warp.exited());
    EXPECT_EQ(warp.stackDepth(), 1u);
    EXPECT_EQ(popcount(warp.activeMask()), 32);
}

TEST(Warp, ForceExitDuringNestedDivergence)
{
    // forceExit mid-divergence (the DRS retire path) must collapse the
    // whole stack to a clean exited state, depth 3 or not.
    const Program program = makeNestedLoopProgram();
    Warp warp(0, 0, 0, 5, 32);
    std::vector<int> next(32, 1);
    warp.applySuccessors(next, program);
    for (int i = 0; i < 32; ++i)
        next[static_cast<std::size_t>(i)] = (i < 16) ? 2 : 5;
    warp.applySuccessors(next, program);
    for (int i = 0; i < 16; ++i)
        next[static_cast<std::size_t>(i)] = (i < 8) ? 3 : 4;
    warp.applySuccessors(next, program);
    ASSERT_EQ(warp.stackDepth(), 3u);

    warp.forceExit();
    EXPECT_TRUE(warp.exited());
    EXPECT_EQ(warp.stackDepth(), 1u);
    EXPECT_EQ(warp.pc(), 5);
}

} // namespace
} // namespace drs::simt
