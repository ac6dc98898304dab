/**
 * @file
 * Unit tests for the SIMT execution machinery: cache model, memory
 * hierarchy, warp reconvergence stack, and the SMX issue loop driven by
 * small synthetic kernels.
 */

#include <gtest/gtest.h>

#include "simt/cache.h"
#include "simt/config.h"
#include "simt/gpu.h"
#include "simt/kernel.h"
#include "simt/memory.h"
#include "simt/smx.h"
#include "simt/warp.h"

namespace drs::simt {
namespace {

// ---------------------------------------------------------------- Cache

TEST(Cache, HitAfterFill)
{
    Cache cache(1024, 64, 2);
    EXPECT_FALSE(cache.access(0x100));
    EXPECT_TRUE(cache.access(0x100));
    EXPECT_TRUE(cache.access(0x13f)); // same line
    EXPECT_FALSE(cache.access(0x140)); // next line
    EXPECT_EQ(cache.stats().accesses, 4u);
    EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(Cache, LruEviction)
{
    // 2-way, 2 sets, 64B lines: lines 0, 2, 4 map to set 0.
    Cache cache(256, 64, 2);
    EXPECT_EQ(cache.numSets(), 2u);
    EXPECT_FALSE(cache.access(0 * 64));
    EXPECT_FALSE(cache.access(2 * 64));
    EXPECT_TRUE(cache.access(0 * 64));  // 0 now MRU
    EXPECT_FALSE(cache.access(4 * 64)); // evicts 2 (LRU)
    EXPECT_TRUE(cache.access(0 * 64));
    EXPECT_FALSE(cache.access(2 * 64)); // 2 was evicted
}

TEST(Cache, FlushInvalidates)
{
    Cache cache(1024, 64, 2);
    cache.access(0x0);
    cache.flush();
    EXPECT_FALSE(cache.access(0x0));
}

TEST(Cache, RejectsBadGeometry)
{
    EXPECT_THROW(Cache(1024, 60, 2), std::invalid_argument);  // not pow2
    EXPECT_THROW(Cache(64, 128, 2), std::invalid_argument);   // too small
}

TEST(Cache, ThrashingWorkingSet)
{
    // A working set larger than the cache must keep missing.
    Cache cache(1024, 64, 2); // 16 lines
    for (int round = 0; round < 3; ++round)
        for (std::uint64_t line = 0; line < 32; ++line)
            cache.access(line * 64);
    EXPECT_LT(cache.stats().hitRate(), 0.1);
}

TEST(Cache, VictimPrefersInvalidWay)
{
    // With a free way in the set, a miss must fill it instead of evicting
    // the resident line, regardless of that line's recency.
    Cache cache(256, 64, 2); // 2 sets; lines 0, 2, 4 map to set 0
    EXPECT_FALSE(cache.access(0 * 64));
    EXPECT_TRUE(cache.access(0 * 64)); // line 0 resident and MRU
    EXPECT_FALSE(cache.access(2 * 64)); // must take the invalid way
    EXPECT_TRUE(cache.access(0 * 64));
    EXPECT_TRUE(cache.access(2 * 64));
    cache.verifyInvariants();
}

TEST(Cache, FlushResetsLruStateCompletely)
{
    // Regression: flush() used to only clear the valid bits, leaving
    // stale tags/lastUse behind and the LRU clock running. The metadata
    // invariants must hold right after a flush, and a post-flush refill
    // must evict in cold-cache LRU order determined solely by post-flush
    // accesses.
    Cache cache(256, 64, 2); // 2 sets; lines 0, 2, 4 map to set 0
    // Warm set 0 with a deliberate recency pattern, then flush it away.
    cache.access(2 * 64);
    cache.access(0 * 64);
    cache.access(2 * 64); // pre-flush MRU: 2, LRU: 0
    cache.flush();
    cache.verifyInvariants(); // stale tag/lastUse would trip here

    // Cold refill with the opposite recency order: MRU 0, LRU 2.
    EXPECT_FALSE(cache.access(0 * 64));
    EXPECT_FALSE(cache.access(2 * 64));
    EXPECT_TRUE(cache.access(0 * 64));
    // The next insert must evict line 2 (post-flush LRU), not line 0
    // (which pre-flush history would have picked).
    EXPECT_FALSE(cache.access(4 * 64));
    EXPECT_TRUE(cache.access(0 * 64));
    EXPECT_FALSE(cache.access(2 * 64)); // evicted
    cache.verifyInvariants();
}

TEST(Cache, InvariantsHoldThroughMixedTraffic)
{
    Cache cache(1024, 64, 4);
    std::uint64_t address = 1;
    for (int i = 0; i < 500; ++i) {
        address = address * 6364136223846793005ULL + 1442695040888963407ULL;
        cache.access(address % 8192);
        if (i % 97 == 0)
            cache.flush();
        cache.verifyInvariants();
    }
}

// --------------------------------------------------------------- Memory

TEST(Memory, CoalescedSingleLine)
{
    MemoryConfig config;
    SharedMemorySide shared(config);
    SmxMemory memory(config, shared);
    // 32 lanes in one 128B line -> one L1 miss, latency includes L2+DRAM.
    std::vector<std::uint64_t> addrs;
    for (int i = 0; i < 32; ++i)
        addrs.push_back(static_cast<std::uint64_t>(i) * 4);
    const auto cold = memory.warpAccess(MemSpace::Global, addrs, 4);
    EXPECT_GE(cold, config.l1Data.hitLatency + config.l2.hitLatency);
    const auto warm = memory.warpAccess(MemSpace::Global, addrs, 4);
    EXPECT_EQ(warm, config.l1Data.hitLatency);
    EXPECT_EQ(memory.l1DataStats().accesses, 2u);
}

TEST(Memory, DivergentAccessTouchesManyLines)
{
    MemoryConfig config;
    SharedMemorySide shared(config);
    SmxMemory memory(config, shared);
    std::vector<std::uint64_t> addrs;
    for (int i = 0; i < 32; ++i)
        addrs.push_back(static_cast<std::uint64_t>(i) * 128);
    memory.warpAccess(MemSpace::Texture, addrs, 4);
    EXPECT_EQ(memory.l1TextureStats().accesses, 32u);
    // Serialization charge grows with the line count.
    const auto warm = memory.warpAccess(MemSpace::Texture, addrs, 4);
    EXPECT_EQ(warm, config.l1Texture.hitLatency +
                        31 * config.perLineSerialization);
}

TEST(Memory, StraddlingAccessTouchesTwoLines)
{
    MemoryConfig config;
    SharedMemorySide shared(config);
    SmxMemory memory(config, shared);
    memory.warpAccess(MemSpace::Global, {120}, 16); // crosses 128B boundary
    EXPECT_EQ(memory.l1DataStats().accesses, 2u);
}

TEST(Memory, SeparateL1Spaces)
{
    MemoryConfig config;
    SharedMemorySide shared(config);
    SmxMemory memory(config, shared);
    memory.warpAccess(MemSpace::Global, {0}, 4);
    memory.warpAccess(MemSpace::Texture, {0}, 4);
    EXPECT_EQ(memory.l1DataStats().accesses, 1u);
    EXPECT_EQ(memory.l1TextureStats().accesses, 1u);
}

// ------------------------------------------------------------ Warp stack

TEST(Warp, UniformFlowNeverDiverges)
{
    // 0 -> 1 -> 2(exit)
    std::vector<Block> blocks(3);
    blocks[0] = {"a", 1, {1}, MemSpace::None, SpecialOp::None, false};
    blocks[1] = {"b", 1, {2}, MemSpace::None, SpecialOp::None, false};
    blocks[2] = {"exit", 1, {}, MemSpace::None, SpecialOp::None, false};
    Program program(std::move(blocks), 2);

    Warp warp(0, 0, 0, 2, 32);
    std::vector<int> next(32, 1);
    warp.applySuccessors(next, program);
    EXPECT_EQ(warp.pc(), 1);
    EXPECT_EQ(warp.stackDepth(), 1u);
    std::fill(next.begin(), next.end(), 2);
    warp.applySuccessors(next, program);
    EXPECT_TRUE(warp.exited());
}

TEST(Warp, DivergenceAndReconvergence)
{
    // Diamond: 0 -> {1,2}; 1,2 -> 3; 3 -> 4(exit)
    std::vector<Block> blocks(5);
    blocks[0] = {"br", 1, {1, 2}, MemSpace::None, SpecialOp::None, false};
    blocks[1] = {"l", 1, {3}, MemSpace::None, SpecialOp::None, false};
    blocks[2] = {"r", 1, {3}, MemSpace::None, SpecialOp::None, false};
    blocks[3] = {"j", 1, {4}, MemSpace::None, SpecialOp::None, false};
    blocks[4] = {"exit", 1, {}, MemSpace::None, SpecialOp::None, false};
    Program program(std::move(blocks), 4);

    Warp warp(0, 0, 0, 4, 32);
    std::vector<int> next(32);
    for (int i = 0; i < 32; ++i)
        next[static_cast<std::size_t>(i)] = (i % 2) ? 1 : 2;
    warp.applySuccessors(next, program);
    // Divergence: reconvergence entry at 3 plus two sides.
    EXPECT_EQ(warp.stackDepth(), 3u);
    const int first_side = warp.pc();
    EXPECT_TRUE(first_side == 1 || first_side == 2);
    EXPECT_EQ(popcount(warp.activeMask()), 16);

    // Execute the first side: its lanes go to 3 (the rpc) and pop.
    std::fill(next.begin(), next.end(), 3);
    warp.applySuccessors(next, program);
    EXPECT_EQ(warp.stackDepth(), 2u);
    const int second_side = warp.pc();
    EXPECT_NE(second_side, first_side);
    warp.applySuccessors(next, program);
    // Both sides done: full warp reconverged at 3.
    EXPECT_EQ(warp.stackDepth(), 1u);
    EXPECT_EQ(warp.pc(), 3);
    EXPECT_EQ(popcount(warp.activeMask()), 32);
}

TEST(Warp, DivergencePushesTargetsInBlockOrder)
{
    // 0 -> {1,2,3,4}; 1,2,3 -> 4; 4 -> 5(exit). Block 4 is the
    // reconvergence point of the branch at 0.
    std::vector<Block> blocks(6);
    blocks[0] = {"br", 1, {1, 2, 3, 4}, MemSpace::None, SpecialOp::None,
                 false};
    blocks[1] = {"a", 1, {4}, MemSpace::None, SpecialOp::None, false};
    blocks[2] = {"b", 1, {4}, MemSpace::None, SpecialOp::None, false};
    blocks[3] = {"c", 1, {4}, MemSpace::None, SpecialOp::None, false};
    blocks[4] = {"join", 1, {5}, MemSpace::None, SpecialOp::None, false};
    blocks[5] = {"exit", 1, {}, MemSpace::None, SpecialOp::None, false};
    Program program(std::move(blocks), 5);
    ASSERT_EQ(program.immediatePostDominator(0), 4);

    // Lane 0 goes to the highest target, so lane order and block order
    // disagree: lanes 4k -> 3, 4k+1 -> 1, 4k+2 -> 4 (rpc), 4k+3 -> 2.
    Warp warp(0, 0, 0, 5, 32);
    std::vector<int> next(32);
    for (int i = 0; i < 32; ++i) {
        static constexpr int kTarget[] = {3, 1, 4, 2};
        next[static_cast<std::size_t>(i)] = kTarget[i % 4];
    }
    warp.applySuccessors(next, program);

    // The reconvergence entry keeps every lane; one entry per other
    // target follows in ascending block id, so block 3 runs first.
    const std::vector<StackEntry> &stack = warp.stack();
    ASSERT_EQ(stack.size(), 4u);
    EXPECT_EQ(stack[0].pc, 4);
    EXPECT_EQ(stack[0].rpc, 5);
    EXPECT_EQ(stack[0].mask, 0xffffffffu);
    const int pcs[] = {1, 2, 3};
    const std::uint32_t masks[] = {0x22222222u, 0x88888888u, 0x11111111u};
    for (std::size_t i = 0; i < 3; ++i) {
        SCOPED_TRACE(i);
        EXPECT_EQ(stack[i + 1].pc, pcs[i]);
        EXPECT_EQ(stack[i + 1].rpc, 4);
        EXPECT_EQ(stack[i + 1].mask, masks[i]);
    }
    EXPECT_EQ(warp.pc(), 3);
    EXPECT_EQ(warp.activeMask(), 0x11111111u);
}

TEST(Warp, PartialExit)
{
    // 0 -> {0, 1}: half the lanes loop, half exit.
    std::vector<Block> blocks(2);
    blocks[0] = {"loop", 1, {0, 1}, MemSpace::None, SpecialOp::None, false};
    blocks[1] = {"exit", 1, {}, MemSpace::None, SpecialOp::None, false};
    Program program(std::move(blocks), 1);

    Warp warp(0, 0, 0, 1, 32);
    std::vector<int> next(32);
    for (int i = 0; i < 32; ++i)
        next[static_cast<std::size_t>(i)] = (i < 16) ? 0 : 1;
    warp.applySuccessors(next, program);
    EXPECT_FALSE(warp.exited());
    EXPECT_EQ(warp.pc(), 0);
    EXPECT_EQ(popcount(warp.activeMask()), 16);
    std::fill(next.begin(), next.end(), 1);
    warp.applySuccessors(next, program);
    EXPECT_TRUE(warp.exited());
}

TEST(Warp, ForceExitAndUniformBody)
{
    std::vector<Block> blocks(3);
    blocks[0] = {"rd", 1, {1, 2}, MemSpace::None, SpecialOp::Rdctrl, false};
    blocks[1] = {"body", 1, {0}, MemSpace::None, SpecialOp::None, false};
    blocks[2] = {"exit", 1, {}, MemSpace::None, SpecialOp::None, false};
    Program program(std::move(blocks), 2);

    Warp warp(0, 0, 0, 2, 32);
    warp.pushUniformBody(1, 0xffffu, 0);
    EXPECT_EQ(warp.pc(), 1);
    EXPECT_EQ(popcount(warp.activeMask()), 16);
    std::vector<int> next(32, 0);
    warp.applySuccessors(next, program); // body returns to rdctrl -> pop
    EXPECT_EQ(warp.pc(), 0);
    EXPECT_EQ(warp.stackDepth(), 1u);
    warp.forceExit();
    EXPECT_TRUE(warp.exited());
}

// --------------------------------------------------------- SMX with a
// synthetic kernel: each thread executes a fixed number of loop rounds.

class CountdownKernel : public Kernel
{
  public:
    /** Each lane of each warp loops `lane % spread + 1` times. */
    CountdownKernel(int warps, int spread) : spread_(spread)
    {
        std::vector<Block> blocks(3);
        blocks[0] = {"head", 4, {0, 1}, MemSpace::None, SpecialOp::None,
                     false};
        blocks[1] = {"tail", 2, {2}, MemSpace::Global, SpecialOp::None,
                     false};
        blocks[2] = {"exit", 1, {}, MemSpace::None, SpecialOp::None, false};
        program_ = Program(std::move(blocks), 2);
        counters_.resize(static_cast<std::size_t>(warps) * 32);
        for (int w = 0; w < warps; ++w)
            for (int lane = 0; lane < 32; ++lane)
                counters_[static_cast<std::size_t>(w) * 32 + lane] =
                    lane % spread + 1;
    }

    const Program &program() const override { return program_; }

    ThreadStep execute(int block, int row, int lane) override
    {
        ThreadStep step;
        auto &counter = counters_[static_cast<std::size_t>(row) * 32 + lane];
        if (block == 0) {
            step.nextBlock = (--counter > 0) ? 0 : 1;
        } else {
            step.nextBlock = 2;
            step.memAddress = static_cast<std::uint64_t>(row) * 128;
            step.memBytes = 4;
            ++completed_;
        }
        return step;
    }

    RowWorkspace &workspace() override { throw std::logic_error("unused"); }
    std::uint64_t raysCompleted() const override { return completed_; }

  private:
    Program program_;
    int spread_;
    std::vector<int> counters_;
    std::uint64_t completed_ = 0;
};

TEST(Smx, RunsSyntheticKernelToCompletion)
{
    GpuConfig config;
    SharedMemorySide shared(config.memory);
    CountdownKernel kernel(4, 8);
    Smx smx(config, kernel, nullptr, 4, shared);
    smx.run(1'000'000);
    EXPECT_TRUE(smx.done());
    EXPECT_EQ(kernel.raysCompleted(), 4u * 32u);
}

TEST(Smx, RunThrowsPastMaxCycles)
{
    GpuConfig config;
    SharedMemorySide shared(config.memory);
    CountdownKernel kernel(4, 8);
    Smx smx(config, kernel, nullptr, 4, shared);
    // The kernel needs far more than 10 cycles: stopping there with
    // partial results must be loud.
    EXPECT_THROW(smx.run(10), std::runtime_error);
    EXPECT_FALSE(smx.done());
}

TEST(Smx, DivergentLoopLowersSimdEfficiency)
{
    GpuConfig config;
    SharedMemorySide shared(config.memory);

    CountdownKernel uniform(4, 1); // all lanes: 1 round
    Smx smx_uniform(config, uniform, nullptr, 4, shared);
    smx_uniform.run(1'000'000);

    CountdownKernel skewed(4, 32); // lanes loop 1..32 rounds
    Smx smx_skewed(config, skewed, nullptr, 4, shared);
    smx_skewed.run(1'000'000);

    const double eff_uniform =
        smx_uniform.collectStats().histogram.simdEfficiency();
    const double eff_skewed =
        smx_skewed.collectStats().histogram.simdEfficiency();
    EXPECT_GT(eff_uniform, 0.95);
    EXPECT_LT(eff_skewed, 0.65);
}

TEST(Smx, InstructionCountMatchesWork)
{
    GpuConfig config;
    SharedMemorySide shared(config.memory);
    CountdownKernel kernel(1, 1); // every lane: 1 round
    Smx smx(config, kernel, nullptr, 1, shared);
    smx.run(100'000);
    // One warp: head (4 instr) + tail (2 instr) = 6 warp instructions.
    EXPECT_EQ(smx.collectStats().histogram.instructions(), 6u);
}

TEST(Smx, PerBlockIssueStatsRecorded)
{
    GpuConfig config;
    SharedMemorySide shared(config.memory);
    CountdownKernel kernel(2, 4);
    Smx smx(config, kernel, nullptr, 2, shared);
    smx.run(100'000);
    const SimStats stats = smx.collectStats();
    ASSERT_EQ(stats.blockIssue.size(), 3u);
    EXPECT_GT(stats.blockIssue[0].first, 0u);
    EXPECT_GT(stats.blockIssue[1].first, 0u);
    EXPECT_EQ(stats.blockIssue[2].first, 0u); // exit never issues
}

TEST(Gpu, RayStripePartitioning)
{
    // 100 rays, 3 SMXs, warp size 32: groups of 32 split 2/1/1.
    auto [f0, c0] = rayStripe(100, 3, 0);
    auto [f1, c1] = rayStripe(100, 3, 1);
    auto [f2, c2] = rayStripe(100, 3, 2);
    EXPECT_EQ(f0, 0u);
    EXPECT_EQ(c0, 64u);
    EXPECT_EQ(f1, 64u);
    EXPECT_EQ(c1, 32u);
    EXPECT_EQ(f2, 96u);
    EXPECT_EQ(c2, 4u);
    EXPECT_EQ(c0 + c1 + c2, 100u);
}

TEST(Gpu, RayStripeFewRays)
{
    auto [f0, c0] = rayStripe(10, 4, 0);
    EXPECT_EQ(f0, 0u);
    EXPECT_EQ(c0, 10u);
    for (int i = 1; i < 4; ++i)
        EXPECT_EQ(rayStripe(10, 4, i).second, 0u);
}

TEST(Gpu, RayStripeZeroRays)
{
    for (int smx = 0; smx < 4; ++smx) {
        auto [first, count] = rayStripe(0, 4, smx);
        EXPECT_EQ(count, 0u);
        EXPECT_LE(first, 0u);
    }
}

TEST(Gpu, RayStripeMoreSmxsThanWarpGroups)
{
    // 3 warp-groups (65 rays) over 8 SMXs: exactly 3 SMXs get one group
    // each, the rest get nothing.
    int populated = 0;
    std::size_t total = 0;
    for (int smx = 0; smx < 8; ++smx) {
        auto [first, count] = rayStripe(65, 8, smx);
        (void)first;
        if (count > 0) {
            ++populated;
            total += count;
        }
    }
    EXPECT_EQ(populated, 3);
    EXPECT_EQ(total, 65u);
}

/**
 * Property check: for any (total, smx count), the stripes are disjoint,
 * contiguous, complete, and every stripe but the batch tail starts and
 * ends on a warp boundary.
 */
TEST(Gpu, RayStripesPartitionTheBatch)
{
    const std::size_t totals[] = {0, 1, 31, 32, 33, 64, 100, 1023, 1024,
                                  4097};
    for (const std::size_t total : totals) {
        for (const int num_smx : {1, 2, 3, 7, 15, 16}) {
            std::size_t expected_first = 0;
            for (int smx = 0; smx < num_smx; ++smx) {
                auto [first, count] = rayStripe(total, num_smx, smx);
                if (count == 0)
                    continue;
                // Contiguity + disjointness: each non-empty stripe picks
                // up exactly where the previous one ended.
                EXPECT_EQ(first, expected_first)
                    << total << " rays, " << num_smx << " SMXs, smx "
                    << smx;
                // Warp alignment: stripes start on a 32-ray boundary and
                // only the batch tail may end off-boundary.
                EXPECT_EQ(first % 32, 0u);
                if (first + count != total) {
                    EXPECT_EQ(count % 32, 0u);
                }
                expected_first = first + count;
            }
            EXPECT_EQ(expected_first, total)
                << total << " rays over " << num_smx
                << " SMXs did not cover the batch";
        }
    }
}

} // namespace
} // namespace drs::simt
