#pragma once

/**
 * @file
 * Counters and the active-thread histogram used to report SIMD efficiency
 * the way the paper does (categories Wm:n = fraction of issued warp
 * instructions with m..n active threads).
 */

#include <array>
#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

namespace drs::stats {

/** A saturating 64-bit event counter. */
class Counter
{
  public:
    void add(std::uint64_t n = 1) { value_ += n; }
    void reset() { value_ = 0; }
    std::uint64_t value() const { return value_; }

  private:
    std::uint64_t value_ = 0;
};

/**
 * Histogram of active-thread counts per issued warp instruction.
 *
 * Bucketed into the paper's four categories (W1:8, W9:16, W17:24, W25:32)
 * plus exact per-count tallies for finer analysis. Instructions tagged as
 * "spawn-related" (the DMK's SI category) are tracked separately so the
 * Figure 10 breakdown can single them out.
 */
class ActiveThreadHistogram
{
  public:
    static constexpr int kWarpSize = 32;
    static constexpr int kNumBuckets = 4;

    /** Record one issued warp instruction with @p active threads enabled. */
    void recordInstruction(int active, bool spawn_related = false)
    {
        recordInstructions(active, spawn_related, 1);
    }

    /**
     * Record @p n issued warp instructions with @p active threads each:
     * the same tallies as @p n calls of recordInstruction().
     */
    void recordInstructions(int active, bool spawn_related, std::uint64_t n)
    {
        assert(active >= 0 && active <= kWarpSize);
        instructions_ += n;
        activeThreads_ += static_cast<std::uint64_t>(active) * n;
        exact_[static_cast<std::size_t>(active)] += n;
        if (spawn_related) {
            spawnInstructions_ += n;
            return;
        }
        if (active > 0)
            buckets_[static_cast<std::size_t>((active - 1) / 8)] += n;
    }

    /** Number of warp instructions issued (including spawn-related). */
    std::uint64_t instructions() const { return instructions_; }

    /** Number of spawn-related warp instructions issued. */
    std::uint64_t spawnInstructions() const { return spawnInstructions_; }

    /** Sum of active threads over all issued instructions. */
    std::uint64_t activeThreads() const { return activeThreads_; }

    /**
     * SIMD efficiency: sum(active threads) / (instructions * 32).
     * Returns 0 when no instructions were issued.
     */
    double simdEfficiency() const;

    /**
     * Fraction of issued instructions in bucket @p b, where bucket 0 is
     * W1:8, 1 is W9:16, 2 is W17:24 and 3 is W25:32. Excludes
     * spawn-related instructions (reported via spawnFraction()).
     */
    double bucketFraction(int b) const;

    /** Fraction of issued instructions that are spawn-related (SI). */
    double spawnFraction() const;

    /** Exact tally for instructions with exactly @p active threads. */
    std::uint64_t exactCount(int active) const { return exact_.at(active); }

    /** Raw tally of bucket @p b (see bucketFraction for the numbering). */
    std::uint64_t bucketCount(int b) const
    {
        return buckets_.at(static_cast<std::size_t>(b));
    }

    /**
     * Rebuild a histogram from previously exported raw tallies (the
     * sweep journal's lossless SimStats round trip). The inverse of
     * reading instructions()/spawnInstructions()/activeThreads()/
     * bucketCount()/exactCount().
     */
    void restore(std::uint64_t instructions, std::uint64_t spawn_instructions,
                 std::uint64_t active_threads,
                 const std::array<std::uint64_t, kNumBuckets> &buckets,
                 const std::array<std::uint64_t, kWarpSize + 1> &exact)
    {
        instructions_ = instructions;
        spawnInstructions_ = spawn_instructions;
        activeThreads_ = active_threads;
        buckets_ = buckets;
        exact_ = exact;
    }

    /** Merge another histogram into this one. */
    void merge(const ActiveThreadHistogram &other);

    void reset();

    /** Human-readable bucket label, e.g. "W1:8". */
    static std::string bucketLabel(int b);

    /** Exact counter equality (determinism regression tests). */
    bool operator==(const ActiveThreadHistogram &) const = default;

  private:
    std::uint64_t instructions_ = 0;
    std::uint64_t spawnInstructions_ = 0;
    std::uint64_t activeThreads_ = 0;
    std::array<std::uint64_t, kNumBuckets> buckets_{};
    std::array<std::uint64_t, kWarpSize + 1> exact_{};
};

/** Simple running mean of a stream of values. */
class RunningMean
{
  public:
    void add(double v)
    {
        sum_ += v;
        ++count_;
    }

    double mean() const { return count_ ? sum_ / static_cast<double>(count_) : 0.0; }
    std::uint64_t count() const { return count_; }
    void reset() { sum_ = 0.0; count_ = 0; }

    void merge(const RunningMean &o)
    {
        sum_ += o.sum_;
        count_ += o.count_;
    }

  private:
    double sum_ = 0.0;
    std::uint64_t count_ = 0;
};

} // namespace drs::stats
