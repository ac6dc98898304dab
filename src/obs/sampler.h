#pragma once

/**
 * @file
 * Windowed time-series sampler: how a run's behaviour evolves over
 * simulated time, not just its end-of-run aggregates.
 *
 * Each SMX owns a TimeSampler that snapshots cumulative progress
 * (instructions, active SIMD threads, completed rays, issue-slot
 * attribution) once per cycle and closes a frame of deltas every
 * `interval` cycles. Frames live in a fixed-capacity timeline: when it
 * fills, adjacent frames coalesce pairwise and the interval doubles —
 * so an arbitrarily long run always fits in bounded memory with a
 * uniform window size, and the result is a pure function of the
 * simulated cycles (deterministic at any --jobs/--smx-threads).
 *
 * Enabled with DRS_SAMPLE=<cycles> (or RunConfig::sample); exported as
 * the `timeline` section of bench JSON (schema v3+) and as Chrome
 * trace_event counter tracks ("ph":"C") next to the event spans.
 */

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "obs/attribution.h"

namespace drs::obs {

class Json;

/** DRS_SAMPLE / RunConfig sampling policy. */
struct SampleConfig
{
    /** Largest per-SMX frame budget: 2^20 frames, 96 MiB. */
    static constexpr std::size_t kMaxCapacity = std::size_t{1} << 20;

    bool enabled = false;
    /** Cycles per timeline window (before any coalescing). */
    std::uint64_t interval = 0;
    /** Maximum frames retained per SMX (rounded up to even, >= 2). */
    std::size_t capacity = 512;

    /**
     * DRS_SAMPLE=<cycles> enables sampling at that window size;
     * DRS_SAMPLE_CAPACITY overrides the frame budget (at most
     * kMaxCapacity). Malformed values warn and are ignored
     * (exec::envKnob).
     */
    static SampleConfig fromEnvironment();
};

/** One closed window of deltas over [begin, end) core cycles. */
struct SampleFrame
{
    std::uint64_t begin = 0;
    std::uint64_t end = 0;
    std::uint64_t instructions = 0;
    std::uint64_t activeThreads = 0;
    std::uint64_t raysCompleted = 0;
    std::array<std::uint64_t, kNumSlotBuckets> slots{};
};

/**
 * Per-SMX timeline. The SMX calls tick() once per cycle with its
 * cumulative counters; everything else happens at window boundaries.
 */
class TimeSampler
{
  public:
    /**
     * Arm the sampler. @p attribution (optional) is the same SMX's
     * slot ledger; its bucket totals are snapshotted per window.
     */
    void enable(std::uint64_t interval, std::size_t capacity,
                const IssueAttribution *attribution);

    bool enabled() const { return interval_ != 0; }

    /** Current window size (doubles when the timeline coalesces). */
    std::uint64_t interval() const { return interval_; }

    /** Record one cycle's cumulative progress. */
    void tick(std::uint64_t instructions, std::uint64_t active_threads,
              std::uint64_t rays_completed)
    {
        latest_.instructions = instructions;
        latest_.activeThreads = active_threads;
        latest_.raysCompleted = rays_completed;
        if (++cyclesInWindow_ == interval_)
            closeWindow();
    }

    /**
     * Closed frames plus the in-progress partial window (if any cycles
     * accumulated since the last boundary).
     */
    std::vector<SampleFrame> frames() const;

  private:
    struct Cumulative
    {
        std::uint64_t instructions = 0;
        std::uint64_t activeThreads = 0;
        std::uint64_t raysCompleted = 0;
        std::array<std::uint64_t, kNumSlotBuckets> slots{};
    };

    SampleFrame makeFrame(std::uint64_t begin, std::uint64_t end,
                          const Cumulative &now) const;
    void closeWindow();
    void coalesce();

    std::vector<SampleFrame> frames_;
    Cumulative windowStart_;
    Cumulative latest_;
    const IssueAttribution *attribution_ = nullptr;
    std::uint64_t interval_ = 0;
    std::uint64_t cyclesInWindow_ = 0;
    std::uint64_t nextBegin_ = 0;
    std::size_t capacity_ = 0;
};

/**
 * Owns one TimeSampler per SMX for a run (the sampler sibling of
 * TraceCollector / AttributionCollector). mergedFrames() aligns the
 * per-SMX timelines on a common window size — intervals only ever
 * double from the same base, so windows always nest — and sums them
 * into one whole-GPU timeline.
 */
class SamplerCollector
{
  public:
    SamplerCollector(int num_smx, const SampleConfig &config);

    const SampleConfig &config() const { return config_; }
    int smxCount() const { return static_cast<int>(perSmx_.size()); }
    TimeSampler &smx(int index) { return *perSmx_.at(index); }
    const TimeSampler &smx(int index) const { return *perSmx_.at(index); }

    /** Whole-GPU timeline: per-SMX frames aligned and summed. */
    std::vector<SampleFrame> mergedFrames() const;

    /**
     * "timeline" section of a bench-report row (schema v3+): the merged
     * frames with per-window instantaneous SIMD efficiency
     * (activeThreads / (instructions x simd_lanes)).
     */
    Json toJson(int simd_lanes) const;

  private:
    std::vector<std::unique_ptr<TimeSampler>> perSmx_;
    SampleConfig config_;
};

} // namespace drs::obs
