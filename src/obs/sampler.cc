#include "obs/sampler.h"

#include <limits>
#include <map>
#include <stdexcept>

#include "exec/env.h"
#include "obs/json.h"

namespace drs::obs {

SampleConfig
SampleConfig::fromEnvironment()
{
    SampleConfig config;
    config.enabled = exec::envKnob("DRS_SAMPLE", 1,
                                   std::numeric_limits<std::uint64_t>::max(),
                                   config.interval);
    exec::envKnob("DRS_SAMPLE_CAPACITY", 1, kMaxCapacity, config.capacity);
    return config;
}

void
TimeSampler::enable(std::uint64_t interval, std::size_t capacity,
                    const IssueAttribution *attribution)
{
    if (interval == 0)
        throw std::invalid_argument(
            "TimeSampler::enable: interval must be positive");
    interval_ = interval;
    // Pairwise coalescing needs an even budget of at least one pair.
    capacity_ = capacity < 2 ? 2 : capacity + (capacity & 1);
    attribution_ = attribution;
    frames_.reserve(capacity_);
}

SampleFrame
TimeSampler::makeFrame(std::uint64_t begin, std::uint64_t end,
                       const Cumulative &now) const
{
    SampleFrame frame;
    frame.begin = begin;
    frame.end = end;
    frame.instructions = now.instructions - windowStart_.instructions;
    frame.activeThreads = now.activeThreads - windowStart_.activeThreads;
    frame.raysCompleted = now.raysCompleted - windowStart_.raysCompleted;
    for (int b = 0; b < kNumSlotBuckets; ++b)
        frame.slots[b] = now.slots[b] - windowStart_.slots[b];
    return frame;
}

void
TimeSampler::closeWindow()
{
    Cumulative now = latest_;
    if (attribution_)
        now.slots = attribution_->bucketTotals();
    frames_.push_back(makeFrame(nextBegin_, nextBegin_ + cyclesInWindow_,
                                now));
    nextBegin_ += cyclesInWindow_;
    cyclesInWindow_ = 0;
    windowStart_ = now;
    if (frames_.size() >= capacity_)
        coalesce();
}

void
TimeSampler::coalesce()
{
    // Merge adjacent pairs and double the window: the timeline keeps
    // covering the whole run at half the resolution. Deterministic —
    // depends only on the cycle count, never on wall-clock or threads.
    std::size_t out = 0;
    for (std::size_t i = 0; i + 1 < frames_.size(); i += 2) {
        SampleFrame merged = frames_[i];
        const SampleFrame &right = frames_[i + 1];
        merged.end = right.end;
        merged.instructions += right.instructions;
        merged.activeThreads += right.activeThreads;
        merged.raysCompleted += right.raysCompleted;
        for (int b = 0; b < kNumSlotBuckets; ++b)
            merged.slots[b] += right.slots[b];
        frames_[out++] = merged;
    }
    frames_.resize(out);
    interval_ *= 2;
}

std::vector<SampleFrame>
TimeSampler::frames() const
{
    std::vector<SampleFrame> out = frames_;
    if (cyclesInWindow_ != 0) {
        Cumulative now = latest_;
        if (attribution_)
            now.slots = attribution_->bucketTotals();
        out.push_back(makeFrame(nextBegin_, nextBegin_ + cyclesInWindow_,
                                now));
    }
    return out;
}

SamplerCollector::SamplerCollector(int num_smx, const SampleConfig &config)
    : config_(config)
{
    if (num_smx <= 0)
        throw std::invalid_argument(
            "SamplerCollector: num_smx must be positive");
    if (!config.enabled || config.interval == 0)
        throw std::invalid_argument(
            "SamplerCollector: sampling must be enabled with an interval");
    perSmx_.reserve(static_cast<std::size_t>(num_smx));
    for (int i = 0; i < num_smx; ++i)
        perSmx_.push_back(std::make_unique<TimeSampler>());
}

std::vector<SampleFrame>
SamplerCollector::mergedFrames() const
{
    // Window sizes only ever double from the shared base interval, so
    // every SMX's windows nest inside the coarsest one; align on that.
    std::uint64_t target = config_.interval;
    for (const auto &sampler : perSmx_)
        if (sampler->interval() > target)
            target = sampler->interval();

    std::map<std::uint64_t, SampleFrame> merged;
    for (const auto &sampler : perSmx_) {
        for (const SampleFrame &frame : sampler->frames()) {
            const std::uint64_t slot = frame.begin / target;
            SampleFrame &into = merged[slot];
            if (into.end == 0) { // fresh slot
                into.begin = slot * target;
                into.end = into.begin;
            }
            if (frame.end > into.end)
                into.end = frame.end;
            into.instructions += frame.instructions;
            into.activeThreads += frame.activeThreads;
            into.raysCompleted += frame.raysCompleted;
            for (int b = 0; b < kNumSlotBuckets; ++b)
                into.slots[b] += frame.slots[b];
        }
    }

    std::vector<SampleFrame> out;
    out.reserve(merged.size());
    for (auto &[slot, frame] : merged)
        out.push_back(frame);
    return out;
}

Json
SamplerCollector::toJson(int simd_lanes) const
{
    std::uint64_t target = config_.interval;
    for (const auto &sampler : perSmx_)
        if (sampler->interval() > target)
            target = sampler->interval();

    Json section = Json::object();
    section["interval"] = target;
    section["base_interval"] = config_.interval;
    Json &frames = section["frames"];
    frames = Json::array();
    for (const SampleFrame &frame : mergedFrames()) {
        Json &row = frames.push(Json::object());
        row["begin"] = frame.begin;
        row["end"] = frame.end;
        row["instructions"] = frame.instructions;
        row["active_threads"] = frame.activeThreads;
        row["rays_completed"] = frame.raysCompleted;
        const double issued_lanes =
            static_cast<double>(frame.instructions) * simd_lanes;
        row["simd_efficiency"] =
            issued_lanes > 0.0
                ? static_cast<double>(frame.activeThreads) / issued_lanes
                : 0.0;
        Json &slots = row["slots"];
        slots = Json::object();
        for (int b = 0; b < kNumSlotBuckets; ++b)
            slots[slotBucketName(static_cast<SlotBucket>(b))] =
                frame.slots[b];
    }
    return section;
}

} // namespace drs::obs
