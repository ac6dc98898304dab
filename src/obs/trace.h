#pragma once

/**
 * @file
 * Cycle-level event tracing: a fixed-capacity per-SMX ring buffer of
 * simulation events (block issue spans, rdctrl stalls, ray swaps, spawn
 * overhead) and a writer producing Chrome trace_event JSON, loadable in
 * Perfetto (https://ui.perfetto.dev) or chrome://tracing. One trace
 * timestamp unit equals one simulated core cycle.
 *
 * Tracing is pure observation: the simulator's behaviour and SimStats are
 * bit-identical with the tracer on or off (a regression test pins this).
 * When the ring wraps, the oldest events are dropped — the tail of a run
 * is usually the interesting part — and the drop count is recorded in the
 * trace metadata.
 */

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace drs::obs {

class SamplerCollector;

/** What a trace event describes. */
enum class TraceEventKind : std::uint8_t
{
    Block = 0,         ///< one basic block issued by a warp (aux = block id)
    RdctrlStall = 1,   ///< a warp sat stalled on rdctrl
    RaySwap = 2,       ///< one completed shuffle operation (move/exchange)
};

/** Human-readable event name ("block", "rdctrl_stall", ...). */
const char *traceEventKindName(TraceEventKind kind);

/** One recorded event: a [begin, end] cycle span on a warp (or unit). */
struct TraceEvent
{
    std::uint64_t begin = 0;
    std::uint64_t end = 0;
    std::int32_t warp = -1; ///< warp id; -1 = SMX-level unit (swap engine)
    std::int32_t aux = 0;   ///< kind-specific payload (block id, ...)
    TraceEventKind kind = TraceEventKind::Block;
};

/**
 * Ring-buffered event recorder of one SMX. Disabled (capacity 0) it costs
 * one branch per would-be record; enabled, a record is a bounds-masked
 * store. Recording never allocates after enable().
 */
class Tracer
{
  public:
    Tracer() = default;

    /** Arm the tracer with room for @p capacity events (> 0). */
    void enable(std::size_t capacity);

    bool enabled() const { return capacity_ != 0; }

    void record(TraceEventKind kind, int warp, std::uint64_t begin,
                std::uint64_t end, int aux = 0)
    {
        if (capacity_ == 0)
            return;
        ring_[next_ % capacity_] = {begin, end, warp, aux, kind};
        ++next_;
    }

    /** Retained events, oldest first. */
    std::vector<TraceEvent> events() const;

    /** Events recorded in total (including overwritten ones). */
    std::uint64_t recorded() const { return next_; }

    /** Events lost to ring wrap-around. */
    std::uint64_t dropped() const
    {
        return next_ > capacity_ ? next_ - capacity_ : 0;
    }

    /**
     * Block-id → name table used by the trace writer to label Block
     * events (taken from the kernel's Program).
     */
    void setBlockNames(std::vector<std::string> names)
    {
        blockNames_ = std::move(names);
    }
    const std::vector<std::string> &blockNames() const { return blockNames_; }

  private:
    std::size_t capacity_ = 0;
    std::size_t next_ = 0;
    std::vector<TraceEvent> ring_;
    std::vector<std::string> blockNames_;
};

/**
 * Tracing configuration, env-selectable: DRS_TRACE=<path> enables tracing
 * and names the output file; DRS_TRACE_CAPACITY=<n> bounds the per-SMX
 * ring (default 65536 events, at most kMaxCapacity). Malformed values
 * warn on stderr and are ignored (exec::envKnob).
 */
struct TraceConfig
{
    /** Largest per-SMX ring: 2^20 events, 32 MiB. */
    static constexpr std::size_t kMaxCapacity = std::size_t{1} << 20;

    bool enabled = false;
    std::string path;
    std::size_t capacity = 65536;

    /** Read DRS_TRACE / DRS_TRACE_CAPACITY. */
    static TraceConfig fromEnvironment();
};

/**
 * Per-SMX tracers of one simulated GPU run plus the Chrome trace_event
 * writer. The GPU driver hands tracer i to SMX i; after the run the
 * collector serializes everything into one JSON document (pid = SMX
 * index, tid = warp id, ts/dur in cycles).
 */
class TraceCollector
{
  public:
    /** @param num_smx SMX count @param capacity per-SMX ring capacity */
    TraceCollector(int num_smx, std::size_t capacity);

    Tracer &smx(int index) { return tracers_.at(static_cast<std::size_t>(index)); }
    const Tracer &smx(int index) const
    {
        return tracers_.at(static_cast<std::size_t>(index));
    }
    int smxCount() const { return static_cast<int>(tracers_.size()); }

    /** Total events retained across all SMXs. */
    std::size_t eventCount() const;

    /**
     * Serialize as Chrome trace_event JSON: process/thread metadata
     * ("ph":"M") labelling SMX and warp tracks, the event spans, a
     * ring-drop counter track per SMX, and — when @p sampler is given —
     * "ph":"C" counter tracks (instantaneous SIMD efficiency, issue-slot
     * breakdown per timeline window) so Perfetto plots efficiency over
     * time next to the spans.
     */
    void writeChromeTrace(std::ostream &out,
                          const SamplerCollector *sampler = nullptr) const;

    /**
     * Write the trace to @p path. @return false on I/O failure, with the
     * reason in @p error when provided.
     */
    bool writeFile(const std::string &path, std::string *error = nullptr,
                   const SamplerCollector *sampler = nullptr) const;

  private:
    std::vector<Tracer> tracers_;
};

} // namespace drs::obs
