#include "obs/trace.h"

#include <fstream>
#include <ostream>
#include <set>

#include "exec/env.h"
#include "obs/attribution.h"
#include "obs/json.h"
#include "obs/sampler.h"

namespace drs::obs {

const char *
traceEventKindName(TraceEventKind kind)
{
    switch (kind) {
      case TraceEventKind::Block: return "block";
      case TraceEventKind::RdctrlStall: return "rdctrl_stall";
      case TraceEventKind::RaySwap: return "ray_swap";
      case TraceEventKind::SpawnOverhead: return "spawn_overhead";
    }
    return "unknown";
}

void
Tracer::enable(std::size_t capacity)
{
    capacity_ = capacity;
    next_ = 0;
    ring_.assign(capacity, TraceEvent{});
}

std::vector<TraceEvent>
Tracer::events() const
{
    std::vector<TraceEvent> out;
    if (capacity_ == 0 || next_ == 0)
        return out;
    const std::size_t count = next_ < capacity_ ? next_ : capacity_;
    out.reserve(count);
    // Oldest retained event first: when the ring wrapped, that is the
    // slot the next record would overwrite.
    const std::size_t start = next_ < capacity_ ? 0 : next_ % capacity_;
    for (std::size_t i = 0; i < count; ++i)
        out.push_back(ring_[(start + i) % capacity_]);
    return out;
}

TraceConfig
TraceConfig::fromEnvironment()
{
    TraceConfig config;
    config.enabled = exec::envKnob("DRS_TRACE", config.path);
    exec::envKnob("DRS_TRACE_CAPACITY", 1, kMaxCapacity, config.capacity);
    return config;
}

TraceCollector::TraceCollector(int num_smx, std::size_t capacity)
    : tracers_(static_cast<std::size_t>(num_smx))
{
    for (Tracer &tracer : tracers_)
        tracer.enable(capacity);
}

std::size_t
TraceCollector::eventCount() const
{
    std::size_t n = 0;
    for (const Tracer &tracer : tracers_) {
        const std::uint64_t recorded = tracer.recorded();
        n += static_cast<std::size_t>(recorded - tracer.dropped());
    }
    return n;
}

void
TraceCollector::writeChromeTrace(std::ostream &out,
                                 const SamplerCollector *sampler) const
{
    // Streamed by hand: a full Json tree of every event would dwarf the
    // simulation's own memory use at large ring capacities.
    out << "{\"traceEvents\":[";
    bool first = true;
    std::uint64_t dropped_total = 0;
    for (std::size_t smx = 0; smx < tracers_.size(); ++smx) {
        const Tracer &tracer = tracers_[smx];
        dropped_total += tracer.dropped();

        if (!first)
            out << ",";
        first = false;
        out << "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":" << smx
            << ",\"args\":{\"name\":\"SMX " << smx << "\"}}";

        const auto &names = tracer.blockNames();
        const std::vector<TraceEvent> events = tracer.events();

        // Name each track (tid) once so Perfetto shows "warp 3" / "swap
        // engine" instead of bare thread ids.
        std::set<int> tids;
        std::uint64_t last_ts = 0;
        for (const TraceEvent &event : events) {
            tids.insert(event.warp < 0 ? 9999 : event.warp);
            if (event.end > last_ts)
                last_ts = event.end;
        }
        for (int tid : tids) {
            out << ",{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":" << smx
                << ",\"tid\":" << tid << ",\"args\":{\"name\":\"";
            if (tid == 9999)
                out << "swap engine";
            else
                out << "warp " << tid;
            out << "\"}}";
        }

        for (const TraceEvent &event : events) {
            out << ",{\"ph\":\"X\",\"pid\":" << smx << ",\"tid\":"
                << (event.warp < 0 ? 9999 : event.warp) << ",\"ts\":"
                << event.begin << ",\"dur\":"
                << (event.end > event.begin ? event.end - event.begin : 1)
                << ",\"name\":\"";
            if (event.kind == TraceEventKind::Block &&
                static_cast<std::size_t>(event.aux) < names.size())
                out << jsonEscape(names[static_cast<std::size_t>(event.aux)]);
            else
                out << traceEventKindName(event.kind);
            out << "\",\"cat\":\""
                << (event.kind == TraceEventKind::Block ? "warp" : "rayhw")
                << "\",\"args\":{\"aux\":" << event.aux << "}}";
        }

        // Final ring-drop count as a counter sample so lossy rings are
        // visible in the UI, not only in the footer metadata.
        out << ",{\"ph\":\"C\",\"pid\":" << smx
            << ",\"ts\":" << last_ts << ",\"name\":\"ring_dropped\","
            << "\"args\":{\"dropped\":" << tracer.dropped() << "}}";
    }

    if (sampler != nullptr) {
        // Timeline counter tracks under a dedicated pid: issue-slot
        // breakdown plus raw work counters per window, merged across
        // SMXs. Frame order gives monotonically increasing ts.
        const std::size_t pid = tracers_.size();
        if (!first)
            out << ",";
        first = false;
        out << "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":" << pid
            << ",\"args\":{\"name\":\"timeline\"}}";
        for (const SampleFrame &frame : sampler->mergedFrames()) {
            out << ",{\"ph\":\"C\",\"pid\":" << pid << ",\"ts\":"
                << frame.begin << ",\"name\":\"issue_slots\",\"args\":{";
            for (int b = 0; b < kNumSlotBuckets; ++b) {
                if (b != 0)
                    out << ",";
                out << "\"" << slotBucketName(static_cast<SlotBucket>(b))
                    << "\":" << frame.slots[static_cast<std::size_t>(b)];
            }
            out << "}},{\"ph\":\"C\",\"pid\":" << pid << ",\"ts\":"
                << frame.begin << ",\"name\":\"work\",\"args\":{"
                << "\"instructions\":" << frame.instructions
                << ",\"active_threads\":" << frame.activeThreads
                << ",\"rays_completed\":" << frame.raysCompleted << "}}";
        }
    }

    out << "],\"displayTimeUnit\":\"ns\",\"otherData\":{"
        << "\"timestamp_unit\":\"core cycle\",\"dropped_events\":"
        << dropped_total << "}}";
}

bool
TraceCollector::writeFile(const std::string &path, std::string *error,
                          const SamplerCollector *sampler) const
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) {
        if (error)
            *error = "cannot open " + path + " for writing";
        return false;
    }
    writeChromeTrace(out, sampler);
    out.flush();
    if (!out) {
        if (error)
            *error = "write to " + path + " failed";
        return false;
    }
    return true;
}

} // namespace drs::obs
