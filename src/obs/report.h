#pragma once

/**
 * @file
 * Structured bench reporting: every bench binary can emit a
 * BENCH_<name>.json with machine-checkable per-scene/per-arch metrics
 * next to its human-readable tables (--json <path>). This header owns
 * the document skeleton and its schema validation; converting simulator
 * statistics into rows lives in the harness (harness/report.h), keeping
 * obs free of simulator dependencies.
 *
 * Schema (version 4):
 *   {
 *     "bench": <string>,          // e.g. "fig11_speedup"
 *     "schema_version": 4,
 *     "degraded": <bool>,         // true when any sweep job was
 *                                 // quarantined (results incomplete)
 *     "scale": { ... },           // ExperimentScale knobs
 *     "options": { ... },         // jobs, fleet, ...
 *     "wall_seconds": <number>,   // whole-bench wall clock
 *     "results": [ { ... }, ... ],// one object per table row/cell group
 *     "summary": { ... }          // bench-specific aggregates (may be
 *                                 // empty; every number finite)
 *   }
 * Result rows are open-ended, but when the well-known metric fields are
 * present they must be well-formed (see validateBenchReport). Version 2
 * added the top-level "degraded" flag plus the per-row robustness fields
 * "attempts" (simulation attempts), "fault_seed" (derived per-job fault
 * seed), "failed"/"from_journal" (quarantine/resume markers) and the
 * "fault.*" counters inside "counters". Version 3 adds the optional
 * per-row profiler sections, present only when the run sampled
 * (DRS_SAMPLE): "attribution" (issue-slot buckets x traversal phases,
 * hottest blocks) and "timeline" (windowed frames with slot breakdowns
 * and instantaneous SIMD efficiency). Version 4 adds the optional
 * per-row "trace" section (ring "recorded"/"ring_dropped" counters,
 * present only when the run traced via DRS_TRACE) and, inside the fleet
 * benches' "summary.fleet", the "telemetry" aggregate (worker digest
 * frames, per-job cycles/rays/seconds, summed user/sys CPU time, peak
 * RSS and max heartbeat lag across the fleet).
 */

#include <string>

#include "obs/json.h"

namespace drs::obs {

/** Current report schema version. */
inline constexpr int kBenchSchemaVersion = 4;

/** Builder for one bench report document. */
class BenchReport
{
  public:
    explicit BenchReport(std::string bench_name);

    /** The "scale" object (fill with experiment-scale knobs). */
    Json &scale() { return document_["scale"]; }
    /** The "options" object (jobs, fleet, ...). */
    Json &options() { return document_["options"]; }
    /** Optional bench-specific aggregate object. */
    Json &summary() { return document_["summary"]; }

    /** Append one result row; fill the returned object in place. */
    Json &addResult();

    void setWallSeconds(double seconds);

    /**
     * Mark the report as degraded: at least one sweep job exhausted its
     * retry budget and was quarantined, so the results are incomplete.
     * Consumers must treat degraded reports as non-comparable.
     */
    void setDegraded(bool degraded);

    /** The whole document (validate/serialize). */
    const Json &document() const { return document_; }

    /**
     * Write the document (pretty-printed) to @p path.
     * @return false on I/O failure, reason in @p error when provided.
     */
    bool writeFile(const std::string &path, std::string *error = nullptr) const;

  private:
    Json document_;
};

/**
 * Validate a bench report document against schema version 4.
 *
 * Checks the required top-level fields (including the "degraded" bool)
 * and, for every result row, the well-known metric fields when present:
 * "simd_efficiency" and the cache hit rates must be numbers in [0, 1];
 * "cycles", "rays_traced", "wall_seconds", "mrays_per_s",
 * "speedup_vs_aila", "attempts" and "fault_seed" must be non-negative
 * numbers; "scene" and "arch" must be strings; "failed" and
 * "from_journal" must be booleans. The optional profiler sections are
 * checked structurally: "attribution" needs slots_per_cycle/cycles/
 * total_slots plus a "buckets" object of numeric breakdowns that
 * conserves slots (bucket totals sum to total_slots = slots_per_cycle
 * x cycles), "timeline" needs interval/base_interval plus a "frames"
 * array whose windows are well-ordered with numeric counters and a
 * [0, 1] simd_efficiency, a row "trace" section needs non-negative
 * recorded/ring_dropped counters. Every number under "summary" must be
 * finite, and a "summary.fleet" object must carry the supervision
 * counters (respawned <= spawned, a boolean "cancelled") plus a
 * complete "telemetry" aggregate (jobs_reported <= frames).
 * Older schema versions are rejected with a clear version error.
 *
 * @return empty string when valid, else a human-readable reason.
 */
std::string validateBenchReport(const Json &document);

} // namespace drs::obs
