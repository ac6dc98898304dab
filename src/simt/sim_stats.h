#pragma once

/**
 * @file
 * Aggregated statistics of one simulation run, covering everything the
 * paper's figures and tables report.
 */

#include <cstdint>
#include <utility>
#include <vector>

#include "obs/counters.h"
#include "simt/cache.h"
#include "stats/histogram.h"

namespace drs::simt {

/** Statistics produced by one SMX (or aggregated over a GPU). */
struct SimStats
{
    /** Cycles until this unit drained its work. */
    std::uint64_t cycles = 0;
    /** Active-thread histogram over all issued warp instructions. */
    stats::ActiveThreadHistogram histogram;
    /** Rays fully traced. */
    std::uint64_t raysTraced = 0;

    // rdctrl behaviour (Figure 9)
    std::uint64_t rdctrlIssued = 0;        ///< rdctrl instructions issued
    std::uint64_t rdctrlStalledIssues = 0; ///< those that stalled >= 1 cycle
    std::uint64_t rdctrlStallCycles = 0;   ///< total cycles spent stalled

    // Register file traffic (Section 4.4 discussion)
    std::uint64_t rfAccessesNormal = 0;  ///< operand accesses of issued instrs
    std::uint64_t rfAccessesShuffle = 0; ///< accesses made by ray shuffling

    // Ray shuffling (Table 2 discussion)
    std::uint64_t raySwapsCompleted = 0;
    std::uint64_t raySwapCycles = 0; ///< summed duration of swap operations

    // DMK spawn memory (Section 4.4 discussion)
    std::uint64_t spawnBankConflictCycles = 0;

    /**
     * Per-basic-block issue statistics, indexed by block id:
     * {instructions issued, active-thread sum}. Sized by the kernel's
     * block count; empty when unused.
     */
    std::vector<std::pair<std::uint64_t, std::uint64_t>> blockIssue;

    // Cache behaviour
    CacheStats l1Data;
    CacheStats l1Texture;
    CacheStats l2;

    /**
     * Snapshot of the hierarchical observability counters (obs::Counters)
     * of the unit(s) this stats object covers: "smx.*" from the SMX core,
     * "drs.*"/"dmk.*"/"tbc.*" from the attached ray-management hardware,
     * "l1d.*"/"l1t.*"/"l2.*" bridged from the cache models. Purely
     * additive — merging sums by name — and bit-deterministic like every
     * other field (the counter-consistency tests pin both properties).
     */
    obs::CounterSnapshot counters;

    /** Fraction of rdctrl issues that experienced a stall. */
    double rdctrlStallRate() const
    {
        const auto attempts = rdctrlIssued;
        return attempts ? static_cast<double>(rdctrlStalledIssues) / attempts
                        : 0.0;
    }

    /** Mean cycles one ray-swap operation took. */
    double meanSwapCycles() const
    {
        return raySwapsCompleted ? static_cast<double>(raySwapCycles) /
                                       raySwapsCompleted
                                 : 0.0;
    }

    /** Shuffle share of all register file accesses. */
    double shuffleRfFraction() const
    {
        const auto total = rfAccessesNormal + rfAccessesShuffle;
        return total ? static_cast<double>(rfAccessesShuffle) / total : 0.0;
    }

    /** Ray throughput in Mrays/s at @p clock_ghz. */
    double mraysPerSecond(double clock_ghz) const
    {
        if (cycles == 0)
            return 0.0;
        const double seconds = static_cast<double>(cycles) / (clock_ghz * 1e9);
        return static_cast<double>(raysTraced) / seconds / 1e6;
    }

    /** Merge per-SMX stats; cycles take the max (SMXs run in parallel). */
    void merge(const SimStats &o)
    {
        cycles = cycles > o.cycles ? cycles : o.cycles;
        histogram.merge(o.histogram);
        raysTraced += o.raysTraced;
        rdctrlIssued += o.rdctrlIssued;
        rdctrlStalledIssues += o.rdctrlStalledIssues;
        rdctrlStallCycles += o.rdctrlStallCycles;
        rfAccessesNormal += o.rfAccessesNormal;
        rfAccessesShuffle += o.rfAccessesShuffle;
        raySwapsCompleted += o.raySwapsCompleted;
        raySwapCycles += o.raySwapCycles;
        spawnBankConflictCycles += o.spawnBankConflictCycles;
        if (blockIssue.size() < o.blockIssue.size())
            blockIssue.resize(o.blockIssue.size());
        for (std::size_t i = 0; i < o.blockIssue.size(); ++i) {
            blockIssue[i].first += o.blockIssue[i].first;
            blockIssue[i].second += o.blockIssue[i].second;
        }
        l1Data.merge(o.l1Data);
        l1Texture.merge(o.l1Texture);
        l2.merge(o.l2);
        counters.merge(o.counters);
    }

    /**
     * Field-for-field equality. Sweeps promise bit-identical statistics
     * at any --jobs, and observers promise them on or off; the
     * determinism regression tests check exactly this.
     */
    bool operator==(const SimStats &) const = default;
};

} // namespace drs::simt
