#pragma once

/**
 * @file
 * Deterministic, seed-driven fault injection for the simulator.
 *
 * The paper's architecture keeps a ray's live state resident in the
 * register file and moves it between rows in the background; silent
 * corruption of that in-flight state — or a stalled memory response —
 * would be invisible without injected faults. This library provides:
 *
 *  - FaultConfig / FaultInjector: seeded Bernoulli fault sources for
 *    transient bit flips at DRS swap boundaries, cache tag corruption,
 *    delayed/dropped DRAM responses and allocation failures. One
 *    injector per simulated unit (SMX or the shared L2/DRAM side),
 *    seeded from (master seed, unit id), so the injected fault sequence
 *    is a pure function of the seed — independent of host thread count
 *    or scheduling (each simulation runs on one host thread, and the
 *    SMXs touch the shared side as they issue while the engine steps
 *    them in index order; see DESIGN.md, "Parallel execution model").
 *  - Watchdog: forward-progress monitor for the cycle engines. When no
 *    unit makes progress (no ray completes, no warp retires) within a
 *    cycle budget, the engine aborts with a WatchdogTimeout carrying a
 *    diagnostic dump of every SMX's IPDOM stacks, row ownership and
 *    pending memory operations.
 *
 * Pure-observer contract: with the config disabled (seed == 0) no
 * injector is created, no hook fires and no RNG is advanced — SimStats
 * and reports are bit-identical to a build without this subsystem. With
 * a non-zero seed, the same seed always produces the same faults and
 * therefore the same SimStats.
 */

#include <cstdint>
#include <stdexcept>
#include <string>

#include "geom/rng.h"

namespace drs::fault {

/**
 * Mix a master seed with salt values into a well-distributed derived
 * seed (splitmix64 finalizer). Used to derive per-unit and per-job
 * fault seeds; never returns 0 (0 means "disabled") unless the inputs
 * conspire, in which case the caller keeps fault injection off.
 */
std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t salt_a,
                      std::uint64_t salt_b = 0);

/** Fault-injection configuration. seed == 0 disables everything. */
struct FaultConfig
{
    /** Master seed; 0 = fault injection off (pure observer). */
    std::uint64_t seed = 0;

    /** Per completed DRS swap/move: flip one bit of the moved ray. */
    double swapBitFlipRate = 0.02;
    /** Per cache access: corrupt one random valid line's tag. */
    double cacheTagFlipRate = 1e-4;
    /** Per shared-side (L2/DRAM) line access: delayed response. */
    double dramDelayRate = 1e-3;
    /** Maximum extra cycles of a delayed DRAM response. */
    std::uint32_t dramDelayCycles = 600;
    /** Per shared-side line access: dropped response (re-request). */
    double dramDropRate = 1e-4;
    /** Penalty cycles a dropped response costs (timeout + re-request). */
    std::uint32_t dramDropPenaltyCycles = 4000;
    /** Per sweep-job attempt: simulated allocation failure. */
    double allocFailRate = 0.0;

    bool enabled() const { return seed != 0; }

    /**
     * Defaults overridden by DRS_FAULT_SEED (decimal or 0x-hex; 0 or
     * unset = disabled; malformed values warn on stderr and are
     * ignored, like every other DRS_* knob).
     */
    static FaultConfig fromEnvironment();
};

/**
 * Watchdog cycle budget from DRS_WATCHDOG (positive integer; 0 or
 * unset = disabled; malformed values warn and are ignored).
 */
std::uint64_t watchdogCyclesFromEnvironment();

/** Default watchdog budget used when fault injection auto-enables it. */
inline constexpr std::uint64_t kDefaultWatchdogCycles = 5'000'000;

/** Tallies of injected faults (exported as "fault.*" counters). */
struct FaultCounters
{
    std::uint64_t swapBitFlips = 0;
    std::uint64_t cacheTagFlips = 0;
    std::uint64_t dramDelayed = 0;
    std::uint64_t dramDropped = 0;
    std::uint64_t allocFailures = 0;
};

/**
 * One unit's deterministic fault source. Not thread-safe: owned and
 * advanced by exactly one simulated unit of one simulation, which runs
 * on one host thread.
 */
class FaultInjector
{
  public:
    /**
     * @param config fault rates + master seed
     * @param unit_id stable unit identity (SMX index; the shared
     *        memory side uses a reserved id) mixed into the seed so
     *        units draw independent fault sequences
     */
    FaultInjector(const FaultConfig &config, std::uint64_t unit_id);

    bool enabled() const { return config_.enabled(); }
    const FaultConfig &config() const { return config_; }

    /** Roll for a bit flip in a ray moved at a DRS swap boundary. */
    bool rollSwapBitFlip();

    /** Roll for a corrupted cache tag on this access. */
    bool rollCacheTagFlip();

    /**
     * Roll for a delayed or dropped DRAM response on one shared-side
     * line access. @return extra latency cycles (0 = fault-free).
     */
    std::uint32_t rollDramFault();

    /** Roll for a simulated allocation failure (sweep-job granularity). */
    bool rollAllocFailure();

    /** Uniform integer in [0, bound) from the injector's stream. */
    std::uint32_t pick(std::uint32_t bound) { return rng_.nextUInt(bound); }

    const FaultCounters &counters() const { return counters_; }

  private:
    bool roll(double rate);

    FaultConfig config_;
    geom::Pcg32 rng_;
    FaultCounters counters_;
};

/**
 * Thrown by the engines when the forward-progress watchdog fires. The
 * message includes the diagnostic dump (IPDOM stacks, row ownership,
 * pending memory operations of every SMX), also available separately
 * via dump().
 */
class WatchdogTimeout : public std::runtime_error
{
  public:
    WatchdogTimeout(std::uint64_t cycle, std::uint64_t budget_cycles,
                    std::string dump);

    /** Cycle at which the watchdog fired. */
    std::uint64_t cycle() const { return cycle_; }
    /** The configured no-progress budget. */
    std::uint64_t budgetCycles() const { return budget_; }
    /** Engine state dump captured when the watchdog fired. */
    const std::string &dump() const { return dump_; }

  private:
    std::uint64_t cycle_ = 0;
    std::uint64_t budget_ = 0;
    std::string dump_;
};

/**
 * Forward-progress monitor: observe(cycle, progress) with a
 * monotonically non-decreasing progress measure (rays completed + units
 * retired); returns true when progress has not advanced for more than
 * the budget. budget_cycles == 0 disables the watchdog.
 */
class Watchdog
{
  public:
    explicit Watchdog(std::uint64_t budget_cycles) : budget_(budget_cycles) {}

    bool enabled() const { return budget_ != 0; }
    std::uint64_t budgetCycles() const { return budget_; }

    /** @return true when the no-progress budget is exhausted. */
    bool observe(std::uint64_t cycle, std::uint64_t progress)
    {
        if (budget_ == 0)
            return false;
        if (first_ || progress != lastProgress_) {
            first_ = false;
            lastProgress_ = progress;
            lastProgressCycle_ = cycle;
            return false;
        }
        return cycle - lastProgressCycle_ > budget_;
    }

    /** Cycle of the last observed progress change. */
    std::uint64_t lastProgressCycle() const { return lastProgressCycle_; }

  private:
    std::uint64_t budget_ = 0;
    std::uint64_t lastProgress_ = 0;
    std::uint64_t lastProgressCycle_ = 0;
    bool first_ = true;
};

} // namespace drs::fault
