#pragma once

/**
 * @file
 * The architecture plugin registry.
 *
 * One ArchPlugin bundles everything the rest of the system needs to run,
 * verify and fuzz an architecture:
 *
 *  - the executor factory (run(): kernel IR + control unit/SMX executor
 *    wiring, producing SimStats for one ray batch);
 *  - the reference-interpreter inputs (checkInputs()) so DRS_CHECK's
 *    lockstep cross-check works without knowing the architecture;
 *  - the counter namespace its observability counters live under;
 *  - a configuration randomizer for the fuzzer (randomizeConfig()).
 *
 * Plugins register under a unique name; every consumer — runBatch, the
 * sweep runner, the benches, tests/test_registry.cc's conformance suite,
 * tools/fuzz_sim, the fault injectors and the cycle-attribution profiler
 * (both plumbed through RunConfig) — resolves architectures through the
 * registry, so a registered plugin is picked up everywhere at once. The
 * built-in lineup (aila, drs, dmk, tbc, sort, cutcode, ser, pathpred)
 * registers on first registry use; external code can add() more at
 * runtime (or via a static ArchRegistrar in a TU the binary
 * references). See DESIGN.md section 10 for the full contract a plugin
 * must satisfy.
 */

#include <memory>
#include <mutex>
#include <vector>

#include "check/check.h"
#include "check/reference.h"
#include "geom/rng.h"
#include "harness/harness.h"

namespace drs::harness {

/**
 * The pure observers runBatch scopes to one batch (cycle trace ring,
 * issue-slot attribution, timeline sampler); any pointer may be null.
 * Plugins forward these into their engine options — observation must
 * never alter SimStats (the pure-observer contract).
 */
struct ArchObservers
{
    obs::TraceCollector *trace = nullptr;
    obs::AttributionCollector *attribution = nullptr;
    obs::SamplerCollector *sampler = nullptr;
};

/** One architecture: executor factory + verification + fuzzing hooks. */
class ArchPlugin
{
  public:
    virtual ~ArchPlugin() = default;

    /** Unique registry name; also the bench "arch" column/JSON field. */
    virtual std::string name() const = 0;

    /** One-line description for survey output and --list style UIs. */
    virtual std::string description() const = 0;

    /**
     * Namespace prefix of this architecture's observability counters
     * ("smx", "drs", "reorder", ...): after any run, SimStats::counters
     * must contain at least one "<prefix>." entry. The conformance suite
     * enforces this, so an architecture can never silently lose its
     * counter wiring.
     */
    virtual std::string counterNamespace() const = 0;

    /**
     * False when the SMX executor has no warp-level tracing (TBC's
     * block executor): runBatch then skips building a trace collector.
     */
    virtual bool supportsWarpTrace() const { return true; }

    /**
     * Trace one ray batch. Implementations build their kernel/controller
     * per SMX, run their engine, and honor the RunConfig contract:
     * hitsOut (per-ray hits at the ray's batch index), perSmxStats,
     * fault/watchdog/cancel plumbing, and the observers. @p checker is
     * non-null under DRS_CHECK and must be threaded into the engine.
     */
    virtual simt::SimStats run(const render::PathTracer &tracer,
                               std::span<const geom::Ray> rays,
                               const RunConfig &config,
                               const ArchObservers &observers,
                               const check::Checker *checker) const = 0;

    /**
     * How the lockstep reference interpreter should re-execute a batch
     * this plugin ran: kernel flavour, traversal semantics, cost model,
     * whether per-block issue stats exist. Must match run() exactly or
     * DRS_CHECK runs will (correctly) fail.
     */
    virtual check::BatchCheckInputs
    checkInputs(const RunConfig &config) const = 0;

    /**
     * Fuzzer hook: randomize this architecture's slice of @p config from
     * @p rng (tools/fuzz_sim). Must stay a pure function of the RNG
     * stream so fuzz cases replay from their seed alone. Default: the
     * architecture has no tunables.
     */
    virtual void randomizeConfig(geom::Pcg32 &rng, RunConfig &config) const
    {
        (void)rng;
        (void)config;
    }
};

/**
 * The process-wide architecture registry. Thread-safe; the built-in
 * lineup registers on first access.
 */
class ArchRegistry
{
  public:
    /** The singleton (builtins registered on first call). */
    static ArchRegistry &instance();

    /**
     * Register @p plugin. @return the handle for it.
     * @throws std::invalid_argument on an empty or duplicate name
     */
    Arch add(std::unique_ptr<const ArchPlugin> plugin);

    /** Plugin registered under @p arch, or nullptr. */
    const ArchPlugin *find(const Arch &arch) const;

    /**
     * Plugin registered under @p arch.
     * @throws std::invalid_argument naming the known architectures
     */
    const ArchPlugin &get(const Arch &arch) const;

    /** Handles of every registered architecture, in registration order. */
    std::vector<Arch> archs() const;

    /** Every registered plugin, in registration order. */
    std::vector<const ArchPlugin *> plugins() const;

  private:
    ArchRegistry();

    mutable std::mutex mutex_;
    std::vector<std::unique_ptr<const ArchPlugin>> plugins_;
};

/**
 * Static self-registration helper: a translation unit that defines
 *
 *     namespace { const ArchRegistrar registrar{makeMyPlugin()}; }
 *
 * contributes its architecture to the registry when the TU is linked
 * into the binary (reference a symbol of the TU from linked code when
 * archiving into a static library, or the linker may drop the object).
 */
class ArchRegistrar
{
  public:
    explicit ArchRegistrar(std::unique_ptr<const ArchPlugin> plugin)
        : arch_(ArchRegistry::instance().add(std::move(plugin)))
    {
    }

    const Arch &arch() const { return arch_; }

  private:
    Arch arch_;
};

} // namespace drs::harness
