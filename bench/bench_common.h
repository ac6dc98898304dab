#pragma once

/**
 * @file
 * Shared plumbing for the paper-reproduction bench binaries: experiment
 * scale from the environment, command-line options for the parallel
 * sweep runner, and wall-clock timing. Every bench prints the rows or
 * series of one paper table or figure (see DESIGN.md section 4),
 * describing its experiment as a SweepRunner grid so independent
 * simulations execute concurrently and scenes are prepared once.
 */

#include <algorithm>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <memory>
#include <mutex>
#include <string>

#include "exec/env.h"
#include "exec/parallel_for.h"
#include "fleet/fleet.h"
#include "harness/harness.h"
#include "harness/report.h"
#include "harness/sweep.h"
#include "obs/report.h"
#include "stats/table.h"

namespace drs::bench {

/** Command-line options shared by every bench binary. */
struct Options
{
    /** Concurrent simulations (--jobs N / DRS_JOBS). */
    int jobs = 1;
    /** Structured report destination (--json PATH); empty = no report. */
    std::string jsonPath;
    /** Completed-job journal for crash recovery (--journal PATH). */
    std::string journalPath;
    /** Replay the journal instead of re-running finished jobs. */
    bool resume = false;
    /**
     * Worker processes for the sweep (--fleet N / DRS_FLEET); 0 = run
     * in-process. With a fleet the jobs are sharded across fork()ed
     * workers with crash isolation and supervision (src/fleet), and the
     * merged results are bit-identical to the in-process sweep.
     */
    int fleetWorkers = 0;
    /**
     * Live progress ticker on stderr (--progress / DRS_PROGRESS=1):
     * one repainted status line with jobs done/total and an ETA; fleet
     * runs add live worker states and the degraded-job count. Pure
     * observer — results and reports are identical either way.
     */
    bool progress = false;
    /** Cycle-level tracing (DRS_TRACE / DRS_TRACE_CAPACITY). */
    obs::TraceConfig trace;
    /** Windowed sampling (DRS_SAMPLE / DRS_SAMPLE_CAPACITY). */
    obs::SampleConfig sample;
};

/**
 * Parse the shared bench flags: --jobs N (default: DRS_JOBS or the
 * hardware concurrency), --fleet N (default: DRS_FLEET or 0 = no
 * fleet), --json PATH, --journal PATH, --resume and --progress
 * (default: DRS_PROGRESS). Unknown arguments warn on stderr and are
 * ignored, keeping the binaries scriptable. The trace and sample knobs
 * are read here too, so each variable is read (and a malformed one
 * warns) once per process.
 */
inline Options
parseOptions(int argc, char **argv)
{
    constexpr int kMaxWorkers = fleet::FleetOptions::kMaxWorkers;
    Options options;
    options.jobs = exec::defaultConcurrency();
    exec::envKnob("DRS_FLEET", 1, kMaxWorkers, options.fleetWorkers);
    exec::envKnob("DRS_PROGRESS", false, true, options.progress);
    options.trace = obs::TraceConfig::fromEnvironment();
    options.sample = obs::SampleConfig::fromEnvironment();
    // Same strict contract as the knobs: an empty path warns and is
    // ignored rather than silently producing no report or journal.
    auto path_flag = [](const char *flag, const char *v, std::string &out) {
        if (*v == '\0')
            std::fprintf(stderr,
                         "warning: ignoring %s with an empty path\n", flag);
        else
            out = v;
    };

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value_of = [&](const char *flag) -> const char * {
            const std::size_t len = std::strlen(flag);
            if (arg.compare(0, len, flag) == 0 && arg.size() > len &&
                arg[len] == '=')
                return argv[i] + len + 1;
            if (arg == flag && i + 1 < argc)
                return argv[++i];
            return nullptr;
        };
        if (const char *v = value_of("--jobs"))
            exec::parseKnob("--jobs", v, 1, INT_MAX, options.jobs);
        else if (const char *v = value_of("--fleet"))
            exec::parseKnob("--fleet", v, 1, kMaxWorkers,
                            options.fleetWorkers);
        else if (const char *v = value_of("--json"))
            path_flag("--json", v, options.jsonPath);
        else if (const char *v = value_of("--journal"))
            path_flag("--journal", v, options.journalPath);
        else if (arg == "--resume")
            options.resume = true;
        else if (arg == "--progress")
            options.progress = true;
        else
            std::fprintf(stderr, "warning: ignoring unknown argument %s\n",
                         arg.c_str());
    }
    return options;
}

/**
 * @p options with sampling off, for the benches that merge each row from
 * a capture's bounces (collectCapture): their rows carry no attribution
 * or timeline, so DRS_SAMPLE would only make every SMX step every cycle.
 * Under DRS_SAMPLE it prints one notice to stderr.
 */
inline Options
withoutSampling(Options options)
{
    if (options.sample.enabled)
        std::fprintf(stderr,
                     "note: DRS_SAMPLE ignored: this bench merges each row "
                     "from a capture's bounces and reports no attribution "
                     "or timeline\n");
    options.sample = {};
    return options;
}

/** Wall-clock stopwatch for whole-bench timing. */
class WallTimer
{
  public:
    WallTimer() : start_(std::chrono::steady_clock::now()) {}

    double seconds() const
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start_)
            .count();
    }

  private:
    std::chrono::steady_clock::time_point start_;
};

/** Scale banner so every output records its configuration. */
inline void
printBanner(const std::string &title, const harness::ExperimentScale &scale,
            const Options &options)
{
    std::cout << "==== " << title << " ====\n";
    std::cout << "scenes at scale " << scale.sceneScale << ", "
              << scale.raysPerBounce << " rays/bounce (paper: 2M), "
              << scale.numSmx << " SMX, film " << scale.width << "x"
              << scale.height << "x" << scale.samplesPerPixel << "spp\n"
              << "override via DRS_RAYS / DRS_SCALE / DRS_SMX / DRS_WIDTH / "
                 "DRS_HEIGHT / DRS_SPP\n"
              << "running " << options.jobs << " concurrent simulation"
              << (options.jobs == 1 ? "" : "s") << " (--jobs N / DRS_JOBS)";
    if (options.fleetWorkers > 0)
        std::cout << " across a fleet of " << options.fleetWorkers
                  << " worker processes (--fleet N / DRS_FLEET)";
    std::cout << "\n\n";
    std::cout.flush();
}

/** Default run configuration derived from scale + options. */
inline harness::RunConfig
makeRunConfig(const harness::ExperimentScale &scale, const Options &options)
{
    harness::RunConfig config;
    config.gpu.numSmx = scale.numSmx;
    config.trace = options.trace;
    config.sample = options.sample;
    return config;
}

/**
 * The fleet configuration of a bench run: the fleet's own knobs from the
 * environment, plus the worker count and trace path parseOptions read.
 */
inline fleet::FleetOptions
makeFleetOptions(const Options &options)
{
    fleet::FleetOptions fleetOptions = fleet::FleetOptions::fromEnvironment();
    fleetOptions.workers = options.fleetWorkers;
    if (options.trace.enabled)
        fleetOptions.tracePath = options.trace.path;
    return fleetOptions;
}

/**
 * Live progress ticker (--progress / DRS_PROGRESS=1): one stderr
 * status line, repainted in place (\r), with jobs done/total and
 * in flight, the fleet's worker states and degraded count when it has
 * them, and the ledger's EWMA-based ETA. Pure observer: it reads
 * progress, never influences it, and paints only to stderr so piped
 * stdout tables stay clean.
 */
class ProgressTicker
{
  public:
    /** SweepOptions::progress callback (sweep threads or fleet loop). */
    void update(const harness::SweepProgress &progress)
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        using std::to_string;
        std::string text = "[progress] " + to_string(progress.jobsDone) +
                           "/" + to_string(progress.jobsTotal) + " jobs (" +
                           to_string(progress.jobsInflight) + " in flight)";
        if (progress.workersAlive > 0)
            text += ", " + to_string(progress.workersRunning) + "/" +
                    to_string(progress.workersAlive) + " workers running";
        if (progress.degraded > 0)
            text += ", " + to_string(progress.degraded) + " degraded";
        text += etaText(progress.etaSeconds);
        paint(text, progress.jobsDone >= progress.jobsTotal);
    }

  private:
    using Clock = std::chrono::steady_clock;

    static std::string etaText(double seconds)
    {
        if (seconds < 0.0)
            return "";
        char buffer[48];
        if (seconds >= 90.0)
            std::snprintf(buffer, sizeof buffer, ", eta %.1f min",
                          seconds / 60.0);
        else
            std::snprintf(buffer, sizeof buffer, ", eta %.0f s", seconds);
        return buffer;
    }

    /** Repaint the line; pad over the previous one, newline when done. */
    void paint(std::string line, bool final)
    {
        if (finished_)
            return;
        const auto now = Clock::now();
        if (!final && painted_ &&
            std::chrono::duration<double>(now - lastPaint_).count() < 0.1)
            return;
        lastPaint_ = now;
        painted_ = true;
        const std::size_t width = std::max(line.size(), lastWidth_);
        lastWidth_ = line.size();
        line.resize(width, ' ');
        std::fprintf(stderr, "\r%s%s", line.c_str(), final ? "\n" : "");
        std::fflush(stderr);
        if (final)
            finished_ = true;
    }

    std::mutex mutex_;
    Clock::time_point lastPaint_{};
    std::size_t lastWidth_ = 0;
    bool painted_ = false;
    bool finished_ = false;
};

/**
 * Robust-execution policy for the bench's sweep: environment knobs
 * (DRS_FAULT_SEED, DRS_WATCHDOG, DRS_JOB_TIMEOUT, DRS_CRASH_AFTER) plus
 * the --journal/--resume/--progress flags. With none of them set this
 * is the all-defaults policy and the sweep behaves exactly as before.
 */
inline harness::SweepOptions
makeSweepOptions(const Options &options)
{
    harness::SweepOptions sweep = harness::SweepOptions::fromEnvironment();
    sweep.journalPath = options.journalPath;
    sweep.resume = options.resume;
    if (sweep.resume && sweep.journalPath.empty()) {
        std::fprintf(stderr,
                     "warning: --resume without --journal PATH does "
                     "nothing\n");
        sweep.resume = false;
    }
    if (options.progress) {
        // The ticker outlives this scope through the callback's copy.
        // Fleet workers clear the callback after fork (workerMain), so
        // only the in-process sweep or the coordinator paints through it.
        auto ticker = std::make_shared<ProgressTicker>();
        sweep.progress = [ticker](const harness::SweepProgress &progress) {
            ticker->update(progress);
        };
    }
    return sweep;
}

/**
 * Structured bench report (--json PATH): the document is always built —
 * the cost is negligible next to the simulations — but only validated
 * and written when a path was given. Rows are open-ended JSON objects;
 * addStats prefills one with the well-known metric fields of a run.
 */
class JsonReport
{
  public:
    JsonReport(const std::string &bench_name,
               const harness::ExperimentScale &scale, const Options &options)
        : report_(bench_name), path_(options.jsonPath)
    {
        report_.scale() = harness::scaleJson(scale);
        report_.options()["jobs"] = options.jobs;
        report_.options()["fleet"] = options.fleetWorkers;
    }

    /** One empty result row, to fill in place. */
    obs::Json &addRow() { return report_.addResult(); }

    /** One result row prefilled from a simulation's statistics. */
    obs::Json &addStats(const std::string &scene, const std::string &arch,
                        const simt::SimStats &stats, double clock_ghz)
    {
        obs::Json &row = report_.addResult();
        row = harness::statsJson(stats, clock_ghz);
        row["scene"] = scene;
        row["arch"] = arch;
        return row;
    }

    /**
     * One result row prefilled from a sweep result. Same metric fields
     * as the SimStats overload plus, when the run sampled (DRS_SAMPLE),
     * the "attribution" and "timeline" profiler sections (schema v3+),
     * and, when it traced (DRS_TRACE), the schema-v4 "trace" ring
     * counters.
     */
    obs::Json &addStats(const std::string &scene, const std::string &arch,
                        const harness::SweepResult &result, double clock_ghz)
    {
        obs::Json &row = addStats(scene, arch, result.stats, clock_ghz);
        if (result.observations)
            harness::addObservationsJson(row, *result.observations,
                                         result.stats);
        return row;
    }

    /** Bench-specific aggregate object. */
    obs::Json &summary() { return report_.summary(); }

    /**
     * Record a sweep's robustness outcome: flips the top-level
     * "degraded" flag when any job was quarantined and files a
     * summary.sweep section with per-job attempts / fault seeds (only
     * for jobs that needed retries or ran with faults enabled) plus the
     * quarantined jobs with their last error. Quarantined jobs are
     * reported, never dropped. Call once per SweepRunner::run().
     */
    void noteSweep(const std::vector<harness::SweepResult> &results)
    {
        std::size_t replayed = 0;
        bool degraded = false;
        obs::Json quarantined = obs::Json::array();
        obs::Json jobs = obs::Json::array();
        for (std::size_t i = 0; i < results.size(); ++i) {
            const harness::SweepResult &result = results[i];
            replayed += result.fromJournal ? 1u : 0u;
            if (result.attempts > 1 || result.faultSeed != 0 ||
                result.failed) {
                obs::Json &job = jobs.push(obs::Json::object());
                job["job"] = static_cast<std::uint64_t>(i);
                job["attempts"] = static_cast<std::int64_t>(result.attempts);
                job["fault_seed"] = result.faultSeed;
            }
            if (!result.failed)
                continue;
            degraded = true;
            obs::Json &entry = quarantined.push(obs::Json::object());
            entry["job"] = static_cast<std::uint64_t>(i);
            entry["attempts"] = static_cast<std::int64_t>(result.attempts);
            entry["fault_seed"] = result.faultSeed;
            entry["error"] = result.error;
        }
        report_.setDegraded(degraded);
        if (jobs.size() == 0 && replayed == 0 && !degraded)
            return;
        obs::Json &sweep = report_.summary()["sweep"];
        sweep = obs::Json::object();
        sweep["total_jobs"] = static_cast<std::uint64_t>(results.size());
        sweep["replayed_from_journal"] =
            static_cast<std::uint64_t>(replayed);
        sweep["jobs"] = std::move(jobs);
        sweep["quarantined"] = std::move(quarantined);
    }

    /**
     * Record a fleet run's supervision counters as summary.fleet and
     * flip the top-level "degraded" flag when the fleet shrank to the
     * point of dropping jobs (or was cancelled). Call after noteSweep —
     * noteSweep recomputes "degraded" from the per-job outcomes, and
     * this adds the fleet-level causes on top.
     */
    void noteFleet(const fleet::FleetSummary &summary)
    {
        report_.summary()["fleet"] = fleet::fleetSummaryJson(summary);
        if (summary.degradedJobs > 0 || summary.cancelled)
            report_.setDegraded(true);
    }

    /** Validate and write the report; call once, at the end. */
    void write(const WallTimer &timer)
    {
        if (path_.empty())
            return;
        report_.setWallSeconds(timer.seconds());
        const std::string problem =
            obs::validateBenchReport(report_.document());
        if (!problem.empty())
            std::fprintf(stderr, "warning: bench report fails its schema: %s\n",
                         problem.c_str());
        std::string error;
        if (!report_.writeFile(path_, &error))
            std::fprintf(stderr, "warning: bench report not written: %s\n",
                         error.c_str());
        else
            std::printf("json report: %s\n", path_.c_str());
    }

  private:
    obs::BenchReport report_;
    std::string path_;
};

/**
 * Execute a bench's queued sweep, honouring --fleet: with
 * options.fleetWorkers > 0 the queued jobs are taken off the runner and
 * sharded across a supervised fleet of worker processes
 * (makeFleetOptions); otherwise this is exactly runner.run(). Either
 * way the results come back in grid order with identical SimStats —
 * the fleet's bit-identity contract — and the sweep/fleet robustness
 * summaries are recorded on @p report when one is given.
 */
inline std::vector<harness::SweepResult>
runSweep(harness::SweepRunner &runner, const Options &options,
         JsonReport *report = nullptr)
{
    if (options.fleetWorkers <= 0) {
        std::vector<harness::SweepResult> results = runner.run();
        if (report)
            report->noteSweep(results);
        return results;
    }
    fleet::FleetCoordinator coordinator(runner.scale(), runner.options(),
                                        makeFleetOptions(options));
    std::vector<harness::SweepResult> results =
        coordinator.run(runner.takePending());
    if (report) {
        report->noteSweep(results);
        report->noteFleet(coordinator.summary());
    }
    return results;
}

/** Print the closing wall-clock line of a bench. */
inline void
printElapsed(const WallTimer &timer)
{
    std::printf("total wall-clock: %.2f s\n", timer.seconds());
    std::fflush(stdout);
}

/** Bounces simulated by the sweep benches (B1..B4, like Figure 8). */
inline constexpr int kSweepBounces = 4;

} // namespace drs::bench
