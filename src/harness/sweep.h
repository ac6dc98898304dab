#pragma once

/**
 * @file
 * Concurrent sweep runner: the bench binaries describe their experiment
 * as a declarative grid of {scene, architecture, config, bounce} jobs and
 * this runner executes them on parallel threads (exec::parallelFor),
 * preparing each scene (geometry, BVH, ray capture) exactly once per
 * (SceneId, ExperimentScale) and sharing it read-only across all jobs.
 * The job ledger (JobLedger) holds the bookkeeping this runner shares
 * with the multi-process fleet (src/fleet): job states, the journal and
 * progress.
 *
 * Simulations are independent, so sweep-level parallelism never changes
 * any SimStats — results are written by job index and each simulation is
 * bit-identical to a sequential run (see DESIGN.md, "Parallel execution
 * model").
 */

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "harness/harness.h"
#include "obs/json.h"

namespace drs::harness {

/**
 * Build-once, share-everywhere scene store. Thread-safe: concurrent
 * first requests for the same key build the scene exactly once (the
 * first requester builds, the rest block on a shared future).
 */
class PreparedSceneCache
{
  public:
    /**
     * Scene + tracer + capture for @p id at @p scale, building it on the
     * first request. The reference stays valid for the cache's lifetime.
     */
    const PreparedScene &get(scene::SceneId id, const ExperimentScale &scale);

    /** Requests served from an existing (or in-flight) entry. */
    std::size_t hits() const;
    /** Requests that had to build the scene. */
    std::size_t misses() const;

  private:
    struct Entry
    {
        scene::SceneId id;
        ExperimentScale scale;
        std::shared_future<std::shared_ptr<const PreparedScene>> future;
    };

    mutable std::mutex mutex_;
    std::vector<Entry> entries_;
    std::size_t hits_ = 0;
    std::size_t misses_ = 0;
};

/** One cell of a sweep grid: a single simulated ray batch. */
struct SweepJob
{
    scene::SceneId scene = scene::SceneId::Conference;
    Arch arch = Arch::Aila;
    RunConfig config{};
    /** 1-based bounce of the scene's capture to trace. */
    int bounce = 1;
    /** Cap on rays taken from the bounce; 0 = the whole bounce. */
    std::size_t maxRays = 0;
};

/** Outcome of one SweepJob, in add order. */
struct SweepResult
{
    simt::SimStats stats;
    /** False when the capture has no rays for the requested bounce. */
    bool ran = false;
    /** Wall-clock seconds of this simulation (excludes scene prep). */
    double seconds = 0.0;
    /**
     * True when the job exhausted its retry budget and was quarantined.
     * Quarantined jobs are never dropped: they stay in the result vector
     * (ran = false) and bench reports list them in a "quarantined"
     * summary with their last error.
     */
    bool failed = false;
    /** Last failure message (empty when the job succeeded first try). */
    std::string error;
    /** Simulation attempts made (0 when replayed from a journal). */
    int attempts = 0;
    /** Derived per-attempt fault seed of the final attempt (0 = none). */
    std::uint64_t faultSeed = 0;
    /** True when this result was replayed from a --resume journal. */
    bool fromJournal = false;
    /**
     * Profiler output (cycle attribution + sampled timeline), present
     * only when the job's config enabled sampling (RunConfig::sample)
     * and the job actually ran. Null for journal replays: the journal
     * stores lossless SimStats, not profiler sections. Shared because
     * results are copied around by value.
     */
    std::shared_ptr<const RunObservations> observations;
};

/** One live-progress snapshot of a sweep (SweepOptions::progress). */
struct SweepProgress
{
    std::size_t jobsTotal = 0;
    std::size_t jobsDone = 0;     ///< finished jobs, incl. failures
    std::size_t jobsInflight = 0;
    std::size_t jobsFailed = 0;   ///< failed, quarantined, degraded, cancelled
    int degraded = 0;             ///< jobs the fleet ran out of workers for
    int workersAlive = 0;         ///< fleet only; 0 in-process
    int workersRunning = 0;       ///< alive workers holding a job
    double elapsedSeconds = 0.0;
    /** Jobs left x EWMA of the time between finishes; < 0 = unknown. */
    double etaSeconds = -1.0;
};

/**
 * Robust-execution policy of a sweep: fault injection, per-job deadlines,
 * bounded retry with quarantine, and the append-only completed-job
 * journal that makes an interrupted sweep resumable. All defaults keep
 * the sweep byte-for-byte compatible with the pre-fault-layer behaviour.
 */
struct SweepOptions
{
    /**
     * Master fault configuration (seed 0 = off). Each job attempt runs
     * with a private seed derived as mixSeed(master seed, job index,
     * attempt), so the fault sequence is a pure function of the sweep
     * seed and position — independent of --jobs, scheduling, or which
     * attempt of another job is in flight.
     */
    fault::FaultConfig fault{};
    /**
     * Watchdog budget per job in cycles. 0 = automatic: off for clean
     * runs (bit-identity with older binaries), fault::kDefaultWatchdogCycles
     * as soon as fault injection is enabled (faults can livelock a
     * simulator, and a hung job would stall the whole sweep).
     */
    std::uint64_t watchdogCycles = 0;
    /** Per-job wall-clock deadline in seconds; <= 0 = none. */
    double jobTimeoutSeconds = 0.0;
    /** Attempts per job before quarantine (>= 1). */
    int maxAttempts = 3;
    /**
     * Base of the retry backoff (seconds): the delay before attempt N+1
     * is backoffDelay(backoffSeconds, N, fault seed, kRetryJitterSalt,
     * job index, N).
     */
    double backoffSeconds = 0.05;
    /**
     * Cap on a job's total wall-clock across all attempts and backoff
     * sleeps (seconds); <= 0 = none. Enforced through the cancel-token
     * deadline plumbing: the deadline spans the whole retry loop, a
     * pending backoff that would overrun it quarantines the job
     * immediately instead of sleeping, and the in-flight attempt is
     * aborted via DeadlineExceeded. DRS_RETRY_DEADLINE.
     */
    double retryDeadlineSeconds = 0.0;
    /**
     * Sweep-wide cooperative stop flag (may be null). Chained as the
     * parent of every per-attempt token, so one requestCancel() — e.g.
     * from a signal handler — aborts the running simulations and fails
     * the remaining jobs instead of starting them. Cancelled jobs are
     * reported failed, never retried.
     */
    const exec::CancelToken *cancel = nullptr;
    /**
     * Append-only JSONL journal of completed jobs (lossless SimStats via
     * statsJsonFull). Empty = no journal. A fresh run truncates the
     * file; --resume replays it instead.
     */
    std::string journalPath;
    /**
     * Replay matching journal entries instead of re-running their jobs;
     * only the jobs the journal does not cover (including a corrupt
     * tail, which is tolerated) are executed. The merged results are
     * identical to an uninterrupted run.
     */
    bool resume = false;
    /**
     * Crash-injection for the resume tests (DRS_CRASH_AFTER): terminate
     * the process with _Exit(70) after this many journal appends. 0 =
     * off. Requires a journalPath.
     */
    int crashAfter = 0;
    /**
     * Live-progress callback (JobLedger::reportProgress): called after
     * every finished job, from the sweep's worker threads or the fleet's
     * supervision loop, one call at a time and never going backwards.
     * Keep it cheap; pure observer. Cleared by fleet workers: only the
     * coordinator reports progress.
     */
    std::function<void(const SweepProgress &)> progress;

    /**
     * Populate from the environment: DRS_FAULT_SEED (see
     * fault::FaultConfig::fromEnvironment), DRS_WATCHDOG (cycles),
     * DRS_JOB_TIMEOUT (seconds), DRS_RETRY_DEADLINE (seconds),
     * DRS_CRASH_AFTER (journal appends).
     */
    static SweepOptions fromEnvironment();
};

/**
 * One sweep outcome as a journal/protocol record: {"job", "key",
 * "ran", "failed", "attempts", "fault_seed", "seconds", "stats"
 * (lossless, when ran), "error" (when failed)}. The fleet result
 * protocol reuses this shape verbatim, so a worker's result frame and a
 * journal line are interchangeable.
 */
obs::Json sweepResultToJson(std::size_t index, const std::string &key,
                            const SweepResult &result);

/**
 * Parse one sweepResultToJson record. @return empty string on success
 * (with @p index, @p key and @p result filled, result.fromJournal
 * left untouched), else a human-readable reason.
 */
std::string sweepResultFromJson(const obs::Json &entry, std::uint64_t *index,
                                std::string *key, SweepResult *result);

/** Salts of the two seeded backoff schedules: retries and re-dispatch. */
inline constexpr std::uint64_t kRetryJitterSalt = 0x6a69747465720000ULL;
inline constexpr std::uint64_t kRedispatchJitterSalt = 0x666c65656a697400ULL;

/**
 * Seeded exponential backoff: @p base * 2^(@p step - 1) times a jitter
 * factor in [0.5, 1.0) drawn from (@p seed ^ @p salt, @p job, @p draw).
 * The same sweep always waits the same amount, while backoffs of
 * distinct jobs spread out instead of stampeding in lockstep. The delay
 * is clamped at exec::kMaxKnobSeconds.
 */
double backoffDelay(double base, int step, std::uint64_t seed,
                    std::uint64_t salt, std::size_t job, int draw);

/** Lifecycle of one job in a JobLedger. */
enum class JobState : unsigned char {
    Pending,     ///< not started, or waiting for a fleet re-dispatch
    Running,     ///< held by a worker thread or process
    Done,        ///< result recorded: ran, replayed, or failed its retries
    Quarantined, ///< killed too many fleet workers; recorded failed
    Degraded,    ///< the fleet ran out of workers for it; recorded failed
    Cancelled,   ///< the sweep was stopped before the job finished
};

/**
 * Bookkeeping shared by both sweep executors, SweepRunner::run's threads
 * and the fleet coordinator's worker processes: job states, the result
 * vector, the journal and live progress. It owns the journaling policy:
 * a Done or Quarantined outcome gets exactly one fsync'd record, so
 * --resume replays it; a Degraded or Cancelled one never does, so
 * --resume runs it. Either executor resumes the other's journal.
 * Thread-safe.
 */
class JobLedger
{
  public:
    /**
     * Start the journal, if options.journalPath is set: on resume,
     * replay it first (matching records become Done with fromJournal
     * set; a torn tail and everything after it re-run) and append after
     * it; on a fresh run, truncate it. Records are appended in full and
     * fsync'd before finish() returns, so a SIGKILL right after cannot
     * lose one. @p jobs must outlive the ledger; from @p options it also
     * uses crashAfter and progress; @p component names its events in
     * the event log ("sweep" or "fleet").
     */
    JobLedger(const std::vector<SweepJob> &jobs, const SweepOptions &options,
              const char *component);
    ~JobLedger() { closeJournal(); }

    JobLedger(const JobLedger &) = delete;
    JobLedger &operator=(const JobLedger &) = delete;

    JobState state(std::size_t index) const;
    /** Pending -> Running. @return false when the job was not Pending */
    bool start(std::size_t index);
    /** Running -> Pending: the fleet worker holding the job died. */
    void requeue(std::size_t index);

    /**
     * Record a terminal outcome, journaling Done and Quarantined ones
     * before returning (the crashAfter-th record ends the process with
     * _Exit(70): crash injection for the resume tests).
     * @return false, recording nothing, when the job already finished
     */
    bool finish(std::size_t index, SweepResult result, JobState state);

    /** Jobs not finished yet. */
    std::size_t remaining() const;

    /**
     * Hand a snapshot to SweepOptions::progress, if set and the grid is
     * not empty. Unforced calls are throttled to 5 Hz; the fleet passes
     * its worker counts.
     */
    void reportProgress(bool force, int workersAlive = 0,
                        int workersRunning = 0);

    /** Close the journal (also done on destruction). */
    void closeJournal();

    /** Move the results out, in grid order. */
    std::vector<SweepResult> takeResults();

  private:
    using Clock = std::chrono::steady_clock;

    const std::vector<SweepJob> &jobs_;
    const SweepOptions &options_;
    const char *component_;
    const Clock::time_point start_ = Clock::now();

    mutable std::mutex mutex_;
    std::vector<JobState> states_;
    std::vector<SweepResult> results_;
    int journalFd_ = -1;
    int journalAppends_ = 0;
    Clock::time_point lastFinish_ = start_;
    Clock::time_point lastReport_{};
    double ewmaFinishInterval_ = -1.0; ///< seconds; < 0 = none yet
};

/**
 * Declarative experiment sweep over a shared scene cache.
 *
 * Usage: add() every cell of the grid, then run() once; results come
 * back indexed exactly like the add() calls. With jobs > 1 the cells
 * execute concurrently (exec::parallelFor); with jobs <= 1 they run
 * inline, in order.
 */
class SweepRunner
{
  public:
    /**
     * @param scale experiment scale shared by every job (scene cache key)
     * @param jobs worker threads for the sweep; <= 1 = sequential
     * @param options robustness policy (faults, retry, journal, resume)
     */
    explicit SweepRunner(const ExperimentScale &scale, int jobs = 1,
                         const SweepOptions &options = {});

    /** Queue one job. @return its index into run()'s result vector. */
    std::size_t add(const SweepJob &job);

    /**
     * Queue one job per bounce of @p scene's capture: bounces 1 to
     * @p max_bounces (0 = the scale's maxDepth). Bounces the capture
     * does not contain come back with ran = false.
     *
     * @return result indices, one per bounce, in bounce order
     */
    std::vector<std::size_t> addCapture(scene::SceneId scene, Arch arch,
                                        const RunConfig &config,
                                        int max_bounces = 0,
                                        std::size_t max_rays = 0);

    /**
     * Execute every queued job and return their results in add order.
     * Prints a one-line summary (job count, workers, wall-clock, scene
     * cache hits/misses) to stdout. Clears the queue; the scene cache
     * persists across run() calls.
     */
    std::vector<SweepResult> run();

    /** The shared scene store (also usable directly, e.g. for stats). */
    const PreparedScene &prepared(scene::SceneId id)
    {
        return cache_.get(id, scale_);
    }

    const ExperimentScale &scale() const { return scale_; }
    int jobCount() const { return jobs_count_; }
    std::size_t pendingJobs() const { return pending_.size(); }

    /** Scene cache observability (each scene must build exactly once). */
    std::size_t cacheHits() const { return cache_.hits(); }
    std::size_t cacheMisses() const { return cache_.misses(); }

    const SweepOptions &options() const { return options_; }

    /**
     * Execute one job under the full robustness policy (fault seeds,
     * watchdog, timeout, retry + jitter backoff, retry deadline) without
     * touching the queue or the journal. @p index is the job's identity
     * in its grid: per-attempt fault seeds derive from it, so a fleet
     * worker executing job 7 of a sharded grid produces bit-identical
     * results to the single-process sweep running job 7 itself.
     */
    SweepResult runJob(const SweepJob &job, std::size_t index)
    {
        SweepResult result;
        runWithRetry(job, index, result);
        return result;
    }

    /** Take (and clear) the queued jobs, e.g. to shard them elsewhere. */
    std::vector<SweepJob> takePending();

    /**
     * Journal/identity key of @p job ("scene/arch/b<bounce>/r<maxRays>"):
     * a --resume run only replays an entry when its key still matches
     * the job at the same index, so a journal from a different sweep is
     * rejected instead of silently merged.
     */
    static std::string jobKey(const SweepJob &job);

  private:
    SweepResult runOne(const SweepJob &job);
    /**
     * Fill @p result and return Done, or Cancelled when a cancel token
     * stopped the job (its result is then failed but not journaled).
     */
    JobState runWithRetry(const SweepJob &job, std::size_t index,
                          SweepResult &result);

    ExperimentScale scale_;
    int jobs_count_;
    SweepOptions options_;
    PreparedSceneCache cache_;
    std::vector<SweepJob> pending_;
};

/**
 * Assemble per-bounce sweep results (as returned for an addCapture call)
 * into the CaptureResult shape runCapture produces: absent bounces are
 * skipped, overall merges the rest, cycles accumulate across bounces.
 */
CaptureResult collectCapture(const std::vector<SweepResult> &results,
                             const std::vector<std::size_t> &indices);

} // namespace drs::harness
