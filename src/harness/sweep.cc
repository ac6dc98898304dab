#include "harness/sweep.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <span>
#include <thread>

#include <fcntl.h>
#include <unistd.h>

#include "exec/cancel.h"
#include "exec/env.h"
#include "exec/parallel_for.h"
#include "harness/report.h"
#include "obs/json.h"
#include "obs/log.h"

namespace drs::harness {

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

} // namespace

double
backoffDelay(double base, int step, std::uint64_t seed, std::uint64_t salt,
             std::size_t job, int draw)
{
    const std::uint64_t mixed =
        fault::mixSeed(seed ^ salt, static_cast<std::uint64_t>(job),
                       static_cast<std::uint64_t>(draw));
    // Top 53 bits -> uniform double in [0, 1).
    const double unit = static_cast<double>(mixed >> 11) * 0x1.0p-53;
    // 2^1023 is the largest finite power of two, so the product is never
    // NaN (0 * inf); the clamp keeps the callers' conversion to 64-bit
    // nanoseconds defined however many deaths or attempts came before.
    const double delay =
        base * std::ldexp(1.0, std::min(step, 1024) - 1) * (0.5 + 0.5 * unit);
    return std::min(delay, exec::kMaxKnobSeconds);
}

// ------------------------------------------- Result <-> JSON records

obs::Json
sweepResultToJson(std::size_t index, const std::string &key,
                  const SweepResult &result)
{
    obs::Json entry = obs::Json::object();
    entry["job"] = static_cast<std::uint64_t>(index);
    entry["key"] = key;
    entry["ran"] = result.ran;
    entry["failed"] = result.failed;
    entry["attempts"] = static_cast<std::int64_t>(result.attempts);
    entry["fault_seed"] = result.faultSeed;
    entry["seconds"] = result.seconds;
    if (result.ran)
        entry["stats"] = statsJsonFull(result.stats);
    if (!result.error.empty())
        entry["error"] = result.error;
    return entry;
}

std::string
sweepResultFromJson(const obs::Json &entry, std::uint64_t *index,
                    std::string *key, SweepResult *result)
{
    if (!entry.isObject())
        return "record is not an object";
    const obs::Json *job_field = entry.find("job");
    const obs::Json *key_field = entry.find("key");
    if (job_field == nullptr || !job_field->isNumber() ||
        key_field == nullptr || !key_field->isString())
        return "record lacks job/key";
    *index = job_field->asUint();
    *key = key_field->asString();

    SweepResult parsed;
    const obs::Json *ran = entry.find("ran");
    const obs::Json *failed = entry.find("failed");
    parsed.ran = ran != nullptr && ran->isBool() && ran->asBool();
    parsed.failed = failed != nullptr && failed->isBool() && failed->asBool();
    if (const obs::Json *attempts = entry.find("attempts");
        attempts != nullptr && attempts->isNumber())
        parsed.attempts = static_cast<int>(attempts->asUint());
    if (const obs::Json *seed = entry.find("fault_seed");
        seed != nullptr && seed->isNumber())
        parsed.faultSeed = seed->asUint();
    if (const obs::Json *seconds = entry.find("seconds");
        seconds != nullptr && seconds->isNumber())
        parsed.seconds = seconds->asDouble();
    if (const obs::Json *err = entry.find("error");
        err != nullptr && err->isString())
        parsed.error = err->asString();
    if (parsed.ran) {
        const obs::Json *stats = entry.find("stats");
        if (stats == nullptr)
            return "record has ran=true but no stats";
        try {
            parsed.stats = statsFromJson(*stats);
        } catch (const std::exception &e) {
            return std::string("record stats malformed: ") + e.what();
        }
    }
    *result = std::move(parsed);
    return "";
}

namespace {

/**
 * Replay a JSONL journal at @p path into @p results (sized like
 * @p jobs): entries whose index/key match the job at that index are
 * stored with fromJournal set; a malformed line (torn tail of a crash)
 * stops the replay and everything after it re-runs.
 */
void
replaySweepJournal(const std::string &path,
                   const std::vector<SweepJob> &jobs,
                   std::vector<SweepResult> &results)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        obs::Json data = obs::Json::object();
        data["path"] = obs::Json(path);
        obs::logEvent(obs::LogLevel::Warn, "sweep", "resume_no_journal",
                      std::move(data));
        return;
    }

    std::string line;
    std::size_t line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        if (line.empty())
            continue;
        std::string error;
        std::optional<obs::Json> parsed = obs::Json::parse(line, &error);
        if (!parsed || !parsed->isObject()) {
            // A crash mid-append leaves a truncated last line; tolerate
            // it (and anything after it) by re-running those jobs.
            obs::Json data = obs::Json::object();
            data["line"] = obs::Json(
                static_cast<unsigned long long>(line_no));
            data["error"] =
                obs::Json(error.empty() ? "not an object" : error);
            obs::logEvent(obs::LogLevel::Warn, "sweep",
                          "resume_truncated", std::move(data));
            break;
        }
        std::uint64_t index = 0;
        std::string key;
        SweepResult result;
        const std::string reason =
            sweepResultFromJson(*parsed, &index, &key, &result);
        if (!reason.empty()) {
            obs::Json data = obs::Json::object();
            data["line"] = obs::Json(
                static_cast<unsigned long long>(line_no));
            data["error"] = obs::Json(reason);
            obs::logEvent(obs::LogLevel::Warn, "sweep",
                          "resume_truncated", std::move(data));
            break;
        }
        if (index >= jobs.size() || key != SweepRunner::jobKey(jobs[index])) {
            obs::Json data = obs::Json::object();
            data["line"] = obs::Json(
                static_cast<unsigned long long>(line_no));
            data["job"] = obs::Json(static_cast<unsigned long long>(index));
            data["key"] = obs::Json(key);
            obs::logEvent(obs::LogLevel::Warn, "sweep",
                          "resume_mismatch", std::move(data));
            continue;
        }
        result.fromJournal = true;
        results[index] = std::move(result);
    }
}

bool
terminal(JobState state)
{
    return state != JobState::Pending && state != JobState::Running;
}

/**
 * Write @p line to @p fd in full, then fsync: the record is on disk
 * before this returns, so a SIGKILL one instruction later cannot lose
 * it to a libc or page-cache buffer.
 */
bool
appendDurably(int fd, const std::string &line, std::string *error)
{
    std::size_t written = 0;
    while (written < line.size()) {
        const ssize_t n =
            ::write(fd, line.data() + written, line.size() - written);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            *error = std::string("journal write failed: ") +
                     std::strerror(errno);
            return false;
        }
        written += static_cast<std::size_t>(n);
    }
    if (::fsync(fd) != 0) {
        *error = std::string("journal fsync failed: ") + std::strerror(errno);
        return false;
    }
    return true;
}

} // namespace

// ------------------------------------------------------- Job ledger

JobLedger::JobLedger(const std::vector<SweepJob> &jobs,
                     const SweepOptions &options, const char *component)
    : jobs_(jobs), options_(options), component_(component),
      states_(jobs.size(), JobState::Pending), results_(jobs.size())
{
    if (options_.journalPath.empty())
        return;
    if (options_.resume) {
        replaySweepJournal(options_.journalPath, jobs_, results_);
        for (std::size_t i = 0; i < results_.size(); ++i)
            if (results_[i].fromJournal)
                states_[i] = JobState::Done;
    }
    // Fresh run: truncate any stale journal so a later --resume cannot
    // merge entries from a different invocation. Resumed runs append
    // after the replayed records.
    journalFd_ = ::open(options_.journalPath.c_str(),
                        O_WRONLY | O_CREAT | O_APPEND |
                            (options_.resume ? 0 : O_TRUNC),
                        0644);
    if (journalFd_ < 0) {
        obs::Json data = obs::Json::object();
        data["error"] = obs::Json("cannot open journal '" +
                                  options_.journalPath +
                                  "': " + std::strerror(errno));
        obs::logEvent(obs::LogLevel::Warn, component_, "journal_open_failed",
                      std::move(data));
    }
}

JobState
JobLedger::state(std::size_t index) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return states_.at(index);
}

bool
JobLedger::start(std::size_t index)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (states_.at(index) != JobState::Pending)
        return false;
    states_[index] = JobState::Running;
    return true;
}

void
JobLedger::requeue(std::size_t index)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (states_.at(index) == JobState::Running)
        states_[index] = JobState::Pending;
}

bool
JobLedger::finish(std::size_t index, SweepResult result, JobState state)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (terminal(states_.at(index)))
        return false; // a late duplicate: the journal keeps one record
    states_[index] = state;
    results_[index] = std::move(result);

    const auto now = Clock::now();
    const double interval =
        std::chrono::duration<double>(now - lastFinish_).count();
    ewmaFinishInterval_ = ewmaFinishInterval_ < 0
                              ? interval
                              : 0.7 * ewmaFinishInterval_ + 0.3 * interval;
    lastFinish_ = now;

    if (journalFd_ < 0 ||
        (state != JobState::Done && state != JobState::Quarantined))
        return true;
    const obs::Json entry = sweepResultToJson(
        index, SweepRunner::jobKey(jobs_[index]), results_[index]);
    std::string error;
    if (!appendDurably(journalFd_, entry.dump() + "\n", &error)) {
        obs::Json data = obs::Json::object();
        data["path"] = obs::Json(options_.journalPath);
        data["error"] = obs::Json(error);
        obs::logEvent(obs::LogLevel::Error, component_,
                      "journal_append_failed", std::move(data));
        return true;
    }
    ++journalAppends_;
    if (options_.crashAfter > 0 && journalAppends_ >= options_.crashAfter) {
        // Crash injection for the resume tests: die without unwinding,
        // exactly like a kill -9 after the append hit the disk (fleet
        // workers die with the coordinator via PR_SET_PDEATHSIG).
        obs::Json data = obs::Json::object();
        data["appends"] = obs::Json(journalAppends_);
        data["crash_after"] = obs::Json(options_.crashAfter);
        obs::logEvent(obs::LogLevel::Warn, component_, "crash_injection",
                      std::move(data));
        std::fprintf(stderr,
                     "[%s] DRS_CRASH_AFTER: exiting after %d journal "
                     "append%s\n",
                     component_, journalAppends_,
                     journalAppends_ == 1 ? "" : "s");
        std::fflush(stderr);
        std::_Exit(70);
    }
    return true;
}

std::size_t
JobLedger::remaining() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return static_cast<std::size_t>(
        std::count_if(states_.begin(), states_.end(),
                      [](JobState s) { return !terminal(s); }));
}

void
JobLedger::reportProgress(bool force, int workersAlive, int workersRunning)
{
    if (!options_.progress || jobs_.empty())
        return;
    // The callback runs under the lock so snapshots reach it in order:
    // concurrent completions must never deliver a stale count last.
    std::lock_guard<std::mutex> lock(mutex_);
    const auto now = Clock::now();
    if (!force && lastReport_ != Clock::time_point{} &&
        now - lastReport_ < std::chrono::milliseconds(200))
        return;
    lastReport_ = now;

    SweepProgress progress;
    progress.jobsTotal = jobs_.size();
    for (std::size_t i = 0; i < states_.size(); ++i) {
        if (states_[i] == JobState::Running)
            ++progress.jobsInflight;
        if (!terminal(states_[i]))
            continue;
        ++progress.jobsDone;
        progress.jobsFailed += results_[i].failed ? 1 : 0;
        progress.degraded += states_[i] == JobState::Degraded ? 1 : 0;
    }
    progress.workersAlive = workersAlive;
    progress.workersRunning = workersRunning;
    progress.elapsedSeconds =
        std::chrono::duration<double>(now - start_).count();
    const std::size_t left = progress.jobsTotal - progress.jobsDone;
    if (left == 0)
        progress.etaSeconds = 0.0;
    else if (ewmaFinishInterval_ >= 0)
        progress.etaSeconds = ewmaFinishInterval_ * static_cast<double>(left);
    options_.progress(progress);
}

void
JobLedger::closeJournal()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (journalFd_ >= 0)
        ::close(journalFd_);
    journalFd_ = -1;
}

std::vector<SweepResult>
JobLedger::takeResults()
{
    std::lock_guard<std::mutex> lock(mutex_);
    return std::move(results_);
}

SweepOptions
SweepOptions::fromEnvironment()
{
    SweepOptions options;
    options.fault = fault::FaultConfig::fromEnvironment();
    options.watchdogCycles = fault::watchdogCyclesFromEnvironment();
    // Strictly positive: the smallest double above zero is the bound.
    constexpr double kPositive = std::numeric_limits<double>::denorm_min();
    exec::envKnob("DRS_JOB_TIMEOUT", kPositive, exec::kMaxKnobSeconds,
                  options.jobTimeoutSeconds);
    exec::envKnob("DRS_RETRY_DEADLINE", kPositive, exec::kMaxKnobSeconds,
                  options.retryDeadlineSeconds);
    exec::envKnob("DRS_CRASH_AFTER", 1, INT_MAX, options.crashAfter);
    return options;
}

const PreparedScene &
PreparedSceneCache::get(scene::SceneId id, const ExperimentScale &scale)
{
    std::shared_future<std::shared_ptr<const PreparedScene>> future;
    std::shared_ptr<std::promise<std::shared_ptr<const PreparedScene>>>
        promise;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const Entry &entry : entries_) {
            if (entry.id == id && entry.scale == scale) {
                ++hits_;
                future = entry.future;
                break;
            }
        }
        if (!future.valid()) {
            ++misses_;
            promise = std::make_shared<
                std::promise<std::shared_ptr<const PreparedScene>>>();
            future = promise->get_future().share();
            entries_.push_back({id, scale, future});
        }
    }
    if (promise) {
        // Build outside the lock so other scenes can be looked up (and
        // built) concurrently; later requesters block on the future.
        try {
            promise->set_value(std::make_shared<const PreparedScene>(
                prepareScene(id, scale)));
        } catch (...) {
            promise->set_exception(std::current_exception());
        }
    }
    return *future.get();
}

std::size_t
PreparedSceneCache::hits() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return hits_;
}

std::size_t
PreparedSceneCache::misses() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return misses_;
}

SweepRunner::SweepRunner(const ExperimentScale &scale, int jobs,
                         const SweepOptions &options)
    : scale_(scale),
      jobs_count_(jobs < 1 ? 1 : jobs),
      options_(options)
{
    if (options_.maxAttempts < 1)
        options_.maxAttempts = 1;
}

std::string
SweepRunner::jobKey(const SweepJob &job)
{
    return scene::sceneName(job.scene) + "/" + archName(job.arch) + "/b" +
           std::to_string(job.bounce) + "/r" + std::to_string(job.maxRays);
}

std::size_t
SweepRunner::add(const SweepJob &job)
{
    pending_.push_back(job);
    return pending_.size() - 1;
}

std::vector<SweepJob>
SweepRunner::takePending()
{
    std::vector<SweepJob> jobs;
    jobs.swap(pending_);
    return jobs;
}

std::vector<std::size_t>
SweepRunner::addCapture(scene::SceneId scene, Arch arch,
                        const RunConfig &config, int max_bounces,
                        std::size_t max_rays)
{
    const int bounces = max_bounces > 0 ? max_bounces : scale_.maxDepth;
    std::vector<std::size_t> indices;
    indices.reserve(static_cast<std::size_t>(bounces));
    for (int bounce = 1; bounce <= bounces; ++bounce) {
        SweepJob job;
        job.scene = scene;
        job.arch = arch;
        job.config = config;
        job.bounce = bounce;
        job.maxRays = max_rays;
        indices.push_back(add(job));
    }
    return indices;
}

SweepResult
SweepRunner::runOne(const SweepJob &job)
{
    const PreparedScene &prepared = cache_.get(job.scene, scale_);

    SweepResult result;
    const render::BounceRays *found = nullptr;
    for (const auto &bounce : prepared.trace.bounces) {
        if (bounce.bounce == job.bounce) {
            found = &bounce;
            break;
        }
    }
    if (!found || found->rays.empty())
        return result;

    std::span<const geom::Ray> rays(found->rays);
    if (job.maxRays && rays.size() > job.maxRays)
        rays = rays.first(job.maxRays);

    // The sweep owns the profiler side channel: jobs run concurrently,
    // so a caller-provided observationsOut would be clobbered. Tracing
    // also deposits observations (the ring recorded/dropped counters
    // surface in bench reports).
    RunConfig config = job.config;
    std::shared_ptr<RunObservations> observations;
    if (config.sample.enabled || config.trace.enabled) {
        observations = std::make_shared<RunObservations>();
        config.observationsOut = observations.get();
    } else {
        config.observationsOut = nullptr;
    }

    const auto start = std::chrono::steady_clock::now();
    result.stats = runBatch(job.arch, *prepared.tracer, rays, config);
    result.seconds = secondsSince(start);
    result.ran = true;
    result.observations = std::move(observations);
    return result;
}

JobState
SweepRunner::runWithRetry(const SweepJob &job, std::size_t index,
                          SweepResult &result)
{
    // The retry deadline spans the whole loop: every attempt and every
    // backoff sleep draws from the same wall-clock budget.
    const bool has_retry_deadline = options_.retryDeadlineSeconds > 0;
    const Clock::time_point retry_deadline =
        has_retry_deadline
            ? Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(
                                     options_.retryDeadlineSeconds))
            : Clock::time_point::max();

    for (int attempt = 1; attempt <= options_.maxAttempts; ++attempt) {
        SweepJob tried = job;
        std::uint64_t attempt_seed = 0;
        if (options_.fault.enabled()) {
            tried.config.fault = options_.fault;
            // Pure function of (sweep seed, job index, attempt): the
            // fault stream does not depend on --jobs or scheduling.
            attempt_seed = fault::mixSeed(options_.fault.seed,
                                          static_cast<std::uint64_t>(index),
                                          static_cast<std::uint64_t>(attempt));
            tried.config.fault.seed = attempt_seed;
            // Injected faults can livelock a simulator; never let a hung
            // job stall the whole sweep.
            if (tried.config.watchdogCycles == 0)
                tried.config.watchdogCycles = fault::kDefaultWatchdogCycles;
        }
        if (options_.watchdogCycles != 0)
            tried.config.watchdogCycles = options_.watchdogCycles;

        exec::CancelToken token;
        token.setParent(tried.config.cancel != nullptr ? tried.config.cancel
                                                       : options_.cancel);
        // The attempt's deadline is the tighter of the per-attempt
        // timeout and the whole-job retry deadline.
        Clock::time_point deadline = retry_deadline;
        if (options_.jobTimeoutSeconds > 0)
            deadline = std::min(
                deadline,
                Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(
                                       options_.jobTimeoutSeconds)));
        if (deadline != Clock::time_point::max())
            token.setDeadline(deadline);
        if (token.hasDeadline() || token.parent() != nullptr)
            tried.config.cancel = &token;

        try {
            result = runOne(tried);
            result.attempts = attempt;
            result.faultSeed = attempt_seed;
            return JobState::Done;
        } catch (const exec::Cancelled &e) {
            // A cancel (signal fan-out, or the job's own token): report
            // the job failed and stop immediately — retrying a cancelled
            // job would fight the shutdown.
            result = SweepResult{};
            result.failed = true;
            result.error = e.what();
            result.attempts = attempt;
            result.faultSeed = attempt_seed;
            return JobState::Cancelled;
        } catch (const std::exception &e) {
            result = SweepResult{};
            result.failed = true;
            result.error = e.what();
            result.attempts = attempt;
            result.faultSeed = attempt_seed;
            if (const auto *timeout =
                    dynamic_cast<const fault::WatchdogTimeout *>(&e)) {
                // The diagnostic dump rides in the event payload: one
                // structured record instead of a multi-line stderr
                // interleave (the stderr sink renders it truncated).
                obs::Json data = obs::Json::object();
                data["job"] =
                    obs::Json(static_cast<unsigned long long>(index));
                data["key"] = obs::Json(jobKey(job));
                data["cycle"] = obs::Json(static_cast<unsigned long long>(
                    timeout->cycle()));
                data["budget_cycles"] =
                    obs::Json(static_cast<unsigned long long>(
                        timeout->budgetCycles()));
                data["dump"] = obs::Json(timeout->dump());
                obs::logEvent(obs::LogLevel::Error, "watchdog", "timeout",
                              std::move(data));
            }
            {
                obs::Json data = obs::Json::object();
                data["job"] =
                    obs::Json(static_cast<unsigned long long>(index));
                data["key"] = obs::Json(jobKey(job));
                data["attempt"] = obs::Json(attempt);
                data["max_attempts"] = obs::Json(options_.maxAttempts);
                data["error"] = obs::Json(std::string(e.what()));
                obs::logEvent(obs::LogLevel::Warn, "sweep",
                              "attempt_failed", std::move(data));
            }
            if (options_.cancel != nullptr && options_.cancel->cancelled())
                return JobState::Cancelled;
            if (attempt < options_.maxAttempts &&
                options_.backoffSeconds > 0) {
                const double delay = backoffDelay(
                    options_.backoffSeconds, attempt, options_.fault.seed,
                    kRetryJitterSalt, index, attempt);
                const auto wake =
                    Clock::now() +
                    std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(delay));
                if (wake >= retry_deadline) {
                    // Sleeping would overrun the retry budget:
                    // quarantine now instead of wasting the wall-clock.
                    result.error += " (retry deadline of " +
                                    std::to_string(
                                        options_.retryDeadlineSeconds) +
                                    " s exhausted)";
                    return JobState::Done;
                }
                std::this_thread::sleep_for(
                    std::chrono::duration<double>(delay));
            }
        }
    }
    // Retry budget exhausted: quarantine. The result stays in the
    // vector (failed = true) so reports list it instead of dropping it.
    return JobState::Done;
}

std::vector<SweepResult>
SweepRunner::run()
{
    std::vector<SweepJob> jobs;
    jobs.swap(pending_);
    JobLedger ledger(jobs, options_, "sweep");

    const auto start = std::chrono::steady_clock::now();
    std::atomic<std::size_t> cancelled{0};
    ledger.reportProgress(true);
    exec::parallelFor(jobs.size(), jobs_count_, [&](std::size_t i) {
        if (!ledger.start(i))
            return; // replayed from the journal
        SweepResult result;
        JobState state = JobState::Cancelled;
        if (options_.cancel != nullptr && options_.cancel->cancelled()) {
            // Cancelled sweep: fail the job instead of starting it so
            // the result vector stays complete (reported, not dropped).
            result.failed = true;
            result.error = "sweep cancelled";
        } else {
            state = runWithRetry(jobs[i], i, result);
        }
        cancelled += state == JobState::Cancelled ? 1 : 0;
        ledger.finish(i, std::move(result), state);
        ledger.reportProgress(true);
    });

    std::vector<SweepResult> results = ledger.takeResults();
    std::size_t failed = 0;
    std::size_t replayed = 0;
    for (const SweepResult &result : results) {
        failed += result.failed ? 1u : 0u;
        replayed += result.fromJournal ? 1u : 0u;
    }

    std::printf("[sweep] %zu sims on %d worker%s in %.2f s "
                "(scene cache: %zu hit%s, %zu miss%s)",
                jobs.size() - replayed, jobs_count_,
                jobs_count_ == 1 ? "" : "s",
                secondsSince(start), cache_.hits(),
                cache_.hits() == 1 ? "" : "s", cache_.misses(),
                cache_.misses() == 1 ? "" : "es");
    if (replayed > 0)
        std::printf(", %zu replayed from journal", replayed);
    if (failed > cancelled)
        std::printf(", %zu QUARANTINED", failed - cancelled.load());
    if (cancelled > 0)
        std::printf(", %zu cancelled", cancelled.load());
    std::printf("\n");
    std::fflush(stdout);
    return results;
}

CaptureResult
collectCapture(const std::vector<SweepResult> &results,
               const std::vector<std::size_t> &indices)
{
    CaptureResult capture;
    std::uint64_t cycles = 0;
    for (const std::size_t index : indices) {
        const SweepResult &result = results.at(index);
        if (!result.ran)
            continue;
        capture.overall.merge(result.stats);
        cycles += result.stats.cycles;
        capture.perBounce.push_back(result.stats);
    }
    // As in runCapture: bounces run back-to-back, so overall cycles
    // accumulate instead of taking the max.
    capture.overall.cycles = cycles;
    return capture;
}

} // namespace drs::harness
