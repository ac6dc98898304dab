/**
 * @file
 * Crash-resilient sweep execution tests: the lossless SimStats JSON
 * round trip backing the journal, journal write/replay, corrupt-tail
 * tolerance, retry + quarantine (jobs are reported, never dropped), and
 * the headline resume contract — an interrupted sweep resumed from its
 * journal merges to results identical to an uninterrupted run.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "exec/cancel.h"
#include "harness/report.h"
#include "harness/sweep.h"

namespace drs::harness {
namespace {

ExperimentScale
tinyScale()
{
    ExperimentScale scale;
    scale.sceneScale = 0.05f;
    scale.width = 128;
    scale.height = 96;
    scale.samplesPerPixel = 1;
    scale.raysPerBounce = 4096;
    scale.numSmx = 2;
    scale.maxDepth = 3;
    return scale;
}

std::vector<SweepJob>
tinyJobs()
{
    std::vector<SweepJob> jobs;
    for (int bounce = 1; bounce <= 3; ++bounce) {
        SweepJob job;
        job.scene = scene::SceneId::Conference;
        job.arch = bounce == 2 ? Arch::Drs : Arch::Aila;
        job.config.gpu.numSmx = 2;
        job.bounce = bounce;
        job.maxRays = 192;
        jobs.push_back(job);
    }
    return jobs;
}

std::vector<SweepResult>
runSweep(const SweepOptions &options, int workers = 1)
{
    SweepRunner runner(tinyScale(), workers, options);
    for (const SweepJob &job : tinyJobs())
        runner.add(job);
    return runner.run();
}

/** Result equality that ignores wall-clock and provenance fields. */
void
expectSameOutcome(const std::vector<SweepResult> &a,
                  const std::vector<SweepResult> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].ran, b[i].ran) << "job " << i;
        EXPECT_EQ(a[i].failed, b[i].failed) << "job " << i;
        EXPECT_TRUE(a[i].stats == b[i].stats) << "job " << i;
    }
}

std::string
tempPath(const char *name)
{
    return ::testing::TempDir() + name;
}

// --------------------------------------------- Lossless stats JSON

TEST(StatsJson, FullRoundTripIsLossless)
{
    simt::SimStats stats;
    stats.cycles = 123456789;
    stats.raysTraced = 4096;
    for (int i = 0; i <= 32; ++i)
        stats.histogram.recordInstruction(i, i % 7 == 0);
    stats.rdctrlIssued = 11;
    stats.rdctrlStalledIssues = 5;
    stats.rdctrlStallCycles = 77;
    stats.rfAccessesNormal = 1000;
    stats.rfAccessesShuffle = 500;
    stats.raySwapsCompleted = 42;
    stats.raySwapCycles = 420;
    stats.spawnBankConflictCycles = 13;
    stats.blockIssue = {{100, 3200}, {50, 801}, {0, 0}};
    stats.l1Data = {1000, 100};
    stats.l1Texture = {2000, 50};
    stats.l2 = {150, 75};
    stats.counters.add("fault.swap_bit_flips", 3);
    stats.counters.add("smx0.warp.retired", 17);

    const simt::SimStats restored =
        statsFromJson(statsJsonFull(stats));
    EXPECT_TRUE(stats == restored);

    // Survives serialization to text and back (the journal's path).
    const std::string text = statsJsonFull(stats).dump();
    const auto parsed = obs::Json::parse(text);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_TRUE(stats == statsFromJson(*parsed));
}

TEST(StatsJson, RejectsMalformedDocuments)
{
    EXPECT_THROW(statsFromJson(obs::Json()), std::runtime_error);
    obs::Json missing = obs::Json::object();
    missing["cycles"] = 1;
    EXPECT_THROW(statsFromJson(missing), std::runtime_error);
}

// ----------------------------------------------------------- Job keys

TEST(SweepRunner, JobKeyIdentifiesTheCell)
{
    SweepJob job;
    job.scene = scene::SceneId::Conference;
    job.arch = Arch::Drs;
    job.bounce = 2;
    job.maxRays = 192;
    const std::string key = SweepRunner::jobKey(job);
    EXPECT_NE(key.find("conference"), std::string::npos);
    EXPECT_NE(key.find("drs"), std::string::npos);
    EXPECT_NE(key.find("b2"), std::string::npos);
    EXPECT_NE(key.find("r192"), std::string::npos);

    SweepJob other = job;
    other.bounce = 3;
    EXPECT_NE(SweepRunner::jobKey(other), key);
}

TEST(SweepOptions, FromEnvironmentParsesKnobs)
{
    ::setenv("DRS_JOB_TIMEOUT", "2.5", 1);
    ::setenv("DRS_CRASH_AFTER", "3", 1);
    SweepOptions options = SweepOptions::fromEnvironment();
    EXPECT_DOUBLE_EQ(options.jobTimeoutSeconds, 2.5);
    EXPECT_EQ(options.crashAfter, 3);

    ::setenv("DRS_JOB_TIMEOUT", "never", 1);
    ::setenv("DRS_CRASH_AFTER", "-1", 1);
    options = SweepOptions::fromEnvironment();
    EXPECT_DOUBLE_EQ(options.jobTimeoutSeconds, 0.0);
    EXPECT_EQ(options.crashAfter, 0);

    ::unsetenv("DRS_JOB_TIMEOUT");
    ::unsetenv("DRS_CRASH_AFTER");
}

// ------------------------------------------------- Journal + resume

TEST(SweepResume, FullJournalReplaysEveryJob)
{
    const std::string journal = tempPath("full_journal.jsonl");
    SweepOptions options;
    options.journalPath = journal;
    const auto reference = runSweep(options);
    for (const SweepResult &result : reference)
        EXPECT_FALSE(result.fromJournal);

    SweepOptions resume = options;
    resume.resume = true;
    const auto replayed = runSweep(resume);
    for (const SweepResult &result : replayed)
        EXPECT_TRUE(result.fromJournal) << "nothing should re-run";
    expectSameOutcome(reference, replayed);
    std::remove(journal.c_str());
}

TEST(SweepResume, PartialJournalMergesToUninterruptedResults)
{
    // Reference: an uninterrupted run with no journal at all.
    const auto reference = runSweep(SweepOptions{});

    // Simulate a crash: keep only the journal's first line, then append
    // the torn half-written line a kill mid-append would leave behind.
    const std::string journal = tempPath("partial_journal.jsonl");
    SweepOptions options;
    options.journalPath = journal;
    runSweep(options);

    std::string first_line;
    {
        std::ifstream in(journal);
        ASSERT_TRUE(std::getline(in, first_line));
    }
    {
        std::ofstream out(journal, std::ios::trunc);
        out << first_line << "\n";
        out << "{\"job\": 1, \"key\": \"conference/"; // torn write
    }

    SweepOptions resume = options;
    resume.resume = true;
    const auto merged = runSweep(resume);
    int replayed = 0;
    for (const SweepResult &result : merged)
        replayed += result.fromJournal ? 1 : 0;
    EXPECT_EQ(replayed, 1) << "only the intact journal line replays";
    expectSameOutcome(reference, merged);
    std::remove(journal.c_str());
}

TEST(SweepResume, MismatchedKeyIsRejected)
{
    const std::string journal = tempPath("mismatch_journal.jsonl");
    SweepOptions options;
    options.journalPath = journal;
    runSweep(options);

    // Same journal, different sweep: every key differs, nothing replays.
    SweepOptions resume = options;
    resume.resume = true;
    SweepRunner runner(tinyScale(), 1, resume);
    for (SweepJob job : tinyJobs()) {
        job.maxRays = 64; // different cell identity
        runner.add(job);
    }
    const auto results = runner.run();
    for (const SweepResult &result : results) {
        EXPECT_FALSE(result.fromJournal);
        EXPECT_TRUE(result.ran);
    }
    std::remove(journal.c_str());
}

TEST(SweepResume, ParallelSweepWritesAReplayableJournal)
{
    const std::string journal = tempPath("parallel_journal.jsonl");
    SweepOptions options;
    options.journalPath = journal;
    const auto reference = runSweep(options, /*workers=*/3);

    SweepOptions resume = options;
    resume.resume = true;
    const auto replayed = runSweep(resume);
    for (const SweepResult &result : replayed)
        EXPECT_TRUE(result.fromJournal);
    expectSameOutcome(reference, replayed);
    std::remove(journal.c_str());
}

TEST(SweepResume, CancelledJobIsNotJournaledAndReRuns)
{
    const auto reference = runSweep(SweepOptions{});

    // Job 1 carries an already-cancelled token: it fails as cancelled,
    // and a cancelled job must not be journaled as an outcome.
    const std::string journal = tempPath("cancelled_journal.jsonl");
    SweepOptions options;
    options.journalPath = journal;
    exec::CancelToken cancelled;
    cancelled.requestCancel();
    {
        SweepRunner runner(tinyScale(), 1, options);
        std::vector<SweepJob> jobs = tinyJobs();
        jobs[1].config.cancel = &cancelled;
        for (const SweepJob &job : jobs)
            runner.add(job);
        const auto first = runner.run();
        EXPECT_TRUE(first[1].failed);
    }
    std::size_t records = 0;
    {
        std::ifstream in(journal);
        for (std::string line; std::getline(in, line);)
            records += line.empty() ? 0 : 1;
    }
    EXPECT_EQ(records, 2u) << "only the two completed jobs are journaled";

    // Resumed without the token, job 1 runs and the merge matches an
    // uninterrupted sweep.
    SweepOptions resume = options;
    resume.resume = true;
    const auto resumed = runSweep(resume);
    ASSERT_EQ(resumed.size(), 3u);
    EXPECT_TRUE(resumed[0].fromJournal);
    EXPECT_FALSE(resumed[1].fromJournal) << "the cancelled job re-runs";
    EXPECT_TRUE(resumed[2].fromJournal);
    expectSameOutcome(reference, resumed);
    std::remove(journal.c_str());
}

// ----------------------------------------------------- Live progress

TEST(SweepProgress, SnapshotsReachCompletion)
{
    SweepOptions options;
    std::vector<SweepProgress> snapshots;
    options.progress = [&snapshots](const SweepProgress &progress) {
        snapshots.push_back(progress);
    };
    const auto results = runSweep(options, /*workers=*/2);

    ASSERT_FALSE(snapshots.empty());
    std::size_t lastDone = 0;
    for (const SweepProgress &progress : snapshots) {
        EXPECT_EQ(progress.jobsTotal, results.size());
        EXPECT_GE(progress.jobsDone, lastDone) << "done count went backwards";
        EXPECT_LE(progress.jobsDone + progress.jobsInflight,
                  progress.jobsTotal);
        lastDone = progress.jobsDone;
    }
    const SweepProgress &last = snapshots.back();
    EXPECT_EQ(last.jobsDone, results.size()) << "final snapshot incomplete";
    EXPECT_EQ(last.jobsFailed, 0u);
    EXPECT_EQ(last.etaSeconds, 0.0);
}

// --------------------------------------------- Retry and quarantine

TEST(SweepQuarantine, ExhaustedRetriesAreReportedNeverDropped)
{
    SweepOptions options;
    // A 1-cycle no-progress budget fails every simulation immediately
    // and deterministically.
    options.watchdogCycles = 1;
    options.maxAttempts = 2;
    options.backoffSeconds = 0.0;
    const auto results = runSweep(options);

    ASSERT_EQ(results.size(), tinyJobs().size());
    for (const SweepResult &result : results) {
        EXPECT_FALSE(result.ran);
        EXPECT_TRUE(result.failed) << "quarantined, not dropped";
        EXPECT_EQ(result.attempts, 2);
        EXPECT_NE(result.error.find("watchdog"), std::string::npos)
            << result.error;
    }
}

TEST(SweepQuarantine, QuarantinedJobsAreJournaledAndReplayed)
{
    const std::string journal = tempPath("quarantine_journal.jsonl");
    SweepOptions options;
    options.watchdogCycles = 1;
    options.maxAttempts = 1;
    options.backoffSeconds = 0.0;
    options.journalPath = journal;
    const auto first = runSweep(options);

    SweepOptions resume = options;
    resume.resume = true;
    const auto replayed = runSweep(resume);
    for (const SweepResult &result : replayed) {
        EXPECT_TRUE(result.fromJournal)
            << "failures are journaled too, so resume must not retry "
               "them endlessly";
        EXPECT_TRUE(result.failed);
        EXPECT_FALSE(result.error.empty());
    }
    expectSameOutcome(first, replayed);
    std::remove(journal.c_str());
}

TEST(SweepRetry, FaultSeedsDifferPerAttemptAndPerJob)
{
    SweepOptions options;
    options.fault.seed = 0x1234ULL;
    // Disable the actual fault hooks so the runs stay clean; the seeds
    // are still derived and recorded per job.
    options.fault.swapBitFlipRate = 0.0;
    options.fault.cacheTagFlipRate = 0.0;
    options.fault.dramDelayRate = 0.0;
    options.fault.dramDropRate = 0.0;
    const auto results = runSweep(options);

    ASSERT_GE(results.size(), 2u);
    for (const SweepResult &result : results) {
        EXPECT_TRUE(result.ran);
        EXPECT_EQ(result.attempts, 1);
        EXPECT_NE(result.faultSeed, 0u);
    }
    EXPECT_NE(results[0].faultSeed, results[1].faultSeed);
    EXPECT_EQ(results[0].faultSeed, fault::mixSeed(0x1234ULL, 0, 1));
}

TEST(SweepFaults, SweepResultsDeterministicAcrossWorkerCounts)
{
    SweepOptions options;
    options.fault.seed = 0xbeefULL;
    const auto sequential = runSweep(options, /*workers=*/1);
    const auto parallel = runSweep(options, /*workers=*/3);
    expectSameOutcome(sequential, parallel);
    for (std::size_t i = 0; i < sequential.size(); ++i)
        EXPECT_EQ(sequential[i].faultSeed, parallel[i].faultSeed);
}

} // namespace
} // namespace drs::harness
