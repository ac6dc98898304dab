/**
 * @file
 * Multi-process fleet tests: pipe-protocol framing, the bit-identity
 * contract (a fleet of crash-isolated workers merges to exactly the
 * single-process sweep's results, with or without chaos kills), journal
 * interop between the fleet coordinator and the in-process runner,
 * heartbeat-timeout re-dispatch, quarantine of poison jobs, graceful
 * degradation when the respawn budget runs out, the no-orphans
 * shutdown guarantee, and the telemetry surface (worker digest
 * aggregation into FleetSummary, live SweepProgress snapshots, and the
 * coordinator's stitched job-lifecycle trace shard).
 */

#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <set>
#include <string>
#include <thread>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "fleet/chaos.h"
#include "fleet/fleet.h"
#include "fleet/protocol.h"
#include "harness/sweep.h"
#include "obs/json.h"

namespace drs::fleet {
namespace {

using harness::SweepJob;
using harness::SweepOptions;
using harness::SweepResult;
using harness::SweepRunner;

harness::ExperimentScale
tinyScale()
{
    harness::ExperimentScale scale;
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
        job.arch = bounce == 2 ? harness::Arch::Drs : harness::Arch::Aila;
        job.config.gpu.numSmx = 2;
        job.bounce = bounce;
        job.maxRays = 192;
        jobs.push_back(job);
    }
    return jobs;
}

std::vector<SweepResult>
runSolo(const SweepOptions &options)
{
    SweepRunner runner(tinyScale(), 1, options);
    for (const SweepJob &job : tinyJobs())
        runner.add(job);
    return runner.run();
}

std::vector<SweepResult>
runFleet(const SweepOptions &sweep, const FleetOptions &options,
         FleetSummary *summary = nullptr)
{
    FleetCoordinator coordinator(tinyScale(), sweep, options);
    std::vector<SweepResult> results = coordinator.run(tinyJobs());
    if (summary)
        *summary = coordinator.summary();
    return results;
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

// ------------------------------------------------- Protocol framing

TEST(FleetProtocol, FrameRoundTrip)
{
    const std::string payload = "{\"job\": 4, \"dispatch\": 1}";
    const std::string wire = encodeFrame(MsgType::Claim, payload);
    EXPECT_EQ(wire.size(), 12u + payload.size());

    FrameParser parser;
    parser.feed(wire.data(), wire.size());
    const auto frame = parser.next();
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->type, MsgType::Claim);
    EXPECT_EQ(frame->payload, payload);
    EXPECT_FALSE(parser.next().has_value());
    EXPECT_EQ(parser.buffered(), 0u);
    EXPECT_FALSE(parser.corrupt());
}

TEST(FleetProtocol, ParserIsIncrementalAcrossArbitrarySplits)
{
    // Three frames, fed one byte at a time: framing must not depend on
    // read() boundaries.
    std::string wire;
    wire += encodeFrame(MsgType::Hello, "{\"worker\": 0}");
    wire += encodeFrame(MsgType::Heartbeat, "{\"job\": -1}");
    wire += encodeFrame(MsgType::Shutdown, "");

    FrameParser parser;
    std::vector<Frame> frames;
    for (char byte : wire) {
        parser.feed(&byte, 1);
        while (auto frame = parser.next())
            frames.push_back(*frame);
    }
    ASSERT_EQ(frames.size(), 3u);
    EXPECT_EQ(frames[0].type, MsgType::Hello);
    EXPECT_EQ(frames[1].type, MsgType::Heartbeat);
    EXPECT_EQ(frames[2].type, MsgType::Shutdown);
    EXPECT_TRUE(frames[2].payload.empty());
}

TEST(FleetProtocol, TornTailYieldsNoFrameButIsNotCorrupt)
{
    const std::string wire = encodeFrame(MsgType::Result, "{\"job\": 2}");
    FrameParser parser;
    parser.feed(wire.data(), wire.size() - 3); // SIGKILL mid-write
    EXPECT_FALSE(parser.next().has_value());
    EXPECT_FALSE(parser.corrupt());
    // The remaining bytes complete the frame.
    parser.feed(wire.data() + wire.size() - 3, 3);
    ASSERT_TRUE(parser.next().has_value());
}

TEST(FleetProtocol, CorruptionIsDetectedAndSticky)
{
    {
        FrameParser parser;
        const char garbage[12] = {'n', 'o', 't', 'd', 'r', 's',
                                  'f', 'r', 'a', 'm', 'e', '!'};
        parser.feed(garbage, sizeof garbage);
        EXPECT_FALSE(parser.next().has_value());
        EXPECT_TRUE(parser.corrupt());
        EXPECT_NE(parser.corruptReason().find("magic"), std::string::npos);
        // Sticky: valid frames after corruption are not trusted.
        const std::string wire = encodeFrame(MsgType::Hello, "{}");
        parser.feed(wire.data(), wire.size());
        EXPECT_FALSE(parser.next().has_value());
    }
    {
        // Unknown message type.
        FrameParser parser;
        std::string wire = encodeFrame(MsgType::Hello, "");
        wire[4] = 99;
        parser.feed(wire.data(), wire.size());
        EXPECT_FALSE(parser.next().has_value());
        EXPECT_TRUE(parser.corrupt());
    }
    {
        // Oversized payload length.
        FrameParser parser;
        std::string wire = encodeFrame(MsgType::Hello, "");
        wire[8] = wire[9] = wire[10] = wire[11] = '\xff';
        parser.feed(wire.data(), wire.size());
        EXPECT_FALSE(parser.next().has_value());
        EXPECT_TRUE(parser.corrupt());
        EXPECT_NE(parser.corruptReason().find("oversized"),
                  std::string::npos);
    }
}

// ------------------------------------------------- Chaos plan seeding

TEST(FleetChaos, PlansAreDeterministicAndConverge)
{
    ChaosConfig config;
    config.seed = 0x5eedULL;
    config.killRate = 0.5;
    config.maxKillDispatches = 2;

    bool any_kill = false;
    for (std::size_t job = 0; job < 32; ++job)
        for (int dispatch = 1; dispatch <= 2; ++dispatch) {
            const ChaosPlan a = chaosPlanFor(config, job, dispatch);
            const ChaosPlan b = chaosPlanFor(config, job, dispatch);
            EXPECT_EQ(a.kill, b.kill);
            EXPECT_EQ(a.delayMicros, b.delayMicros);
            any_kill = any_kill || a.kill;
        }
    EXPECT_TRUE(any_kill) << "a 50% rate over 64 rolls should kill";

    // Past maxKillDispatches every roll is a no-op: re-dispatched jobs
    // are guaranteed to eventually run on a kill-free dispatch.
    for (std::size_t job = 0; job < 32; ++job)
        EXPECT_FALSE(chaosPlanFor(config, job, 3).armed());

    // Targeted hooks override the seeded rolls.
    ChaosConfig hooks;
    hooks.killJobEveryDispatch = 2;
    EXPECT_TRUE(chaosPlanFor(hooks, 2, 5).kill);
    EXPECT_FALSE(chaosPlanFor(hooks, 1, 1).armed());
    hooks = ChaosConfig{};
    hooks.hangJobFirstDispatch = 1;
    EXPECT_TRUE(chaosPlanFor(hooks, 1, 1).hang);
    EXPECT_FALSE(chaosPlanFor(hooks, 1, 2).armed());
}

TEST(FleetOptionsEnv, ParsesAndRejectsKnobs)
{
    ::setenv("DRS_FLEET", "5", 1);
    ::setenv("DRS_FLEET_HEARTBEAT_TIMEOUT", "3.5", 1);
    ::setenv("DRS_FLEET_RESPAWNS", "12", 1);
    ::setenv("DRS_FLEET_QUARANTINE", "4", 1);
    ::setenv("DRS_FLEET_CHAOS", "0xbeef", 1);
    ::setenv("DRS_FLEET_CHAOS_RATE", "0.25", 1);
    FleetOptions options = FleetOptions::fromEnvironment();
    // The worker count is the bench's to pass in (bench::makeFleetOptions).
    EXPECT_EQ(options.workers, FleetOptions{}.workers);
    EXPECT_DOUBLE_EQ(options.heartbeatTimeoutSeconds, 3.5);
    EXPECT_EQ(options.maxRespawns, 12);
    EXPECT_EQ(options.quarantineDeaths, 4);
    EXPECT_EQ(options.chaos.seed, 0xbeefULL);
    EXPECT_DOUBLE_EQ(options.chaos.killRate, 0.25);

    ::setenv("DRS_FLEET_CHAOS_RATE", "1.5", 1);
    options = FleetOptions::fromEnvironment();
    EXPECT_DOUBLE_EQ(options.chaos.killRate, ChaosConfig{}.killRate);

    ::unsetenv("DRS_FLEET");
    ::unsetenv("DRS_FLEET_HEARTBEAT_TIMEOUT");
    ::unsetenv("DRS_FLEET_RESPAWNS");
    ::unsetenv("DRS_FLEET_QUARANTINE");
    ::unsetenv("DRS_FLEET_CHAOS");
    ::unsetenv("DRS_FLEET_CHAOS_RATE");
}

// ------------------------------------------------------ Bit-identity

TEST(FleetBitIdentity, CleanFleetMatchesSingleProcessSweep)
{
    SweepOptions sweep;
    const auto reference = runSolo(sweep);

    FleetOptions options;
    options.workers = 2;
    FleetSummary summary;
    const auto fleet = runFleet(sweep, options, &summary);

    expectSameOutcome(reference, fleet);
    for (std::size_t i = 0; i < reference.size(); ++i)
        EXPECT_EQ(reference[i].faultSeed, fleet[i].faultSeed);
    EXPECT_EQ(summary.spawned, 2);
    EXPECT_EQ(summary.workerDeaths, 0);
    EXPECT_EQ(summary.quarantined, 0);
    EXPECT_EQ(summary.degradedJobs, 0);
    EXPECT_FALSE(summary.cancelled);
}

TEST(FleetBitIdentity, FaultInjectingFleetMatchesSingleProcessSweep)
{
    // Fault seeds derive from the grid index, so the sharding must not
    // change them.
    SweepOptions sweep;
    sweep.fault.seed = 0xbeefULL;
    const auto reference = runSolo(sweep);

    FleetOptions options;
    options.workers = 3;
    const auto fleet = runFleet(sweep, options);

    expectSameOutcome(reference, fleet);
    for (std::size_t i = 0; i < reference.size(); ++i)
        EXPECT_EQ(reference[i].faultSeed, fleet[i].faultSeed);
}

TEST(FleetBitIdentity, ChaosKillsChangeNothingButWallClock)
{
    SweepOptions sweep;
    const auto reference = runSolo(sweep);

    FleetOptions options;
    options.workers = 2;
    options.maxRespawns = 64;
    options.quarantineDeaths = 50; // chaos deaths must never quarantine
    options.backoffSeconds = 0.001;
    options.chaos.seed = 0x5eedULL;
    options.chaos.killRate = 0.9;
    options.chaos.maxKillDispatches = 2;
    options.chaos.maxKillDelayMicros = 5000;
    FleetSummary summary;
    const auto fleet = runFleet(sweep, options, &summary);

    EXPECT_GT(summary.workerDeaths, 0) << "chaos at 90% should kill";
    EXPECT_EQ(summary.quarantined, 0);
    EXPECT_EQ(summary.degradedJobs, 0);
    expectSameOutcome(reference, fleet);
}

// --------------------------------------------------- Journal interop

TEST(FleetJournal, FleetJournalReplaysInProcessAndIsDuplicateFree)
{
    const std::string journal = tempPath("fleet_journal.jsonl");
    SweepOptions sweep;
    sweep.journalPath = journal;

    FleetOptions options;
    options.workers = 2;
    options.maxRespawns = 64;
    options.quarantineDeaths = 50;
    options.backoffSeconds = 0.001;
    options.chaos.seed = 0x1234ULL; // kills + redispatch while journaling
    options.chaos.killRate = 0.7;
    const auto fleet = runFleet(sweep, options);

    // Exactly one record per job, even though workers died mid-sweep.
    std::set<std::uint64_t> indices;
    std::ifstream in(journal);
    std::string line;
    std::size_t records = 0;
    while (std::getline(in, line)) {
        const auto entry = obs::Json::parse(line);
        ASSERT_TRUE(entry.has_value()) << line;
        std::uint64_t index = 0;
        std::string key;
        SweepResult parsed;
        ASSERT_EQ(harness::sweepResultFromJson(*entry, &index, &key, &parsed),
                  "");
        EXPECT_TRUE(indices.insert(index).second)
            << "job " << index << " double-reported";
        ++records;
    }
    EXPECT_EQ(records, tinyJobs().size()) << "every job exactly once";

    // The in-process runner resumes a fleet-written journal verbatim.
    SweepOptions resume = sweep;
    resume.resume = true;
    SweepRunner runner(tinyScale(), 1, resume);
    for (const SweepJob &job : tinyJobs())
        runner.add(job);
    const auto replayed = runner.run();
    for (const SweepResult &result : replayed)
        EXPECT_TRUE(result.fromJournal) << "nothing should re-run";
    expectSameOutcome(fleet, replayed);
    std::remove(journal.c_str());
}

// ----------------------------------------------- Supervision policies

TEST(FleetSupervision, HeartbeatTimeoutKillsAndRedispatches)
{
    SweepOptions sweep;
    const auto reference = runSolo(sweep);

    FleetOptions options;
    options.workers = 2;
    options.heartbeatSeconds = 0.05;
    options.heartbeatTimeoutSeconds = 1.0;
    options.backoffSeconds = 0.001;
    options.chaos.hangJobFirstDispatch = 1; // wedge job 1's first worker
    FleetSummary summary;
    const auto fleet = runFleet(sweep, options, &summary);

    EXPECT_GE(summary.heartbeatKills, 1) << "the wedge must be detected";
    EXPECT_GE(summary.redispatched, 1);
    EXPECT_EQ(summary.quarantined, 0);
    expectSameOutcome(reference, fleet);
}

TEST(FleetSupervision, PoisonJobIsQuarantinedOthersComplete)
{
    SweepOptions sweep;
    const auto reference = runSolo(sweep);

    FleetOptions options;
    options.workers = 2;
    options.maxRespawns = 16;
    options.quarantineDeaths = 2;
    options.backoffSeconds = 0.001;
    options.chaos.killJobEveryDispatch = 1; // job 1 kills every worker
    FleetSummary summary;
    const auto fleet = runFleet(sweep, options, &summary);

    EXPECT_EQ(summary.quarantined, 1);
    EXPECT_GE(summary.workerDeaths, 2) << "two deaths before quarantine";
    ASSERT_EQ(fleet.size(), reference.size());
    EXPECT_TRUE(fleet[1].failed) << "quarantined, not dropped";
    EXPECT_FALSE(fleet[1].ran);
    EXPECT_NE(fleet[1].error.find("quarantined"), std::string::npos)
        << fleet[1].error;
    for (std::size_t i : {std::size_t{0}, std::size_t{2}}) {
        EXPECT_TRUE(fleet[i].ran) << "job " << i;
        EXPECT_TRUE(fleet[i].stats == reference[i].stats) << "job " << i;
    }
}

TEST(FleetSupervision, ExhaustedFleetDegradesInsteadOfAborting)
{
    SweepOptions sweep;
    FleetOptions options;
    options.workers = 1;
    options.maxRespawns = 0;                // no replacements
    options.chaos.killJobEveryDispatch = 0; // first claim kills the crew
    FleetSummary summary;
    const auto fleet = runFleet(sweep, options, &summary);

    EXPECT_EQ(summary.degradedJobs, 3) << "all jobs reported, none lost";
    EXPECT_EQ(summary.workerDeaths, 1);
    EXPECT_EQ(summary.respawned, 0);
    for (const SweepResult &result : fleet) {
        EXPECT_TRUE(result.failed);
        EXPECT_FALSE(result.ran);
        EXPECT_NE(result.error.find("degraded"), std::string::npos)
            << result.error;
    }

    obs::Json json = fleetSummaryJson(summary);
    const obs::Json *degraded = json.find("degraded_jobs");
    ASSERT_NE(degraded, nullptr);
    EXPECT_EQ(degraded->asUint(), 3u);
    ASSERT_NE(json.find("cancelled"), nullptr);
    EXPECT_FALSE(json.find("cancelled")->asBool());
}

// --------------------------------------------------------- Telemetry

TEST(FleetProtocol, TelemetryIsTheSixthAndLastMessageType)
{
    EXPECT_TRUE(validMsgType(static_cast<std::uint32_t>(MsgType::Telemetry)));
    EXPECT_FALSE(validMsgType(
        static_cast<std::uint32_t>(MsgType::Telemetry) + 1));
    EXPECT_STREQ(msgTypeName(MsgType::Telemetry), "telemetry");

    const std::string payload = "{\"worker\": 1, \"peak_rss_kb\": 4096}";
    const std::string wire = encodeFrame(MsgType::Telemetry, payload);
    FrameParser parser;
    parser.feed(wire.data(), wire.size());
    const auto frame = parser.next();
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->type, MsgType::Telemetry);
    EXPECT_EQ(frame->payload, payload);
}

TEST(FleetTelemetry, CleanRunAggregatesOneDigestPerJob)
{
    SweepOptions sweep;
    FleetOptions options;
    options.workers = 2;
    FleetSummary summary;
    const auto fleet = runFleet(sweep, options, &summary);

    // Every job sends its digest right after its Result; a clean run
    // loses none of them.
    const FleetTelemetry &telemetry = summary.telemetry;
    EXPECT_EQ(telemetry.frames, fleet.size());
    EXPECT_EQ(telemetry.jobsReported, fleet.size());
    std::uint64_t cycles = 0;
    std::uint64_t rays = 0;
    for (const SweepResult &result : fleet) {
        cycles += result.stats.cycles;
        rays += result.stats.raysTraced;
    }
    EXPECT_EQ(telemetry.cycles, cycles);
    EXPECT_EQ(telemetry.raysTraced, rays);
    EXPECT_GT(telemetry.jobSeconds, 0.0);
    EXPECT_GT(telemetry.peakRssKb, 0u) << "getrusage must report RSS";
    EXPECT_GE(telemetry.userCpuSeconds, 0.0);
    EXPECT_GE(telemetry.sysCpuSeconds, 0.0);

    // The digest aggregate serializes under summary.fleet.telemetry.
    obs::Json json = fleetSummaryJson(summary);
    const obs::Json *section = json.find("telemetry");
    ASSERT_NE(section, nullptr);
    EXPECT_EQ(section->find("frames")->asUint(), telemetry.frames);
    EXPECT_EQ(section->find("cycles")->asUint(), telemetry.cycles);
    EXPECT_EQ(section->find("rays_traced")->asUint(), telemetry.raysTraced);
    ASSERT_NE(section->find("max_heartbeat_lag_us"), nullptr);
    ASSERT_NE(section->find("peak_rss_kb"), nullptr);
}

TEST(FleetTelemetry, ProgressSnapshotsReachCompletion)
{
    SweepOptions sweep;
    FleetOptions options;
    options.workers = 2;
    std::vector<harness::SweepProgress> snapshots;
    sweep.progress = [&snapshots](const harness::SweepProgress &progress) {
        snapshots.push_back(progress);
    };
    FleetCoordinator coordinator(tinyScale(), sweep, options);
    const auto results = coordinator.run(tinyJobs());

    ASSERT_FALSE(snapshots.empty());
    std::size_t lastDone = 0;
    for (const harness::SweepProgress &progress : snapshots) {
        EXPECT_EQ(progress.jobsTotal, results.size());
        EXPECT_GE(progress.jobsDone, lastDone) << "done count went backwards";
        EXPECT_LE(progress.jobsDone + progress.jobsInflight,
                  progress.jobsTotal);
        EXPECT_LE(progress.workersRunning, progress.workersAlive);
        lastDone = progress.jobsDone;
    }
    const harness::SweepProgress &last = snapshots.back();
    EXPECT_EQ(last.jobsDone, results.size()) << "final snapshot incomplete";
    EXPECT_EQ(last.jobsFailed, 0u);
    EXPECT_EQ(last.degraded, 0);
    EXPECT_GE(last.elapsedSeconds, 0.0);
}

TEST(FleetTrace, CoordinatorWritesJobSpansWorkersWriteShards)
{
    const std::string base = tempPath("fleet_trace");
    SweepOptions sweep;
    FleetOptions options;
    options.workers = 2;
    options.tracePath = base;

    std::vector<SweepJob> jobs = tinyJobs();
    for (SweepJob &job : jobs) {
        job.config.trace.enabled = true;
        job.config.trace.path = base;
        job.config.trace.capacity = 4096;
    }
    FleetCoordinator coordinator(tinyScale(), sweep, options);
    const auto results = coordinator.run(std::move(jobs));
    ASSERT_EQ(results.size(), 3u);

    // The coordinator shard holds one cat="fleet" span per job on
    // pid 0, plus process/thread metadata — a self-contained Chrome
    // trace document.
    std::ifstream in(base + ".coord");
    ASSERT_TRUE(in.good()) << "no coordinator trace at " << base << ".coord";
    std::stringstream buffer;
    buffer << in.rdbuf();
    std::string parseError;
    const auto trace = obs::Json::parse(buffer.str(), &parseError);
    ASSERT_TRUE(trace.has_value()) << parseError;
    const obs::Json *events = trace->find("traceEvents");
    ASSERT_NE(events, nullptr);
    std::size_t spans = 0;
    bool processNamed = false;
    for (const obs::Json &event : events->asArray()) {
        const std::string phase = event.find("ph")->asString();
        if (phase == "X") {
            EXPECT_EQ(event.find("cat")->asString(), "fleet");
            EXPECT_EQ(event.find("pid")->asUint(), 0u);
            EXPECT_GE(event.find("dur")->asUint(), 1u);
            EXPECT_EQ(event.find("name")->asString().rfind("job ", 0), 0u);
            ++spans;
        } else if (phase == "M" &&
                   event.find("name")->asString() == "process_name") {
            processNamed = true;
        }
    }
    EXPECT_EQ(spans, 3u) << "one lifecycle span per job";
    EXPECT_TRUE(processNamed);
    ASSERT_NE(trace->find("otherData"), nullptr);
    EXPECT_EQ(trace->find("otherData")->find("dropped_events")->asUint(),
              0u);
    std::remove((base + ".coord").c_str());

    // Each job left exactly one per-(worker, job) shard, named so
    // concurrent workers can never overwrite each other.
    for (std::size_t job = 0; job < results.size(); ++job) {
        int shards = 0;
        for (int worker = 0; worker < options.workers; ++worker) {
            const std::string shard = base + ".w" + std::to_string(worker) +
                                      ".j" + std::to_string(job);
            std::ifstream file(shard);
            if (!file.good())
                continue;
            ++shards;
            std::remove(shard.c_str());
        }
        EXPECT_EQ(shards, 1) << "job " << job;
    }
}

// ------------------------------------------------- No-orphans shutdown

TEST(FleetShutdown, CancelledFleetReapsEveryWorker)
{
    // The coordinator runs in a forked child with its own process
    // group; its workers wedge on every claim (the worst case: they
    // ignore cooperative shutdown entirely). SIGTERMing the coordinator
    // must still reap the whole group — no orphans.
    int readyPipe[2];
    ASSERT_EQ(::pipe(readyPipe), 0);
    const pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        ::close(readyPipe[0]);
        ::setpgid(0, 0); // workers inherit this group
        FleetOptions options;
        options.workers = 2;
        options.heartbeatTimeoutSeconds = 60.0; // cancel, not the reaper
        options.shutdownGraceSeconds = 0.2;
        options.chaos.hangEveryClaim = true;
        const int fd = readyPipe[1];
        options.onFleetReady = [fd] {
            const char byte = 'R';
            (void)!::write(fd, &byte, 1);
        };
        FleetCoordinator coordinator(tinyScale(), SweepOptions{}, options);
        const auto results = coordinator.run(tinyJobs());
        const bool ok = coordinator.summary().cancelled &&
                        results.size() == tinyJobs().size();
        ::_exit(ok ? 0 : 1);
    }
    ::close(readyPipe[1]);
    char byte = 0;
    ASSERT_EQ(::read(readyPipe[0], &byte, 1), 1) << "fleet never came up";
    ::close(readyPipe[0]);

    ASSERT_EQ(::kill(child, SIGTERM), 0);
    int status = 0;
    ASSERT_EQ(::waitpid(child, &status, 0), child);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "coordinator did not report a clean cancelled run";

    // Once the coordinator is gone its process group must be empty:
    // kill(-pgid, 0) probes for any surviving member.
    bool empty = false;
    for (int i = 0; i < 1000; ++i) { // up to ~10 s
        if (::kill(-child, 0) != 0 && errno == ESRCH) {
            empty = true;
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_TRUE(empty) << "orphaned worker processes survived the cancel";
}

} // namespace
} // namespace drs::fleet
