/**
 * @file
 * Tests of the host-side execution library: the parallel loop,
 * DRS_JOBS-driven default concurrency, cancel tokens, and the one
 * parser behind every numeric DRS_* knob and bench flag.
 */

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "bench_common.h"
#include "check/check.h"
#include "exec/cancel.h"
#include "exec/parallel_for.h"
#include "fault/fault.h"
#include "fleet/fleet.h"
#include "harness/harness.h"
#include "harness/sweep.h"
#include "obs/log.h"
#include "obs/sampler.h"
#include "obs/trace.h"

namespace drs::exec {
namespace {

TEST(DefaultConcurrency, ReadsDrsJobs)
{
    setenv("DRS_JOBS", "7", 1);
    EXPECT_EQ(defaultConcurrency(), 7);
    unsetenv("DRS_JOBS");
}

TEST(DefaultConcurrency, IgnoresMalformedDrsJobs)
{
    const int fallback = [] {
        unsetenv("DRS_JOBS");
        return defaultConcurrency();
    }();
    EXPECT_GE(fallback, 1);

    for (const char *bad : {"banana", "-3", "0", "4x", ""}) {
        setenv("DRS_JOBS", bad, 1);
        EXPECT_EQ(defaultConcurrency(), fallback) << "DRS_JOBS=" << bad;
    }
    unsetenv("DRS_JOBS");
}

TEST(ParallelFor, RunsEveryIndexExactlyOnce)
{
    constexpr std::size_t kCount = 100;
    for (const int workers : {0, 1, 2, static_cast<int>(kCount) + 3}) {
        std::vector<std::atomic<int>> hits(kCount);
        parallelFor(kCount, workers, [&hits](std::size_t i) { ++hits[i]; });
        for (std::size_t i = 0; i < kCount; ++i)
            EXPECT_EQ(hits[i].load(), 1)
                << "index " << i << ", workers " << workers;
    }
}

TEST(ParallelFor, SingleWorkerRunsInlineInAscendingOrder)
{
    std::vector<std::size_t> order;
    const std::thread::id caller = std::this_thread::get_id();
    bool inline_only = true;
    parallelFor(50, 1, [&](std::size_t i) {
        order.push_back(i);
        inline_only = inline_only && std::this_thread::get_id() == caller;
    });
    ASSERT_EQ(order.size(), 50u);
    for (std::size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i);
    EXPECT_TRUE(inline_only);
}

TEST(ParallelFor, ClampsNonPositiveWorkerCount)
{
    // Zero or negative workers mean one: inline, in index order.
    const std::thread::id caller = std::this_thread::get_id();
    for (const int workers : {0, -3}) {
        std::vector<std::size_t> order;
        bool inline_only = true;
        parallelFor(20, workers, [&](std::size_t i) {
            order.push_back(i);
            inline_only = inline_only && std::this_thread::get_id() == caller;
        });
        ASSERT_EQ(order.size(), 20u) << "workers " << workers;
        for (std::size_t i = 0; i < order.size(); ++i)
            EXPECT_EQ(order[i], i) << "workers " << workers;
        EXPECT_TRUE(inline_only) << "workers " << workers;
    }
}

TEST(ParallelFor, UsesSeveralThreads)
{
    std::mutex mutex;
    std::set<std::thread::id> ids;
    parallelFor(64, 4, [&](std::size_t) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        std::lock_guard<std::mutex> lock(mutex);
        ids.insert(std::this_thread::get_id());
    });
    EXPECT_GT(ids.size(), 1u);
}

TEST(ParallelFor, RethrowsFirstExceptionAfterJoin)
{
    // The caller runs index 0 first and throws at once: every body that
    // started must have returned before the rethrow, and the indices
    // nobody had claimed yet are skipped.
    constexpr std::size_t kCount = 1000;
    std::atomic<int> started{0};
    std::atomic<int> finished{0};
    try {
        parallelFor(kCount, 4, [&](std::size_t i) {
            ++started;
            if (i == 0)
                throw std::runtime_error("index 0 failed");
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
            ++finished;
        });
        ADD_FAILURE() << "the exception was swallowed";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "index 0 failed");
    }
    EXPECT_EQ(finished.load(), started.load() - 1);
    EXPECT_LT(started.load(), static_cast<int>(kCount));
}

TEST(ParallelFor, ThrowingBodyUnderContentionIsSafe)
{
    // Many throwing bodies in flight at once: one error surfaces, never
    // a terminate() or a hang, and every body that started has returned.
    for (int round = 0; round < 20; ++round) {
        std::atomic<int> started{0};
        std::atomic<int> threw{0};
        std::atomic<int> finished{0};
        EXPECT_THROW(parallelFor(200, 4,
                                 [&](std::size_t i) {
                                     ++started;
                                     if (i % 17 == 3) {
                                         ++threw;
                                         throw std::runtime_error("boom");
                                     }
                                     ++finished;
                                 }),
                     std::runtime_error);
        EXPECT_GE(threw.load(), 1);
        EXPECT_EQ(finished.load() + threw.load(), started.load());
        EXPECT_LE(started.load(), 200);
    }
}

TEST(CancelToken, PollThrowsAfterCancel)
{
    CancelToken token;
    EXPECT_NO_THROW(token.poll());
    token.requestCancel();
    EXPECT_TRUE(token.cancelled());
    EXPECT_THROW(token.poll(), Cancelled);
}

TEST(CancelToken, DeadlineExpires)
{
    CancelToken token;
    EXPECT_FALSE(token.hasDeadline());
    token.setTimeout(0.0); // ignored
    EXPECT_FALSE(token.hasDeadline());
    token.setDeadline(CancelToken::Clock::now() -
                      std::chrono::milliseconds(1));
    EXPECT_TRUE(token.hasDeadline());
    EXPECT_TRUE(token.deadlineExpired());
    EXPECT_THROW(token.poll(), DeadlineExceeded);
}

// -------------------------------------------- every numeric knob and flag

/** One numeric DRS_* knob or bench flag, and the consumer that reads it. */
struct KnobCase
{
    const char *name;     ///< the environment variable, or a --flag
    bool integer;         ///< a fraction is malformed too
    const char *pastMax;  ///< one past the largest accepted value
    const char *spaced;   ///< an accepted value with trailing whitespace
    double spacedValue;   ///< what the consumer takes from it
    bool warnsOnce;       ///< warns once per process, not once per read
    /** The consumer's value; a flag's reader gets its text (or null). */
    double (*read)(const char *flagText);
};

harness::ExperimentScale
scale()
{
    return harness::ExperimentScale::fromEnvironment();
}

harness::SweepOptions
sweep()
{
    return harness::SweepOptions::fromEnvironment();
}

fleet::FleetOptions
fleetOptions()
{
    return fleet::FleetOptions::fromEnvironment();
}

/** bench::parseOptions with @p flag set to @p text (unset when null). */
bench::Options
benchOptions(const char *flag = nullptr, const char *text = nullptr)
{
    std::string program = "bench", name = flag ? flag : "",
                value = text ? text : "";
    char *argv[] = {program.data(), name.data(), value.data()};
    return bench::parseOptions(flag && text ? 3 : 1, argv);
}

constexpr const char *kPastUint64 = "18446744073709551616";
constexpr const char *kPastInt = "2147483648";
constexpr const char *kPastSeconds = "1000000001";

const KnobCase kKnobs[] = {
    {"DRS_RAYS", true, kPastUint64, "7 ", 7, false,
     [](const char *) { return double(scale().raysPerBounce); }},
    {"DRS_SCALE", false, "1e39", "0.5 ", 0.5, false,
     [](const char *) { return double(scale().sceneScale); }},
    {"DRS_SMX", true, kPastInt, "3 ", 3, false,
     [](const char *) { return double(scale().numSmx); }},
    {"DRS_WIDTH", true, kPastInt, "33 ", 33, false,
     [](const char *) { return double(scale().width); }},
    {"DRS_HEIGHT", true, kPastInt, "17 ", 17, false,
     [](const char *) { return double(scale().height); }},
    {"DRS_SPP", true, kPastInt, "4 ", 4, false,
     [](const char *) { return double(scale().samplesPerPixel); }},
    {"DRS_TRACE_CAPACITY", true, "1048577", "512 ", 512, false,
     [](const char *) {
         return double(obs::TraceConfig::fromEnvironment().capacity);
     }},
    {"DRS_SAMPLE", true, kPastUint64, "100 ", 100, false,
     [](const char *) {
         return double(obs::SampleConfig::fromEnvironment().interval);
     }},
    {"DRS_SAMPLE_CAPACITY", true, "1048577", "64 ", 64, false,
     [](const char *) {
         return double(obs::SampleConfig::fromEnvironment().capacity);
     }},
    {"DRS_FAULT_SEED", true, kPastUint64, "0x10 ", 16, false,
     [](const char *) {
         return double(fault::FaultConfig::fromEnvironment().seed);
     }},
    {"DRS_WATCHDOG", true, kPastUint64, "99 ", 99, false,
     [](const char *) {
         return double(fault::watchdogCyclesFromEnvironment());
     }},
    {"DRS_LOG_RATE", true, "1000001", "5 ", 5, false,
     [](const char *) {
         return double(obs::LogConfig::fromEnvironment().maxEventsPerWindow);
     }},
    {"DRS_CHECK", true, "2", "1 ", 1, true,
     [](const char *) { return double(check::checkEnabled(-1)); }},
    {"DRS_JOBS", true, kPastInt, "3 ", 3, false,
     [](const char *) { return double(defaultConcurrency()); }},
    {"DRS_JOB_TIMEOUT", false, kPastSeconds, "2.5 ", 2.5, false,
     [](const char *) { return sweep().jobTimeoutSeconds; }},
    {"DRS_RETRY_DEADLINE", false, kPastSeconds, "2.5 ", 2.5, false,
     [](const char *) { return sweep().retryDeadlineSeconds; }},
    {"DRS_CRASH_AFTER", true, kPastInt, "3 ", 3, false,
     [](const char *) { return double(sweep().crashAfter); }},
    {"DRS_FLEET_HEARTBEAT", false, kPastSeconds, "0.5 ", 0.5, false,
     [](const char *) { return fleetOptions().heartbeatSeconds; }},
    {"DRS_FLEET_HEARTBEAT_TIMEOUT", false, kPastSeconds, "3.5 ", 3.5, false,
     [](const char *) { return fleetOptions().heartbeatTimeoutSeconds; }},
    {"DRS_FLEET_RESPAWNS", true, "1000001", "12 ", 12, false,
     [](const char *) { return double(fleetOptions().maxRespawns); }},
    {"DRS_FLEET_QUARANTINE", true, "1000001", "4 ", 4, false,
     [](const char *) { return double(fleetOptions().quarantineDeaths); }},
    {"DRS_FLEET_BACKOFF", false, kPastSeconds, "0.5 ", 0.5, false,
     [](const char *) { return fleetOptions().backoffSeconds; }},
    {"DRS_FLEET_CHAOS", true, kPastUint64, "0xbeef ", 0xbeef, false,
     [](const char *) { return double(fleetOptions().chaos.seed); }},
    {"DRS_FLEET_CHAOS_RATE", false, "1.5", "0.25 ", 0.25, false,
     [](const char *) { return fleetOptions().chaos.killRate; }},
    {"DRS_FLEET_CHAOS_KILLS", true, "1000001", "3 ", 3, false,
     [](const char *) {
         return double(fleetOptions().chaos.maxKillDispatches);
     }},
    // The bench binaries read DRS_FLEET and pass it to the fleet.
    {"DRS_FLEET", true, "1025", "5 ", 5, false,
     [](const char *) { return double(benchOptions().fleetWorkers); }},
    {"DRS_SMX_THREADS", true, "1000001", "4 ", 4, false,
     [](const char *) { return double(benchOptions().smxThreads); }},
    {"DRS_PROGRESS", true, "2", "1 ", 1, false,
     [](const char *) { return double(benchOptions().progress); }},
    {"--jobs", true, kPastInt, "3 ", 3, false,
     [](const char *text) {
         return double(benchOptions("--jobs", text).jobs);
     }},
    {"--fleet", true, "1025", "5 ", 5, false,
     [](const char *text) {
         return double(benchOptions("--fleet", text).fleetWorkers);
     }},
    {"--smx-threads", true, "1000001", "4 ", 4, false,
     [](const char *text) {
         return double(benchOptions("--smx-threads", text).smxThreads);
     }},
};

/**
 * @p knob's value with it set to @p text (unset when null). A variable
 * set around the test (run_checks.sh runs it under DRS_CHECK=1) is put
 * back afterwards.
 */
double
readKnob(const KnobCase &knob, const char *text)
{
    if (knob.name[0] == '-')
        return knob.read(text);
    const char *outer = std::getenv(knob.name);
    const std::string saved = outer != nullptr ? outer : "";
    if (text != nullptr)
        setenv(knob.name, text, 1);
    else
        unsetenv(knob.name);
    const double value = knob.read(nullptr);
    if (outer != nullptr)
        setenv(knob.name, saved.c_str(), 1);
    else
        unsetenv(knob.name);
    return value;
}

TEST(Knobs, EveryNumericKnobAndFlagParsesStrictly)
{
    for (const KnobCase &knob : kKnobs) {
        const double fallback = readKnob(knob, nullptr);
        std::vector<std::string> malformed = {"", "abc", "4x", "-1",
                                              knob.pastMax};
        if (knob.integer)
            malformed.push_back("1.5");
        int warnings = 0;
        for (const std::string &text : malformed) {
            testing::internal::CaptureStderr();
            const double value = readKnob(knob, text.c_str());
            const std::string printed = testing::internal::GetCapturedStderr();
            EXPECT_EQ(value, fallback) << knob.name << "='" << text << "'";
            const std::string warning = std::string("warning: ignoring ") +
                                        "malformed " + knob.name + "='" +
                                        text + "'";
            const bool warned = printed.find(warning) != std::string::npos;
            if (!knob.warnsOnce) {
                EXPECT_TRUE(warned) << knob.name << "='" << text
                                    << "' printed: " << printed;
            }
            warnings += warned ? 1 : 0;
        }
        if (knob.warnsOnce) {
            EXPECT_EQ(warnings, 1) << knob.name;
        }
        EXPECT_EQ(readKnob(knob, knob.spaced), knob.spacedValue)
            << knob.name << "='" << knob.spaced << "'";
    }
}

TEST(Knobs, BenchFleetRunReadsEachKnobOnce)
{
    // A fleet bench run parses its options, builds run configs, then the
    // fleet's options: DRS_FLEET and the trace knobs must warn once.
    const char *names[] = {"DRS_FLEET", "DRS_TRACE", "DRS_TRACE_CAPACITY",
                           "DRS_SAMPLE"};
    std::vector<std::pair<std::string, bool>> saved;
    for (const char *name : names) {
        const char *outer = std::getenv(name);
        saved.emplace_back(outer != nullptr ? outer : "", outer != nullptr);
    }
    setenv("DRS_FLEET", "abc", 1);
    setenv("DRS_TRACE", "coord-trace", 1);
    setenv("DRS_TRACE_CAPACITY", "abc", 1);
    setenv("DRS_SAMPLE", "abc", 1);

    testing::internal::CaptureStderr();
    const bench::Options options = benchOptions("--fleet", "2");
    harness::ExperimentScale scale;
    for (int job = 0; job < 3; ++job)
        (void)bench::makeRunConfig(scale, options);
    const fleet::FleetOptions fleet = bench::makeFleetOptions(options);
    const std::string printed = testing::internal::GetCapturedStderr();

    for (std::size_t i = 0; i < std::size(names); ++i) {
        if (saved[i].second)
            setenv(names[i], saved[i].first.c_str(), 1);
        else
            unsetenv(names[i]);
    }

    const auto count = [&](const std::string &needle) {
        std::size_t n = 0;
        for (std::size_t at = printed.find(needle); at != std::string::npos;
             at = printed.find(needle, at + 1))
            ++n;
        return n;
    };
    EXPECT_EQ(count("malformed DRS_FLEET='abc'"), 1u) << printed;
    EXPECT_EQ(count("malformed DRS_TRACE_CAPACITY='abc'"), 1u) << printed;
    EXPECT_EQ(count("malformed DRS_SAMPLE='abc'"), 1u) << printed;
    EXPECT_EQ(fleet.workers, 2);
    EXPECT_EQ(fleet.tracePath, "coord-trace");
}

TEST(Backoff, DelayIsClampedAndFinite)
{
    // A job that died a million times at the largest base: the callers
    // convert the delay to 64-bit nanoseconds, which must stay defined.
    for (const double base : {1e9, 0.05, 0.0}) {
        const double delay =
            harness::backoffDelay(base, 1'000'000, 7, 11, 3, 1'000'000);
        EXPECT_TRUE(std::isfinite(delay)) << base;
        EXPECT_GE(delay, 0.0) << base;
        EXPECT_LE(delay, kMaxKnobSeconds) << base;
    }
    EXPECT_EQ(harness::backoffDelay(1e9, 1'000'000, 7, 11, 3, 1),
              kMaxKnobSeconds);
    // Small delays are unchanged: base * 2^(step-1) * jitter in [0.5, 1).
    const double third = harness::backoffDelay(0.05, 3, 7, 11, 3, 1);
    EXPECT_GE(third, 0.1);
    EXPECT_LT(third, 0.2);
}

} // namespace
} // namespace drs::exec
