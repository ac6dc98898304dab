/**
 * @file
 * Tests of the host-side execution library: the parallel loop,
 * DRS_JOBS-driven default concurrency and cancel tokens.
 */

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "exec/cancel.h"
#include "exec/parallel_for.h"

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

} // namespace
} // namespace drs::exec
