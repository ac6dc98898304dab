#pragma once

/**
 * @file
 * The cycle-stepping engine behind simt::runGpu, which drives every
 * architecture's SMXs through simt::SmxExecutor, and behind the
 * standalone SmxExecutor::run: a sequential and a parallel stepping loop
 * over any SMX-like type exposing done()/step()/commitMemory().
 *
 * SMXs buffer shared-side (L2/DRAM) requests during a cycle's step
 * phase; both loops commit them afterwards in SMX-index order, so the L2
 * observes one canonical access interleaving no matter how many worker
 * threads step the SMXs. This is what makes the parallel engine's
 * SimStats bit-identical to the sequential engine's (see DESIGN.md,
 * "Parallel execution model").
 */

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cstdint>
#include <exception>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "exec/cancel.h"
#include "fault/fault.h"

namespace drs::simt {

/**
 * Diagnostic dump of every SMX's architectural state, for the watchdog's
 * timeout report.
 */
template <typename SmxLike>
std::string
describeEngineState(const std::vector<SmxLike *> &smxs)
{
    std::ostringstream out;
    for (std::size_t i = 0; i < smxs.size(); ++i) {
        out << "SMX " << i << (smxs[i]->done() ? " (done)" : "") << ":\n";
        smxs[i]->describeState(out);
    }
    return out.str();
}

/**
 * Per-cycle engine policing: forward-progress watchdog and cooperative
 * cancellation. Shared by the sequential driver (called inline) and the
 * parallel driver (called from the barrier completion step). Throws
 * fault::WatchdogTimeout / exec::Cancelled / exec::DeadlineExceeded.
 * The deadline check reads the clock, so it is amortized over 1024-cycle
 * windows; cancellation is a plain atomic load checked every cycle.
 */
template <typename SmxLike>
void
policeCycle(const std::vector<SmxLike *> &smxs, std::uint64_t cycle,
            fault::Watchdog *watchdog, const exec::CancelToken *cancel)
{
    if (watchdog != nullptr && watchdog->enabled()) {
        std::uint64_t progress = 0;
        for (SmxLike *smx : smxs)
            progress += smx->progressCount();
        if (watchdog->observe(cycle, progress))
            throw fault::WatchdogTimeout(cycle, watchdog->budgetCycles(),
                                         describeEngineState(smxs));
    }
    if (cancel != nullptr) {
        if (cancel->cancelled())
            throw exec::Cancelled("simulation cancelled");
        if ((cycle & 1023u) == 0 && cancel->deadlineExpired())
            throw exec::DeadlineExceeded("simulation deadline exceeded");
    }
}

/**
 * Step @p smxs cycle by cycle until all are done.
 *
 * @param smxs SMXs in commit order (index order defines L2 ordering)
 * @param max_cycles safety bound; throws std::runtime_error when exceeded
 * @param threads worker threads; <= 1 runs the sequential driver
 * @param watchdog optional forward-progress watchdog; when it fires the
 *        engine throws fault::WatchdogTimeout carrying a diagnostic dump
 *        of every SMX (IPDOM stacks, row ownership, pending memory ops)
 * @param cancel optional cooperative stop/deadline token
 */
template <typename SmxLike>
void
runEngine(const std::vector<SmxLike *> &smxs, std::uint64_t max_cycles,
          int threads, fault::Watchdog *watchdog = nullptr,
          const exec::CancelToken *cancel = nullptr)
{
    bool all_done = true;
    for (SmxLike *smx : smxs)
        all_done = all_done && smx->done();
    if (all_done)
        return;

    if (threads <= 1 || smxs.size() <= 1) {
        std::uint64_t cycle = 0;
        while (!all_done && cycle < max_cycles) {
            all_done = true;
            for (SmxLike *smx : smxs) {
                if (!smx->done()) {
                    smx->step();
                    all_done = false;
                }
            }
            for (SmxLike *smx : smxs)
                smx->commitMemory();
            ++cycle;
            policeCycle(smxs, cycle, watchdog, cancel);
        }
        if (!all_done)
            throw std::runtime_error("GPU simulation exceeded max_cycles");
        return;
    }

    const int workers = std::min<int>(threads, static_cast<int>(smxs.size()));

    std::atomic<bool> stop{false};
    std::atomic<bool> timed_out{false};
    std::mutex error_mutex;
    std::exception_ptr error;

    // The completion step runs exactly once per cycle, by whichever
    // worker arrives last, strictly between two step phases.
    std::uint64_t cycle = 0;
    auto on_cycle_complete = [&]() noexcept {
        bool done_now = true;
        for (SmxLike *smx : smxs) {
            smx->commitMemory();
            done_now = done_now && smx->done();
        }
        ++cycle;
        if (!done_now && !error) {
            // The completion step is noexcept (a throw through a barrier
            // terminates), so policing failures become the stored engine
            // error like a step() failure would.
            try {
                policeCycle(smxs, cycle, watchdog, cancel);
            } catch (...) {
                std::lock_guard<std::mutex> lock(error_mutex);
                if (!error)
                    error = std::current_exception();
            }
        }
        if (done_now || error)
            stop.store(true, std::memory_order_release);
        else if (cycle >= max_cycles) {
            timed_out.store(true, std::memory_order_relaxed);
            stop.store(true, std::memory_order_release);
        }
    };
    std::barrier sync(workers, on_cycle_complete);

    auto worker = [&](int index) {
        while (!stop.load(std::memory_order_acquire)) {
            for (std::size_t i = static_cast<std::size_t>(index);
                 i < smxs.size(); i += static_cast<std::size_t>(workers)) {
                SmxLike *smx = smxs[i];
                if (smx->done())
                    continue;
                try {
                    smx->step();
                } catch (...) {
                    std::lock_guard<std::mutex> lock(error_mutex);
                    if (!error)
                        error = std::current_exception();
                }
            }
            // Workers always reach the barrier, even on error, so nobody
            // deadlocks; the completion step turns the error into a stop.
            sync.arrive_and_wait();
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(workers - 1));
    for (int t = 1; t < workers; ++t)
        pool.emplace_back(worker, t);
    worker(0);
    for (auto &t : pool)
        t.join();

    if (error)
        std::rethrow_exception(error);
    if (timed_out.load())
        throw std::runtime_error("GPU simulation exceeded max_cycles");
}

} // namespace drs::simt
