#pragma once

/**
 * @file
 * The cycle engine behind simt::runGpu, which drives every
 * architecture's SMXs through simt::SmxExecutor, and behind the
 * standalone SmxExecutor::run: an event-driven sequential loop and a
 * barrier-threaded loop that steps every cycle, over any SMX-like type
 * exposing done()/step()/commitMemory()/nextEventCycle()/skipTo().
 *
 * SMXs buffer shared-side (L2/DRAM) requests during a cycle's step
 * phase; both loops commit them afterwards in SMX-index order, so the L2
 * observes one canonical access interleaving no matter how many worker
 * threads step the SMXs or which cycles an SMX skips. This is what makes
 * the two engines' SimStats bit-identical (see DESIGN.md, "Parallel
 * execution model").
 */

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cstdint>
#include <exception>
#include <limits>
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
 * Engine policing after the clock advanced from @p from to @p cycle:
 * forward-progress watchdog and cooperative cancellation. Shared by the
 * sequential driver (called at every event) and the parallel driver
 * (called from the barrier completion step, one cycle at a time).
 * Throws fault::WatchdogTimeout / exec::Cancelled /
 * exec::DeadlineExceeded. The deadline check reads the clock, so it is
 * amortized: it runs when the advance crosses a multiple of 1024;
 * cancellation is a plain atomic load checked every time. Before the
 * watchdog's dump, every live SMX is brought up to @p cycle.
 */
template <typename SmxLike>
void
policeCycle(const std::vector<SmxLike *> &smxs, std::uint64_t from,
            std::uint64_t cycle, fault::Watchdog *watchdog,
            const exec::CancelToken *cancel)
{
    if (watchdog != nullptr && watchdog->enabled()) {
        std::uint64_t progress = 0;
        for (SmxLike *smx : smxs)
            progress += smx->progressCount();
        if (watchdog->observe(cycle, progress)) {
            for (SmxLike *smx : smxs)
                if (!smx->done())
                    smx->skipTo(cycle);
            throw fault::WatchdogTimeout(cycle, watchdog->budgetCycles(),
                                         describeEngineState(smxs));
        }
    }
    if (cancel != nullptr) {
        if (cancel->cancelled())
            throw exec::Cancelled("simulation cancelled");
        if ((from >> 10) != (cycle >> 10) && cancel->deadlineExpired())
            throw exec::DeadlineExceeded("simulation deadline exceeded");
    }
}

/**
 * The sequential driver. It jumps straight to the earliest cycle at
 * which some SMX has an event (SmxLike::nextEventCycle()), brings the
 * SMXs due then up to it (skipTo) and steps them in index order, then
 * commits them in index order. An SMX that is not due has nothing to
 * commit, so the L2 sees the same (cycle, SMX, issue order) sequence as
 * a loop that steps every SMX every cycle. The jump never passes the
 * cycle at which the watchdog would fire, nor max_cycles.
 */
template <typename SmxLike>
void
runEventLoop(const std::vector<SmxLike *> &smxs, std::uint64_t max_cycles,
             fault::Watchdog *watchdog, const exec::CancelToken *cancel)
{
    if (max_cycles == 0)
        throw std::runtime_error("GPU simulation exceeded max_cycles");

    // Cycles completed: every SMX is stepped or skipped up to here.
    std::uint64_t cycle = 0;
    for (;;) {
        std::uint64_t target = std::numeric_limits<std::uint64_t>::max();
        bool live = false;
        for (SmxLike *smx : smxs) {
            if (!smx->done()) {
                live = true;
                target = std::min(target, smx->nextEventCycle());
            }
        }
        if (!live)
            return;
        // The per-cycle loop gives up after stepping cycle max_cycles - 1,
        // and observes the watchdog after every cycle.
        target = std::min(target, max_cycles - 1);
        if (watchdog != nullptr && watchdog->enabled()) {
            const std::uint64_t last = watchdog->lastProgressCycle();
            const std::uint64_t budget = watchdog->budgetCycles();
            if (budget <= std::numeric_limits<std::uint64_t>::max() - last)
                target = std::min(target, last + budget);
        }

        for (SmxLike *smx : smxs) {
            if (!smx->done() && smx->nextEventCycle() <= target) {
                smx->skipTo(target);
                smx->step();
            }
        }
        for (SmxLike *smx : smxs)
            smx->commitMemory();

        const std::uint64_t from = cycle;
        cycle = target + 1;
        policeCycle(smxs, from, cycle, watchdog, cancel);
        if (cycle >= max_cycles)
            throw std::runtime_error("GPU simulation exceeded max_cycles");
    }
}

/**
 * Run @p smxs until all are done.
 *
 * @param smxs SMXs in commit order (index order defines L2 ordering)
 * @param max_cycles safety bound; throws std::runtime_error when exceeded
 * @param threads worker threads; <= 1 runs the event-driven sequential
 *        driver, more run the barrier-threaded one, which steps every
 *        SMX every cycle
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
        runEventLoop(smxs, max_cycles, watchdog, cancel);
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
                policeCycle(smxs, cycle - 1, cycle, watchdog, cancel);
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
