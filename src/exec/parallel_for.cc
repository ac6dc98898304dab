#include "exec/parallel_for.h"

#include <algorithm>
#include <atomic>
#include <climits>
#include <exception>
#include <system_error>
#include <thread>
#include <vector>

#include "exec/env.h"

namespace drs::exec {

int
defaultConcurrency()
{
    int jobs = 0;
    if (envKnob("DRS_JOBS", 1, INT_MAX, jobs))
        return jobs;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

void
parallelFor(std::size_t count, int workers,
            const std::function<void(std::size_t)> &body)
{
    const std::size_t threads =
        std::min(count, static_cast<std::size_t>(std::max(workers, 1)));
    if (threads <= 1) {
        for (std::size_t i = 0; i < count; ++i)
            body(i);
        return;
    }

    std::vector<std::atomic<bool>> claimed(count);
    std::atomic<bool> failed{false};
    std::exception_ptr error; // written only by the thread that set failed
    const auto run = [&](std::size_t i) {
        if (failed.load(std::memory_order_acquire) ||
            claimed[i].load(std::memory_order_relaxed) ||
            claimed[i].exchange(true, std::memory_order_acq_rel))
            return;
        try {
            body(i);
        } catch (...) {
            if (!failed.exchange(true, std::memory_order_acq_rel))
                error = std::current_exception();
        }
    };
    const auto worker = [&](std::size_t w) {
        for (std::size_t i = w; i < count; i += threads)
            run(i);
        for (std::size_t i = count; i-- > 0;)
            run(i);
    };

    std::vector<std::thread> pool;
    pool.reserve(threads - 1);
    for (std::size_t w = 1; w < threads; ++w) {
        try {
            pool.emplace_back(worker, w);
        } catch (const std::system_error &) {
            break; // the others' tail claims cover the missing strides
        }
    }
    worker(0);
    for (std::thread &thread : pool)
        thread.join();
    if (error)
        std::rethrow_exception(error);
}

} // namespace drs::exec
