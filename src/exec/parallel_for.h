#pragma once

/**
 * @file
 * Host-side parallel loop for the sweep harness and the benches. Sits
 * below src/simt in the dependency order: it knows nothing about
 * rendering or simulation.
 */

#include <atomic>
#include <cstddef>
#include <functional>

namespace drs::exec {

/**
 * Worker count for this process: DRS_JOBS when set to a positive
 * integer (malformed values warn, only once per @p warnedOnce when
 * given), else the hardware thread count, else 1.
 */
int defaultConcurrency(std::atomic<bool> *warnedOnce = nullptr);

/**
 * Run @p body(i) for every i in [0, count) on up to @p workers threads,
 * the caller's included. With workers <= 1 the loop runs inline in index
 * order. Otherwise worker w runs w, w+W, w+2W, ... in order, then claims
 * what is left from the highest index down, taking the tail off slower
 * workers. An exception stops further indices from starting; the first
 * one is rethrown after every thread has joined.
 */
void parallelFor(std::size_t count, int workers,
                 const std::function<void(std::size_t)> &body);

} // namespace drs::exec
