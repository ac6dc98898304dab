#pragma once

/**
 * @file
 * The cycle engine behind simt::runGpu, which drives every
 * architecture's SMXs through simt::SmxExecutor, and behind the
 * standalone SmxExecutor::run: one event-driven loop that steps each SMX
 * only at its events.
 *
 * An SMX's warps reach the GPU-wide L2 as they issue, within step(),
 * and an SMX makes no access in the cycles it skips. The loop steps the
 * SMXs due in a cycle in index order, so that order alone gives the L2
 * one canonical (cycle, SMX, issue order) interleaving, whichever cycles
 * an SMX skips. This is what keeps the event-driven loop's SimStats
 * bit-identical to stepping every SMX every cycle (see DESIGN.md,
 * "Parallel execution model").
 */

#include <cstdint>
#include <string>
#include <vector>

#include "exec/cancel.h"
#include "fault/fault.h"
#include "simt/smx.h"

namespace drs::simt {

/**
 * Diagnostic dump of every SMX's architectural state, for the watchdog's
 * timeout report.
 */
std::string describeEngineState(const std::vector<SmxExecutor *> &smxs);

/**
 * Run @p smxs until all are done. The loop jumps straight to the
 * earliest cycle at which some SMX has an event
 * (SmxExecutor::nextEventCycle()), brings the SMXs due then up to it
 * (skipTo) and steps them in index order. An SMX that is not due makes
 * no memory access, so the L2 sees the same (cycle, SMX, issue order)
 * sequence as a loop that steps every SMX every cycle. The jump never
 * passes the cycle at which the watchdog would fire, nor max_cycles.
 * After every jump the watchdog observes the SMXs' progress and the
 * cancel token is polled.
 *
 * @param smxs SMXs in step order (index order defines L2 ordering)
 * @param max_cycles safety bound; throws std::runtime_error when exceeded
 * @param watchdog optional forward-progress watchdog; when it fires the
 *        engine brings every live SMX up to the firing cycle and throws
 *        fault::WatchdogTimeout carrying a diagnostic dump of every SMX
 *        (IPDOM stacks, row ownership, pending memory ops)
 * @param cancel optional cooperative stop/deadline token; throws
 *        exec::Cancelled / exec::DeadlineExceeded. The deadline check
 *        reads the clock, so it runs only when a jump crosses a
 *        multiple of 1024 cycles.
 */
void runEngine(const std::vector<SmxExecutor *> &smxs,
               std::uint64_t max_cycles,
               fault::Watchdog *watchdog = nullptr,
               const exec::CancelToken *cancel = nullptr);

} // namespace drs::simt
