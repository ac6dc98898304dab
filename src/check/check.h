#pragma once

/**
 * @file
 * The concrete invariant checker behind the simt::CheckContext hook.
 *
 * Dependency-light by design: it reads public state of the SIMT core and
 * the traversal workspace and throws on any violated invariant. It never
 * mutates simulation state, so a checked run produces bit-identical
 * SimStats to an unchecked one (pinned by tests/test_check.cc).
 *
 * Enabling: set DRS_CHECK=1 in the environment (the harness consults
 * checkEnabled()) or force it per run with harness::RunConfig::check.
 */

#include <stdexcept>

#include "simt/check.h"

namespace drs::kernels {
class TravWorkspace;
}

namespace drs::check {

/** Thrown by the checkers in this library on a violated invariant. */
class InvariantViolation : public std::logic_error
{
  public:
    using std::logic_error::logic_error;
};

/**
 * Whether invariant checking is requested.
 *
 * @param mode 0 = off, 1 = on, -1 = consult the DRS_CHECK environment
 *        variable: unset or "0" is off, "1" is on; any other value,
 *        empty included, warns once per process on stderr and stays
 *        off (fail-safe — a typo must not silently change what a run
 *        measures).
 */
bool checkEnabled(int mode = -1);

/**
 * Traversal-workspace invariants: empty slots hold no ray id, live slots
 * hold in-stripe unique ray ids with a sane leaf cursor, the row census
 * (each row's per-state lane masks and the live-ray count) matches a
 * recount from the slot states, and rays are conserved.
 *
 * @param strict every ray of the stripe must be inside the workspace
 *        (completed + live + unfetched == stripe size). False for
 *        architectures that legally park rays outside the rows (the DMK
 *        spawn memory); conservation then checks "<=" and the controller
 *        accounts for the parked remainder in its own verifyInvariants().
 */
void verifyWorkspace(const kernels::TravWorkspace &workspace, bool strict);

/**
 * Counter/SimStats lockstep: every scalar SimStats field that mirrors an
 * observability counter must equal the counter's snapshot value. Only
 * names present in the snapshot are compared, so the check applies to
 * any architecture's stats object.
 */
void verifyStatsLockstep(const simt::SimStats &stats);

/**
 * The checker the SMX (and the TBC executor) calls under DRS_CHECK.
 * Stateless and const: one instance can serve every SMX of a run.
 */
class Checker : public simt::CheckContext
{
  public:
    /**
     * Reconvergence-stack well-formedness: non-empty, bottom entry
     * reconverges at the exit block, pcs/rpcs inside the program, masks
     * within the warp width, pushed entries non-empty, every entry a
     * child or sibling in the IPDOM tree, child masks subsets of their
     * parent's, sibling masks pairwise disjoint.
     */
    void checkWarp(const simt::Warp &warp,
                   const simt::Program &program) const override;

    /** Cache-model invariants of both L1s (bounds, LRU consistency). */
    void checkMemory(const simt::SmxMemory &memory) const override;

    /**
     * Workspace ray-conservation invariants (verifyWorkspace, non-strict)
     * when the kernel's workspace is a TravWorkspace; other workspaces
     * are skipped.
     */
    void checkKernel(simt::Kernel &kernel) const override;

    /** Counter/SimStats lockstep (verifyStatsLockstep). */
    void checkStats(const simt::SimStats &stats) const override;
};

} // namespace drs::check
