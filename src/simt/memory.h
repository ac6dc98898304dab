#pragma once

/**
 * @file
 * Memory hierarchy: per-SMX L1 data and L1 texture caches in front of a
 * GPU-wide shared L2 and a fixed-latency DRAM, as configured by the
 * paper's Table 1. A warp memory instruction coalesces its lanes'
 * addresses into distinct cache lines; the warp then waits for the worst
 * line plus a small per-line serialization charge.
 */

#include <cstdint>
#include <vector>

#include "simt/cache.h"
#include "simt/config.h"
#include "simt/kernel_ir.h"

namespace drs::simt {

/** The GPU-wide shared memory side (L2 + DRAM). */
class SharedMemorySide
{
  public:
    explicit SharedMemorySide(const MemoryConfig &config);

    /** Access one line address; returns latency beyond the L1 miss. */
    std::uint32_t accessLine(std::uint64_t address);

    const CacheStats &l2Stats() const { return l2_.stats(); }
    void resetStats() { l2_.resetStats(); }
    void flush() { l2_.flush(); }

    /** L2 structural invariants; throws std::logic_error on violation. */
    void verifyInvariants() const { l2_.verifyInvariants(); }

    /**
     * Attach a fault injector (nullptr detaches). Arms L2 tag corruption
     * plus delayed/dropped DRAM responses: a delayed response adds extra
     * cycles to the line latency, a dropped one charges a full retry
     * penalty. Only the engine's commit, in SMX-index order, reaches this
     * object, so the injector's RNG stream stays deterministic.
     */
    void setFault(fault::FaultInjector *fault)
    {
        fault_ = fault;
        l2_.setFault(fault);
    }

  private:
    MemoryConfig config_;
    Cache l2_;
    fault::FaultInjector *fault_ = nullptr;
};

/**
 * One warp access with its private (L1) half resolved and its shared (L2)
 * half still pending. Every SMX buffers these while it steps and commits
 * them to the SharedMemorySide after the cycle in SMX-index order, so the
 * L2 sees one access interleaving whichever cycles an SMX skips.
 */
struct PendingWarpAccess
{
    /** Worst latency among lines already satisfied by the L1. */
    std::uint32_t baseLatency = 0;
    /** Per-line serialization charge (fixed at resolve time). */
    std::uint32_t extraLatency = 0;
    /** L1 hit latency added in front of each pending L2 line. */
    std::uint32_t l1Latency = 0;
    /**
     * The lines that missed the L1: entries [firstMiss, firstMiss +
     * missCount) of the resolving SmxMemory's pending-line buffer.
     */
    std::uint32_t firstMiss = 0;
    std::uint32_t missCount = 0;
};

/** The per-SMX memory path (both L1s), backed by a SharedMemorySide. */
class SmxMemory
{
  public:
    SmxMemory(const MemoryConfig &config, SharedMemorySide &shared);

    /**
     * Perform a coalesced warp access.
     *
     * @param space Global (L1D) or Texture (L1T)
     * @param addresses per-active-lane byte addresses
     * @param bytes access width per lane
     * @return total warp latency in cycles
     */
    std::uint32_t warpAccess(MemSpace space,
                             const std::vector<std::uint64_t> &addresses,
                             std::uint32_t bytes);

    /**
     * Phase 1 of a warp access: coalesce lanes into lines and look them up
     * in the private L1 (which this call updates). Lines that miss are
     * kept for a later commitAccess() against the shared side; the L2 is
     * NOT touched. warpAccess() == resolveL1() + commitAccess().
     */
    PendingWarpAccess resolveL1(MemSpace space,
                                const std::vector<std::uint64_t> &addresses,
                                std::uint32_t bytes);

    /**
     * Phase 2: play the pending L2 lines against the shared side (in the
     * order resolveL1 produced them) and return the final warp latency.
     */
    std::uint32_t commitAccess(const PendingWarpAccess &pending);

    /**
     * Forget the miss lines of every resolved access; call once all of
     * them are committed. The buffers keep their storage.
     */
    void releasePending() { pendingLines_.clear(); }

    const CacheStats &l1DataStats() const { return l1Data_.stats(); }
    const CacheStats &l1TextureStats() const { return l1Texture_.stats(); }
    void resetStats();
    void flush();

    /** Both L1s' structural invariants; throws std::logic_error. */
    void verifyInvariants() const
    {
        l1Data_.verifyInvariants();
        l1Texture_.verifyInvariants();
    }

    /** Arm L1 tag corruption on both private caches (nullptr detaches). */
    void setFault(fault::FaultInjector *fault)
    {
        l1Data_.setFault(fault);
        l1Texture_.setFault(fault);
    }

  private:
    MemoryConfig config_;
    SharedMemorySide &shared_;
    Cache l1Data_;
    Cache l1Texture_;
    /** Coalescing scratch: the distinct lines of one access. */
    std::vector<std::uint64_t> lines_;
    /** Miss lines of the resolved, not yet released accesses. */
    std::vector<std::uint64_t> pendingLines_;
};

} // namespace drs::simt
