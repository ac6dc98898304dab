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
     * penalty. The SMXs reach this object as they issue, and the engine
     * steps them in index order, so the injector's RNG stream stays
     * deterministic.
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

/** The per-SMX memory path (both L1s), backed by a SharedMemorySide. */
class SmxMemory
{
  public:
    SmxMemory(const MemoryConfig &config, SharedMemorySide &shared);

    /**
     * Perform a coalesced warp access: look its lines up in the private
     * L1 and play the misses, in ascending line order, against the
     * shared side.
     *
     * @param space Global (L1D) or Texture (L1T)
     * @param addresses per-active-lane byte addresses
     * @param bytes access width per lane
     * @return total warp latency in cycles
     */
    std::uint32_t warpAccess(MemSpace space,
                             const std::vector<std::uint64_t> &addresses,
                             std::uint32_t bytes);

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
};

} // namespace drs::simt
