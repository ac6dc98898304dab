#pragma once

/**
 * @file
 * Set-associative LRU cache model. Tag-only (no data), single-cycle lookup
 * — latency is modeled by the memory system, this class just tracks
 * hit/miss behaviour and working-set displacement so effects like the
 * paper's "additional backup rays lead to L1 cache thrashing" reproduce.
 */

#include <cstdint>
#include <vector>

namespace drs::fault {
class FaultInjector;
}

namespace drs::simt {

/** Hit/miss statistics of one cache instance. */
struct CacheStats
{
    std::uint64_t accesses = 0;
    std::uint64_t misses = 0;

    double hitRate() const
    {
        return accesses ? 1.0 - static_cast<double>(misses) / accesses : 0.0;
    }

    void merge(const CacheStats &o)
    {
        accesses += o.accesses;
        misses += o.misses;
    }

    /** Exact counter equality (determinism regression tests). */
    bool operator==(const CacheStats &) const = default;
};

/** A set-associative cache with true-LRU replacement. */
class Cache
{
  public:
    /**
     * @param size_bytes total capacity
     * @param line_bytes line size (power of two)
     * @param ways associativity
     */
    Cache(std::uint32_t size_bytes, std::uint32_t line_bytes,
          std::uint32_t ways);

    /**
     * Access the line containing @p address.
     * @return true on hit; on miss the line is filled (allocate-on-miss).
     */
    bool access(std::uint64_t address);

    /** Line size in bytes. */
    std::uint32_t lineBytes() const { return lineBytes_; }

    /** Number of sets. */
    std::uint32_t numSets() const { return numSets_; }

    const CacheStats &stats() const { return stats_; }
    void resetStats() { stats_ = CacheStats{}; }

    /**
     * Invalidate all lines and reset the LRU clock (does not reset
     * stats). Post-flush replacement behaves exactly like a cold cache:
     * no tag or recency metadata of the pre-flush history survives.
     */
    void flush();

    /**
     * Verify structural invariants: every valid line's lastUse is within
     * [1, current use counter] and unique within its set, tags are unique
     * within a set, invalidated lines carry no stale metadata, and misses
     * never exceed accesses.
     * @throws std::logic_error on the first violation found
     */
    void verifyInvariants() const;

    /**
     * Attach a fault injector (nullptr detaches). When armed, each
     * access() may first corrupt a random valid line's tag — modeling a
     * soft error in the tag array. Corruption preserves the structural
     * invariants verifyInvariants() checks: a flip that would duplicate
     * a tag within its set invalidates the line instead.
     */
    void setFault(fault::FaultInjector *fault) { fault_ = fault; }

  private:
    void corruptRandomTag();

    struct Line
    {
        std::uint64_t tag = 0;
        std::uint64_t lastUse = 0;
        bool valid = false;
    };

    std::uint32_t lineBytes_;
    std::uint32_t ways_;
    std::uint32_t numSets_;
    /** log2(lineBytes_): the line address is address >> lineShift_. */
    int lineShift_ = 0;
    /**
     * log2(numSets_) when the set count is a power of two (every
     * GpuConfig default is), else -1 and access() divides.
     */
    int setShift_ = -1;
    std::uint64_t useCounter_ = 0;
    std::vector<Line> lines_; // numSets_ * ways_, set-major
    CacheStats stats_;
    fault::FaultInjector *fault_ = nullptr;
};

} // namespace drs::simt
