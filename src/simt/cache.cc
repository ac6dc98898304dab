#include "simt/cache.h"

#include "fault/fault.h"

#include <bit>
#include <stdexcept>

namespace drs::simt {

Cache::Cache(std::uint32_t size_bytes, std::uint32_t line_bytes,
             std::uint32_t ways)
    : lineBytes_(line_bytes), ways_(ways)
{
    if (line_bytes == 0 || (line_bytes & (line_bytes - 1)) != 0)
        throw std::invalid_argument("cache line size must be a power of two");
    if (ways == 0 || size_bytes < line_bytes * ways)
        throw std::invalid_argument("cache too small for its associativity");
    numSets_ = size_bytes / (line_bytes * ways);
    if (numSets_ == 0)
        numSets_ = 1;
    lineShift_ = std::countr_zero(line_bytes);
    if (std::has_single_bit(numSets_))
        setShift_ = std::countr_zero(numSets_);
    lines_.resize(static_cast<std::size_t>(numSets_) * ways_);
}

bool
Cache::access(std::uint64_t address)
{
    if (fault_ && fault_->rollCacheTagFlip())
        corruptRandomTag();

    ++stats_.accesses;
    ++useCounter_;

    const std::uint64_t line_addr = address >> lineShift_;
    std::uint32_t set;
    std::uint64_t tag;
    if (setShift_ >= 0) {
        set = static_cast<std::uint32_t>(line_addr & (numSets_ - 1u));
        tag = line_addr >> setShift_;
    } else {
        set = static_cast<std::uint32_t>(line_addr % numSets_);
        tag = line_addr / numSets_;
    }

    Line *base = &lines_[static_cast<std::size_t>(set) * ways_];
    for (std::uint32_t w = 0; w < ways_; ++w) {
        Line &line = base[w];
        if (line.valid && line.tag == tag) {
            line.lastUse = useCounter_;
            return true;
        }
    }

    // Miss: fill the last invalid way, else the least recently used.
    Line *victim = base;
    for (std::uint32_t w = 0; w < ways_; ++w) {
        Line &line = base[w];
        if (!line.valid)
            victim = &line;
        else if (victim->valid && line.lastUse < victim->lastUse)
            victim = &line;
    }
    ++stats_.misses;
    victim->valid = true;
    victim->tag = tag;
    victim->lastUse = useCounter_;
    return false;
}

void
Cache::corruptRandomTag()
{
    const std::uint32_t set = fault_->pick(numSets_);
    const std::uint32_t way = fault_->pick(ways_);
    Line *base = &lines_[static_cast<std::size_t>(set) * ways_];
    Line &line = base[way];
    if (!line.valid)
        return; // the particle hit an empty frame — no observable effect
    // Tags are line_addr / numSets_; 40 bits comfortably covers the
    // simulator's address space, so the flip always lands in live bits.
    const std::uint64_t flipped = line.tag ^ (1ULL << fault_->pick(40));
    for (std::uint32_t w = 0; w < ways_; ++w) {
        if (w != way && base[w].valid && base[w].tag == flipped) {
            // A duplicate tag would corrupt LRU bookkeeping in ways real
            // hardware ECC would catch; model it as a detected parity
            // error that invalidates the line.
            line = Line{};
            return;
        }
    }
    line.tag = flipped;
}

void
Cache::flush()
{
    // Reset whole lines, not just the valid bits: stale tag/lastUse
    // metadata on invalid lines is dead state the invariant checker
    // rejects, and a live LRU clock would make post-flush recency values
    // depend on pre-flush history.
    for (auto &line : lines_)
        line = Line{};
    useCounter_ = 0;
}

void
Cache::verifyInvariants() const
{
    if (stats_.misses > stats_.accesses)
        throw std::logic_error("Cache: more misses than accesses");
    for (std::uint32_t set = 0; set < numSets_; ++set) {
        const Line *base = &lines_[static_cast<std::size_t>(set) * ways_];
        for (std::uint32_t w = 0; w < ways_; ++w) {
            const Line &line = base[w];
            if (!line.valid) {
                if (line.tag != 0 || line.lastUse != 0)
                    throw std::logic_error(
                        "Cache: invalid line carries stale metadata");
                continue;
            }
            if (line.lastUse == 0 || line.lastUse > useCounter_)
                throw std::logic_error(
                    "Cache: line recency outside the LRU clock range");
            for (std::uint32_t v = 0; v < w; ++v) {
                const Line &other = base[v];
                if (!other.valid)
                    continue;
                if (other.tag == line.tag)
                    throw std::logic_error(
                        "Cache: duplicate tag within one set");
                if (other.lastUse == line.lastUse)
                    throw std::logic_error(
                        "Cache: duplicate recency within one set");
            }
        }
    }
}

} // namespace drs::simt
