#include "simt/memory.h"

#include "fault/fault.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace drs::simt {

SharedMemorySide::SharedMemorySide(const MemoryConfig &config)
    : config_(config),
      l2_(config.l2.sizeBytes, config.l2.lineBytes, config.l2.ways)
{
}

std::uint32_t
SharedMemorySide::accessLine(std::uint64_t address)
{
    const bool hit = l2_.access(address);
    std::uint32_t latency =
        config_.l2.hitLatency + (hit ? 0u : config_.dramLatency);
    if (!hit && fault_)
        latency += fault_->rollDramFault();
    return latency;
}

SmxMemory::SmxMemory(const MemoryConfig &config, SharedMemorySide &shared)
    : config_(config),
      shared_(shared),
      l1Data_(config.l1Data.sizeBytes, config.l1Data.lineBytes,
              config.l1Data.ways),
      l1Texture_(config.l1Texture.sizeBytes, config.l1Texture.lineBytes,
                 config.l1Texture.ways)
{
}

std::uint32_t
SmxMemory::warpAccess(MemSpace space,
                      const std::vector<std::uint64_t> &addresses,
                      std::uint32_t bytes)
{
    if (space == MemSpace::None || addresses.empty())
        return 0;

    Cache &l1 = (space == MemSpace::Texture) ? l1Texture_ : l1Data_;
    const std::uint32_t line = l1.lineBytes();
    const int line_shift = std::countr_zero(line); // a power of two

    // Coalesce: collect the distinct lines this warp instruction touches,
    // in ascending order. An access of `bytes` bytes may straddle a line
    // boundary.
    lines_.clear();
    for (std::uint64_t a : addresses) {
        const std::uint64_t first = a >> line_shift;
        const std::uint64_t last = (a + std::max(bytes, 1u) - 1) >> line_shift;
        for (std::uint64_t l = first; l <= last; ++l) {
            const auto at = std::lower_bound(lines_.begin(), lines_.end(), l);
            if (at == lines_.end() || *at != l)
                lines_.insert(at, l);
        }
    }

    // The warp waits for the slowest line: an L1 hit, or an L1 miss the
    // shared side serves.
    const std::uint32_t l1_latency = (space == MemSpace::Texture)
                                         ? config_.l1Texture.hitLatency
                                         : config_.l1Data.hitLatency;
    std::uint32_t worst = 0;
    for (std::uint64_t l : lines_) {
        const std::uint64_t byte_addr = l * line;
        const std::uint32_t latency =
            l1.access(byte_addr) ? l1_latency
                                 : l1_latency + shared_.accessLine(byte_addr);
        worst = std::max(worst, latency);
    }
    // Additional lines serialize at the L1 port, adding a small per-line
    // charge (memory divergence).
    return worst + static_cast<std::uint32_t>(lines_.size() - 1) *
                       config_.perLineSerialization;
}

void
SmxMemory::resetStats()
{
    l1Data_.resetStats();
    l1Texture_.resetStats();
}

void
SmxMemory::flush()
{
    l1Data_.flush();
    l1Texture_.flush();
}

} // namespace drs::simt
