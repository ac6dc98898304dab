#include "stats/histogram.h"

#include <cassert>

namespace drs::stats {

double
ActiveThreadHistogram::simdEfficiency() const
{
    if (instructions_ == 0)
        return 0.0;
    return static_cast<double>(activeThreads_) /
           (static_cast<double>(instructions_) * kWarpSize);
}

double
ActiveThreadHistogram::bucketFraction(int b) const
{
    assert(b >= 0 && b < kNumBuckets);
    if (instructions_ == 0)
        return 0.0;
    return static_cast<double>(buckets_[b]) / static_cast<double>(instructions_);
}

double
ActiveThreadHistogram::spawnFraction() const
{
    if (instructions_ == 0)
        return 0.0;
    return static_cast<double>(spawnInstructions_) /
           static_cast<double>(instructions_);
}

void
ActiveThreadHistogram::merge(const ActiveThreadHistogram &other)
{
    instructions_ += other.instructions_;
    spawnInstructions_ += other.spawnInstructions_;
    activeThreads_ += other.activeThreads_;
    for (int i = 0; i < kNumBuckets; ++i)
        buckets_[i] += other.buckets_[i];
    for (int i = 0; i <= kWarpSize; ++i)
        exact_[i] += other.exact_[i];
}

void
ActiveThreadHistogram::reset()
{
    *this = ActiveThreadHistogram{};
}

std::string
ActiveThreadHistogram::bucketLabel(int b)
{
    switch (b) {
      case 0: return "W1:8";
      case 1: return "W9:16";
      case 2: return "W17:24";
      case 3: return "W25:32";
      default: return "W?";
    }
}

} // namespace drs::stats
