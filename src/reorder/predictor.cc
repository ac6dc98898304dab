#include "reorder/predictor.h"

#include <algorithm>

#include "reorder/reorder.h"

namespace drs::reorder {

namespace {

/** 64-bit finalizer (splitmix64) — spreads the key over the table. */
std::uint64_t
mix64(std::uint64_t v)
{
    v += 0x9e3779b97f4a7c15ull;
    v = (v ^ (v >> 30)) * 0xbf58476d1ce4e5b9ull;
    v = (v ^ (v >> 27)) * 0x94d049bb133111ebull;
    return v ^ (v >> 31);
}

} // namespace

std::uint64_t
pathPredKey(const geom::Ray &ray, const geom::Aabb &bounds,
            const PredictorConfig &config)
{
    ReorderConfig grid;
    grid.originBits = config.originBits;
    grid.directionOctant = true;
    std::uint64_t key = hashGridKey(ray, bounds, grid);

    const int dir_bits = std::clamp(config.directionBits, 0, 8);
    if (dir_bits > 0) {
        // Directions are unit-length in practice; quantize each
        // component over [-1, 1] for angular resolution beyond the
        // octant.
        for (const float component :
             {ray.direction.x, ray.direction.y, ray.direction.z})
            key = (key << dir_bits) |
                  quantize(component, -1.0f, 1.0f, dir_bits);
    }
    return key;
}

PredictorTable::PredictorTable(const PredictorConfig &config)
{
    const int bits = std::clamp(config.tableBits, 1, 24);
    entries_.assign(std::size_t{1} << bits, Entry{});
}

std::size_t
PredictorTable::index(std::uint64_t key) const
{
    return mix64(key) & (entries_.size() - 1);
}

std::int32_t
PredictorTable::lookup(std::uint64_t key) const
{
    const Entry &entry = entries_[index(key)];
    if (entry.leaf >= 0 && entry.tag == key)
        return entry.leaf;
    return -1;
}

void
PredictorTable::insert(std::uint64_t key, std::int32_t leaf)
{
    if (leaf < 0)
        return;
    entries_[index(key)] = Entry{key, leaf};
}

} // namespace drs::reorder
