#include "reorder/reorder.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace drs::reorder {

namespace {

/** Spread the low 10 bits of @p v so there are two zero bits between each. */
std::uint64_t
spreadBits10(std::uint64_t v)
{
    v &= 0x3ffu;
    v = (v | (v << 16)) & 0x030000ffull;
    v = (v | (v << 8)) & 0x0300f00full;
    v = (v | (v << 4)) & 0x030c30c3ull;
    v = (v | (v << 2)) & 0x09249249ull;
    return v;
}

int
clampedOriginBits(const ReorderConfig &config)
{
    return std::clamp(config.originBits, 1, 10);
}

} // namespace

std::uint32_t
quantize(float value, float lo, float hi, int bits)
{
    // Non-finite coordinates (NaN/Inf ray origins reach this through the
    // fuzzer) would fall through both clamp comparisons below and make
    // the float->uint32_t cast undefined. Pin them to cell 0.
    if (!std::isfinite(value))
        return 0;
    const float extent = hi - lo;
    if (!(extent > 0.0f))
        return 0;
    const auto cells = static_cast<float>(1u << bits);
    float cell = std::floor((value - lo) / extent * cells);
    if (cell < 0.0f)
        cell = 0.0f;
    const float last = cells - 1.0f;
    if (cell > last)
        cell = last;
    return static_cast<std::uint32_t>(cell);
}

std::uint32_t
directionOctant(const geom::Vec3 &direction)
{
    return (direction.x < 0.0f ? 1u : 0u) | (direction.y < 0.0f ? 2u : 0u) |
           (direction.z < 0.0f ? 4u : 0u);
}

std::uint64_t
hashGridKey(const geom::Ray &ray, const geom::Aabb &bounds,
            const ReorderConfig &config)
{
    const int bits = clampedOriginBits(config);
    const std::uint32_t qx =
        quantize(ray.origin.x, bounds.lo.x, bounds.hi.x, bits);
    const std::uint32_t qy =
        quantize(ray.origin.y, bounds.lo.y, bounds.hi.y, bits);
    const std::uint32_t qz =
        quantize(ray.origin.z, bounds.lo.z, bounds.hi.z, bits);
    const std::uint64_t morton = (spreadBits10(qx) << 2) |
                                 (spreadBits10(qy) << 1) | spreadBits10(qz);
    if (!config.directionOctant)
        return morton;
    return (morton << 3) | directionOctant(ray.direction);
}

BvhCut::BvhCut(const bvh::Bvh &bvh, int target_size) : bvh_(&bvh)
{
    codeByNode_.assign(bvh.nodeCount(), -1);
    if (bvh.empty())
        return;
    const int target = std::max(target_size, 1);

    // Grow the frontier from the root, always splitting the node with
    // the largest surface area (ties to the smaller node index, so the
    // cut is a pure function of the tree). Leaves cannot be expanded.
    std::vector<std::int32_t> frontier{0};
    while (static_cast<int>(frontier.size()) < target) {
        std::size_t best = frontier.size();
        float best_area = -1.0f;
        for (std::size_t i = 0; i < frontier.size(); ++i) {
            const bvh::Node &node = bvh.node(frontier[i]);
            if (node.isLeaf())
                continue;
            const float area = node.bounds.surfaceArea();
            if (area > best_area) {
                best_area = area;
                best = i;
            }
        }
        if (best == frontier.size())
            break; // every frontier node is a leaf
        const std::int32_t index = frontier[best];
        const bvh::Node &node = bvh.node(index);
        frontier[best] = index + 1; // left child is adjacent
        frontier.push_back(node.rightChild);
    }

    // Codes in node-index (depth-first) order: adjacent codes are
    // spatially adjacent subtrees of the flattened layout.
    std::sort(frontier.begin(), frontier.end());
    for (std::size_t rank = 0; rank < frontier.size(); ++rank)
        codeByNode_[static_cast<std::size_t>(frontier[rank])] =
            static_cast<std::int32_t>(rank);
    size_ = static_cast<int>(frontier.size());
}

std::uint32_t
BvhCut::code(const geom::Vec3 &point) const
{
    if (size_ == 0)
        return 0;
    std::int32_t current = 0;
    while (codeByNode_[static_cast<std::size_t>(current)] < 0) {
        const bvh::Node &node = bvh_->node(current);
        const std::int32_t left = current + 1;
        const std::int32_t right = node.rightChild;
        const bool in_left = bvh_->node(left).bounds.contains(point);
        const bool in_right = bvh_->node(right).bounds.contains(point);
        if (in_left != in_right) {
            current = in_left ? left : right;
            continue;
        }
        // Both or neither contain the point: descend toward the nearer
        // bounds center (ties to the left child), which keeps the walk
        // total and deterministic.
        const geom::Vec3 to_left = bvh_->node(left).bounds.center() - point;
        const geom::Vec3 to_right = bvh_->node(right).bounds.center() - point;
        const float dist_left = to_left.x * to_left.x +
                                to_left.y * to_left.y + to_left.z * to_left.z;
        const float dist_right = to_right.x * to_right.x +
                                 to_right.y * to_right.y +
                                 to_right.z * to_right.z;
        current = dist_right < dist_left ? right : left;
    }
    return static_cast<std::uint32_t>(
        codeByNode_[static_cast<std::size_t>(current)]);
}

std::uint64_t
cutCodeKey(const geom::Ray &ray, const BvhCut &cut,
           const ReorderConfig &config)
{
    const std::uint64_t code = cut.code(ray.origin);
    if (!config.directionOctant)
        return code;
    return (code << 3) | directionOctant(ray.direction);
}

std::vector<std::uint32_t>
sortedOrder(std::span<const std::uint64_t> keys, ReorderStats *stats)
{
    std::vector<std::uint32_t> order(keys.size());
    std::iota(order.begin(), order.end(), 0u);
    std::stable_sort(order.begin(), order.end(),
                     [&keys](std::uint32_t a, std::uint32_t b) {
                         return keys[a] < keys[b];
                     });
    if (stats != nullptr) {
        stats->distinctKeys = 0;
        stats->displacementSum = 0;
        for (std::size_t p = 0; p < order.size(); ++p) {
            if (p == 0 || keys[order[p]] != keys[order[p - 1]])
                ++stats->distinctKeys;
            const auto original = static_cast<std::int64_t>(order[p]);
            const auto sorted = static_cast<std::int64_t>(p);
            stats->displacementSum += static_cast<std::uint64_t>(
                original > sorted ? original - sorted : sorted - original);
        }
    }
    return order;
}

} // namespace drs::reorder
