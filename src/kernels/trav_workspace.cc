#include "kernels/trav_workspace.h"

#include <cassert>
#include <cstring>
#include <utility>

namespace drs::kernels {

using geom::Hit;
using geom::Ray;
using geom::Vec3;
using simt::TravState;

TravWorkspace::TravWorkspace(const bvh::Bvh &bvh,
                             const std::vector<geom::Triangle> &triangles,
                             std::span<const geom::Ray> rays,
                             std::size_t first_ray, int rows, int lanes,
                             bool any_hit)
    : RowWorkspace(rows, lanes),
      bvh_(bvh),
      triangles_(triangles),
      rays_(rays),
      firstRay_(first_ray),
      slots_(static_cast<std::size_t>(rows) * lanes),
      results_(rays_.size()),
      anyHit_(any_hit)
{
}

RaySlot &
TravWorkspace::slot(int row, int lane)
{
    return slots_.at(static_cast<std::size_t>(row) * laneCount() + lane);
}

const RaySlot &
TravWorkspace::slot(int row, int lane) const
{
    return slots_.at(static_cast<std::size_t>(row) * laneCount() + lane);
}

TravState
TravWorkspace::state(int row, int lane) const
{
    return slot(row, lane).state;
}

void
TravWorkspace::clearSlot(RaySlot &s)
{
    std::vector<std::int32_t> stack = std::move(s.stack);
    stack.clear();
    s = RaySlot{};
    s.stack = std::move(stack);
}

void
TravWorkspace::moveRay(int src_row, int src_lane, int dst_row, int dst_lane)
{
    RaySlot &src = slot(src_row, src_lane);
    RaySlot &dst = slot(dst_row, dst_lane);
    assert(dst.state == TravState::Fetch && "destination must be empty");
    std::swap(dst, src);
    clearSlot(src);
    setLaneState(dst_row, dst_lane, dst.state);
    setLaneState(src_row, src_lane, TravState::Fetch);
}

void
TravWorkspace::swapRays(int row_a, int lane_a, int row_b, int lane_b)
{
    RaySlot &a = slot(row_a, lane_a);
    RaySlot &b = slot(row_b, lane_b);
    std::swap(a, b);
    setLaneState(row_a, lane_a, a.state);
    setLaneState(row_b, lane_b, b.state);
}

RaySlot
TravWorkspace::takeRay(int row, int lane)
{
    RaySlot ray = std::exchange(slot(row, lane), RaySlot{});
    setLaneState(row, lane, TravState::Fetch);
    return ray;
}

void
TravWorkspace::putRay(int row, int lane, RaySlot &&ray)
{
    RaySlot &s = slot(row, lane);
    s = std::move(ray);
    setLaneState(row, lane, s.state);
}

void
TravWorkspace::corruptRay(int row, int lane, std::uint32_t bit)
{
    RaySlot &s = slot(row, lane);
    if (s.rayId < 0)
        return; // empty slot: the flip hits unused register space
    unsigned char bytes[sizeof(geom::Ray)];
    std::memcpy(bytes, &s.ray, sizeof(bytes));
    const std::uint32_t index = (bit / 8u) % sizeof(bytes);
    bytes[index] ^= static_cast<unsigned char>(1u << (bit % 8u));
    std::memcpy(&s.ray, bytes, sizeof(bytes));
    // invDir is intentionally left stale: real hardware would not
    // recompute a derived register either, and traversal tolerates the
    // inconsistency (it only steers which nodes the ray visits).
}

bool
TravWorkspace::fetchStep(int row, int lane)
{
    if (poolEmpty())
        return false;

    const std::size_t index = nextRay_++;
    RaySlot &s = slot(row, lane);
    clearSlot(s);
    s.ray = rays_[index];
    s.invDir = Vec3{1.0f / s.ray.direction.x, 1.0f / s.ray.direction.y,
                    1.0f / s.ray.direction.z};
    s.rayId = static_cast<std::int64_t>(firstRay_ + index);
    s.hitTriangle = geom::kNoHit;
    if (bvh_.empty()) {
        // Degenerate scene: the ray terminates immediately.
        s.nodeIndex = -1;
    } else {
        enterNode(s, 0);
    }
    // Kernel 1 line 5: after initialization the next state is always
    // INNER (the root is traversed first), even when the root is a leaf —
    // the inner step then forwards to the leaf phase.
    s.state = TravState::Inner;
    setLaneState(row, lane, TravState::Inner);
    return true;
}

void
TravWorkspace::enterNode(RaySlot &s, std::int32_t node)
{
    const bvh::Node &n = bvh_.node(node);
    s.nodeIndex = node;
    if (n.isLeaf()) {
        s.state = TravState::Leaf;
        s.leafCursor = n.firstTriangle;
        s.leafEnd = n.firstTriangle + n.triangleCount;
    } else {
        s.state = TravState::Inner;
    }
}

void
TravWorkspace::popOrTerminate(RaySlot &s)
{
    if (s.stack.empty()) {
        // Traversal exhausted: the ray terminates.
        const std::int64_t local =
            s.rayId - static_cast<std::int64_t>(firstRay_);
        Hit &result = results_.at(static_cast<std::size_t>(local));
        result.triangle = s.hitTriangle;
        result.t = s.hitT;
        result.u = s.hitU;
        result.v = s.hitV;
        if (s.hitTriangle == geom::kNoHit)
            result.t = geom::kRayInfinity;
        ++raysCompleted_;
        const std::int64_t last = s.rayId;
        clearSlot(s);
        s.lastRayId = last;
        return;
    }
    const std::int32_t node = s.stack.back();
    s.stack.pop_back();
    enterNode(s, node);
}

InnerOutcome
TravWorkspace::innerStep(int row, int lane)
{
    RaySlot &s = slot(row, lane);
    const InnerOutcome outcome = traverseInner(s);
    setLaneState(row, lane, s.state);
    return outcome;
}

InnerOutcome
TravWorkspace::traverseInner(RaySlot &s)
{
    assert(s.state == TravState::Inner);

    if (s.nodeIndex < 0) {
        // Degenerate (empty BVH): terminate.
        popOrTerminate(s);
        return InnerOutcome::NoChildHit;
    }

    const bvh::Node &n = bvh_.node(s.nodeIndex);
    if (n.isLeaf()) {
        // Root-is-leaf corner case: forward to the leaf phase.
        enterNode(s, s.nodeIndex);
        return InnerOutcome::OneChildHit;
    }

    const std::int32_t left = s.nodeIndex + 1;
    const std::int32_t right = n.rightChild;
    float t_left = 0.0f;
    float t_right = 0.0f;
    const bool hit_left = bvh_.node(left).bounds.intersect(
        s.ray.origin, s.invDir, s.ray.tMin, s.ray.tMax, t_left);
    const bool hit_right = bvh_.node(right).bounds.intersect(
        s.ray.origin, s.invDir, s.ray.tMin, s.ray.tMax, t_right);

    if (hit_left && hit_right) {
        std::int32_t near = left;
        std::int32_t far = right;
        if (t_right < t_left)
            std::swap(near, far);
        s.stack.push_back(far);
        enterNode(s, near);
        return InnerOutcome::BothChildrenHit;
    }
    if (hit_left || hit_right) {
        enterNode(s, hit_left ? left : right);
        return InnerOutcome::OneChildHit;
    }
    popOrTerminate(s);
    return InnerOutcome::NoChildHit;
}

bool
TravWorkspace::leafHasWork(int row, int lane) const
{
    const RaySlot &s = slot(row, lane);
    return s.state == TravState::Leaf && s.leafCursor < s.leafEnd;
}

bool
TravWorkspace::deferLeaf(int row, int lane)
{
    RaySlot &s = slot(row, lane);
    assert(s.state == TravState::Leaf);
    if (s.stack.empty() || bvh_.node(s.stack.back()).isLeaf())
        return false;
    // The postponed leaf is processed last; ordering only affects tMax
    // pruning opportunities, never correctness.
    s.stack.insert(s.stack.begin(), s.nodeIndex);
    const std::int32_t next = s.stack.back();
    s.stack.pop_back();
    enterNode(s, next);
    setLaneState(row, lane, s.state);
    return true;
}

bool
TravWorkspace::leafStep(int row, int lane)
{
    RaySlot &s = slot(row, lane);
    const bool hit = testLeaf(s);
    setLaneState(row, lane, s.state);
    return hit;
}

bool
TravWorkspace::testLeaf(RaySlot &s)
{
    assert(s.state == TravState::Leaf);
    assert(s.leafCursor < s.leafEnd);

    const std::int32_t tri_index = bvh_.triangleIndex(s.leafCursor);
    ++s.leafCursor;

    float t, u, v;
    const bool hit =
        triangles_[static_cast<std::size_t>(tri_index)].intersect(s.ray, t, u,
                                                                  v);
    if (hit) {
        s.hitTriangle = tri_index;
        s.hitT = t;
        s.hitU = u;
        s.hitV = v;
        s.ray.tMax = t; // shrink the hit length register
        if (anyHit_) {
            // Shadow ray: any intersection answers the query.
            s.stack.clear();
            popOrTerminate(s);
            return true;
        }
    }

    if (s.leafCursor >= s.leafEnd)
        popOrTerminate(s);
    return hit;
}

void
TravWorkspace::storeResult(int row, int lane)
{
    RaySlot &s = slot(row, lane);
    // Force termination regardless of remaining stack (used by tests and
    // shadow-ray style early outs).
    s.stack.clear();
    popOrTerminate(s);
    setLaneState(row, lane, TravState::Fetch);
}

bool
TravWorkspace::fetchBody(int row, int lane, simt::ThreadStep &step)
{
    if (!fetchStep(row, lane))
        return false;
    step.memAddress = addressMap_.rayBase +
                      static_cast<std::uint64_t>(slot(row, lane).rayId) *
                          addressMap_.rayBytes;
    step.memBytes = addressMap_.rayBytes;
    return true;
}

void
TravWorkspace::innerBody(int row, int lane, simt::ThreadStep &step)
{
    step.memAddress = addressMap_.nodeBase +
                      static_cast<std::uint64_t>(slot(row, lane).nodeIndex) *
                          addressMap_.nodeBytes;
    step.memBytes = addressMap_.nodeBytes;
    (void)innerStep(row, lane);
}

bool
TravWorkspace::leafBody(int row, int lane, simt::ThreadStep &step)
{
    step.memAddress = triangleAddress(slot(row, lane).leafCursor);
    step.memBytes = addressMap_.triangleBytes;
    return leafStep(row, lane);
}

void
TravWorkspace::storeBody(int row, int lane, simt::ThreadStep &step) const
{
    const std::int64_t ray = slot(row, lane).lastRayId;
    if (ray < 0)
        return;
    step.memAddress = addressMap_.resultBase +
                      static_cast<std::uint64_t>(ray) * addressMap_.resultBytes;
    step.memBytes = addressMap_.resultBytes;
}

std::uint64_t
TravWorkspace::triangleAddress(std::int32_t slot_index) const
{
    return addressMap_.triangleBase +
           static_cast<std::uint64_t>(slot_index) * addressMap_.triangleBytes;
}

} // namespace drs::kernels
