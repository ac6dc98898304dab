#include "kernels/pathpred_kernel.h"

#include <cmath>
#include <stdexcept>

namespace drs::kernels {

using simt::Block;
using simt::MemSpace;
using simt::Program;
using simt::ThreadStep;
using simt::TravState;

simt::Program
makePathPredProgram(const CostModel &cost)
{
    // Aila's blocks, every successor after FETCH moved past the probe
    // blocks, which then go in after FETCH.
    std::vector<Block> blocks = makeAilaProgram(cost).blocks();
    for (Block &block : blocks)
        for (int &successor : block.successors)
            if (successor > AilaBlocks::kFetch)
                successor += PathPredBlocks::kProbeBlocks;
    blocks[PathPredBlocks::kFetch].successors = {PathPredBlocks::kPredict,
                                                 PathPredBlocks::kExit};
    blocks.insert(blocks.begin() + PathPredBlocks::kPredict,
                  PathPredBlocks::kProbeBlocks, Block{});

    auto &predict = blocks[PathPredBlocks::kPredict];
    predict.name = "PREDICT";
    predict.instructionCount = cost.predictLookup;
    predict.successors = {PathPredBlocks::kProbeHead,
                          PathPredBlocks::kInnerHead};
    predict.phase = obs::TravPhase::Fetch;

    auto &phead = blocks[PathPredBlocks::kProbeHead];
    phead.name = "PROBE_HEAD";
    phead.instructionCount = cost.leafLoopHead;
    phead.successors = {PathPredBlocks::kProbeTest,
                        PathPredBlocks::kInnerHead};
    phead.phase = obs::TravPhase::Leaf;

    auto &ptest = blocks[PathPredBlocks::kProbeTest];
    ptest.name = "PROBE_TEST";
    ptest.instructionCount = cost.leafTest;
    ptest.successors = {PathPredBlocks::kProbeHead};
    ptest.memSpace = MemSpace::Texture;
    ptest.phase = obs::TravPhase::Leaf;

    return Program(std::move(blocks), PathPredBlocks::kExit);
}

PathPredKernel::PathPredKernel(const bvh::Bvh &bvh,
                               const std::vector<geom::Triangle> &triangles,
                               std::span<const geom::Ray> rays,
                               std::size_t first_ray,
                               const PathPredConfig &config)
    : config_(config),
      program_(makePathPredProgram(config.cost)),
      workspace_(bvh, triangles, rays, first_ray, config.numWarps, 32,
                 config.anyHit),
      bvh_(bvh),
      triangles_(triangles),
      bounds_(bvh.bounds()),
      table_(config.predictor),
      side_(static_cast<std::size_t>(config.numWarps) * 32),
      lookups_(counters_.get("pathpred.lookups")),
      tableHits_(counters_.get("pathpred.table_hits")),
      mispredicts_(counters_.get("pathpred.mispredicts")),
      correct_(counters_.get("pathpred.correct")),
      inserts_(counters_.get("pathpred.inserts"))
{
}

void
PathPredKernel::onRayTerminated(SideState &side, std::int64_t ray_id)
{
    const std::size_t local =
        static_cast<std::size_t>(ray_id) - workspace_.firstRay();
    const geom::Hit &result = workspace_.results().at(local);
    if (side.predicted) {
        if (side.probeTriangle != geom::kNoHit &&
            result.triangle == side.probeTriangle)
            correct_.add();
        else
            mispredicts_.add();
    }
    if (!config_.anyHit && result.triangle != geom::kNoHit &&
        side.lastHitLeaf >= 0) {
        table_.insert(side.key, side.lastHitLeaf);
        inserts_.add();
    }
    side = SideState{};
}

ThreadStep
PathPredKernel::execute(int block, int row, int lane)
{
    ThreadStep step;
    RaySlot &slot = workspace_.slot(row, lane);
    SideState &s = side(row, lane);

    switch (block) {
      case PathPredBlocks::kFetch: {
        const bool got = workspace_.fetchBody(row, lane, step);
        step.nextBlock =
            got ? PathPredBlocks::kPredict : PathPredBlocks::kExit;
        return step;
      }
      case PathPredBlocks::kPredict: {
        step.nextBlock = PathPredBlocks::kInnerHead;
        if (config_.anyHit)
            return step; // prediction disabled for shadow rays
        lookups_.add();
        s = SideState{};
        s.key = reorder::pathPredKey(slot.ray, bounds_, config_.predictor);
        const std::int32_t leaf = table_.lookup(s.key);
        if (leaf >= 0) {
            tableHits_.add();
            const bvh::Node &node = bvh_.node(leaf);
            s.predicted = true;
            s.probeCursor = node.firstTriangle;
            s.probeEnd = node.firstTriangle + node.triangleCount;
            step.nextBlock = PathPredBlocks::kProbeHead;
        }
        return step;
      }
      case PathPredBlocks::kProbeHead:
        step.nextBlock = s.probeCursor < s.probeEnd
                             ? PathPredBlocks::kProbeTest
                             : PathPredBlocks::kInnerHead;
        return step;
      case PathPredBlocks::kProbeTest: {
        const std::int32_t cursor = s.probeCursor;
        ++s.probeCursor;
        const std::int32_t tri = bvh_.triangleIndex(cursor);
        float t, u, v;
        // A genuine probe hit seeds the hit registers (the values are the
        // exact ones leafStep would compute for this triangle) and shrinks
        // tMax to just past the probe distance. Seeding matters: the slab
        // test's entry distance can overestimate by a few ulps, so the
        // pruned traversal is not guaranteed to re-visit this leaf — the
        // registers must already hold the hit. tMax' = nextafter(t) still
        // admits an equal-t triangle earlier in the baseline's leaf visit
        // order, which then overwrites the seed — so ties resolve to the
        // same triangle the baseline reports.
        if (triangles_[static_cast<std::size_t>(tri)].intersect(slot.ray, t,
                                                                u, v) &&
            t < s.probeT) {
            s.probeTriangle = tri;
            s.probeT = t;
            slot.hitTriangle = tri;
            slot.hitT = t;
            slot.hitU = u;
            slot.hitV = v;
            slot.ray.tMax = std::nextafter(t, geom::kRayInfinity);
        }
        step.nextBlock = PathPredBlocks::kProbeHead;
        step.memAddress = workspace_.triangleAddress(cursor);
        step.memBytes = workspace_.addressMap().triangleBytes;
        return step;
      }
      case PathPredBlocks::kInnerHead:
        step.nextBlock = slot.state == TravState::Inner
                             ? PathPredBlocks::kInnerTest
                             : PathPredBlocks::kLeafHead;
        return step;
      case PathPredBlocks::kInnerTest:
        workspace_.innerBody(row, lane, step);
        // A ray that ended in this step left its slot empty, with its
        // id in lastRayId.
        if (slot.state == TravState::Fetch)
            onRayTerminated(s, slot.lastRayId);
        step.nextBlock = PathPredBlocks::kInnerHead;
        return step;
      case PathPredBlocks::kLeafHead:
        step.nextBlock = workspace_.leafHasWork(row, lane)
                             ? PathPredBlocks::kLeafTest
                             : PathPredBlocks::kDoneCheck;
        return step;
      case PathPredBlocks::kLeafTest: {
        const std::int32_t leaf_node = slot.nodeIndex;
        if (workspace_.leafBody(row, lane, step))
            s.lastHitLeaf = leaf_node; // training: remember the hit's leaf
        if (slot.state == TravState::Fetch)
            onRayTerminated(s, slot.lastRayId);
        step.nextBlock = PathPredBlocks::kLeafHead;
        return step;
      }
      case PathPredBlocks::kDoneCheck:
        step.nextBlock = slot.state == TravState::Fetch
                             ? PathPredBlocks::kStore
                             : PathPredBlocks::kInnerHead;
        return step;
      case PathPredBlocks::kStore:
        workspace_.storeBody(row, lane, step);
        step.nextBlock = PathPredBlocks::kFetch;
        return step;
      default:
        throw std::logic_error("PathPredKernel: unexpected block");
    }
}

} // namespace drs::kernels
