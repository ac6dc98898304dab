#include "kernels/aila_kernel.h"

#include <stdexcept>

namespace drs::kernels {

using simt::Block;
using simt::MemSpace;
using simt::Program;
using simt::ThreadStep;
using simt::TravState;

simt::Program
makeAilaProgram(const CostModel &cost)
{
    std::vector<Block> blocks(AilaBlocks::kCount);

    auto &fetch = blocks[AilaBlocks::kFetch];
    fetch.name = "FETCH";
    fetch.instructionCount = cost.fetchRay;
    fetch.successors = {AilaBlocks::kInnerHead, AilaBlocks::kExit};
    fetch.memSpace = MemSpace::Global;
    fetch.phase = obs::TravPhase::Fetch;

    auto &ihead = blocks[AilaBlocks::kInnerHead];
    ihead.name = "INNER_HEAD";
    ihead.instructionCount = cost.innerLoopHead;
    ihead.successors = {AilaBlocks::kInnerTest, AilaBlocks::kLeafHead};
    ihead.phase = obs::TravPhase::Inner;

    auto &itest = blocks[AilaBlocks::kInnerTest];
    itest.name = "INNER_TEST";
    itest.instructionCount = cost.innerTest;
    itest.successors = {AilaBlocks::kInnerHead};
    itest.memSpace = MemSpace::Texture;
    itest.phase = obs::TravPhase::Inner;

    auto &lhead = blocks[AilaBlocks::kLeafHead];
    lhead.name = "LEAF_HEAD";
    lhead.instructionCount = cost.leafLoopHead;
    lhead.successors = {AilaBlocks::kLeafTest, AilaBlocks::kDoneCheck};
    lhead.phase = obs::TravPhase::Leaf;

    auto &ltest = blocks[AilaBlocks::kLeafTest];
    ltest.name = "LEAF_TEST";
    ltest.instructionCount = cost.leafTest;
    ltest.successors = {AilaBlocks::kLeafHead};
    ltest.memSpace = MemSpace::Texture;
    ltest.phase = obs::TravPhase::Leaf;

    auto &done = blocks[AilaBlocks::kDoneCheck];
    done.name = "DONE_CHECK";
    done.instructionCount = cost.doneCheck;
    done.successors = {AilaBlocks::kInnerHead, AilaBlocks::kStore};
    done.phase = obs::TravPhase::Fetch;

    auto &store = blocks[AilaBlocks::kStore];
    store.name = "STORE";
    store.instructionCount = cost.storeResult;
    store.successors = {AilaBlocks::kFetch};
    store.memSpace = MemSpace::Global;
    store.phase = obs::TravPhase::Fetch;

    blocks[AilaBlocks::kExit].name = "EXIT";
    blocks[AilaBlocks::kExit].instructionCount = 1;

    return Program(std::move(blocks), AilaBlocks::kExit);
}

AilaKernel::AilaKernel(const bvh::Bvh &bvh,
                       const std::vector<geom::Triangle> &triangles,
                       std::span<const geom::Ray> rays,
                       std::size_t first_ray, const AilaConfig &config)
    : config_(config),
      program_(makeAilaProgram(config.cost)),
      workspace_(bvh, triangles, rays, first_ray, config.numWarps,
                 32, config.anyHit)
{
}

ThreadStep
AilaKernel::execute(int block, int row, int lane)
{
    ThreadStep step;
    const RaySlot &slot = workspace_.slot(row, lane);

    switch (block) {
      case AilaBlocks::kFetch: {
        const bool got = workspace_.fetchBody(row, lane, step);
        step.nextBlock = got ? AilaBlocks::kInnerHead : AilaBlocks::kExit;
        return step;
      }
      case AilaBlocks::kInnerHead: {
        if (slot.state == TravState::Inner) {
            step.nextBlock = AilaBlocks::kInnerTest;
        } else if (config_.speculativeTraversal &&
                   slot.state == TravState::Leaf &&
                   workspace_.deferLeaf(row, lane)) {
            // The leaf was postponed (pushed to the stack bottom); the
            // thread continues traversing inner nodes speculatively.
            step.nextBlock = AilaBlocks::kInnerTest;
        } else {
            step.nextBlock = AilaBlocks::kLeafHead;
        }
        return step;
      }
      case AilaBlocks::kInnerTest:
        workspace_.innerBody(row, lane, step);
        step.nextBlock = AilaBlocks::kInnerHead;
        return step;
      case AilaBlocks::kLeafHead:
        step.nextBlock = workspace_.leafHasWork(row, lane)
                             ? AilaBlocks::kLeafTest
                             : AilaBlocks::kDoneCheck;
        return step;
      case AilaBlocks::kLeafTest:
        (void)workspace_.leafBody(row, lane, step);
        step.nextBlock = AilaBlocks::kLeafHead;
        return step;
      case AilaBlocks::kDoneCheck:
        // A terminated slot is back in the Fetch state.
        step.nextBlock = slot.state == TravState::Fetch
                             ? AilaBlocks::kStore
                             : AilaBlocks::kInnerHead;
        return step;
      case AilaBlocks::kStore:
        workspace_.storeBody(row, lane, step);
        step.nextBlock = AilaBlocks::kFetch;
        return step;
      default:
        throw std::logic_error("AilaKernel: unexpected block");
    }
}

} // namespace drs::kernels
