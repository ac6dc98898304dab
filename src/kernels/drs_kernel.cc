#include "kernels/drs_kernel.h"

#include <stdexcept>

namespace drs::kernels {

using simt::Block;
using simt::MemSpace;
using simt::Program;
using simt::SpecialOp;
using simt::ThreadStep;
using simt::TravState;

simt::Program
makeDrsProgram(const CostModel &cost)
{
    std::vector<Block> blocks(DrsBlocks::kCount);

    auto &rdctrl = blocks[DrsBlocks::kRdctrl];
    rdctrl.name = "RDCTRL";
    rdctrl.instructionCount = cost.rdctrl;
    rdctrl.specialOp = SpecialOp::Rdctrl;
    rdctrl.successors = {DrsBlocks::kFetchBody, DrsBlocks::kInnerTest,
                         DrsBlocks::kLeafHead, DrsBlocks::kExit};

    auto &fetch = blocks[DrsBlocks::kFetchBody];
    fetch.name = "IF_FETCH";
    fetch.instructionCount = cost.fetchRay;
    fetch.successors = {DrsBlocks::kRdctrl};
    fetch.memSpace = MemSpace::Global;
    fetch.phase = obs::TravPhase::Fetch;

    auto &itest = blocks[DrsBlocks::kInnerTest];
    itest.name = "IF_INNER_TEST";
    itest.instructionCount = cost.innerTest;
    itest.successors = {DrsBlocks::kSetStateInner};
    itest.memSpace = MemSpace::Texture;
    itest.phase = obs::TravPhase::Inner;

    auto &seti = blocks[DrsBlocks::kSetStateInner];
    seti.name = "SET_STATE_I";
    seti.instructionCount = cost.setRayState;
    seti.successors = {DrsBlocks::kRdctrl};
    seti.phase = obs::TravPhase::Inner;

    auto &lhead = blocks[DrsBlocks::kLeafHead];
    lhead.name = "IF_LEAF_HEAD";
    lhead.instructionCount = cost.leafBodyHead;
    lhead.successors = {DrsBlocks::kLeafTest, DrsBlocks::kSetStateLeaf};
    lhead.phase = obs::TravPhase::Leaf;

    auto &ltest = blocks[DrsBlocks::kLeafTest];
    ltest.name = "LEAF_TEST";
    ltest.instructionCount = cost.leafTest;
    ltest.successors = {DrsBlocks::kLeafHead};
    ltest.memSpace = MemSpace::Texture;
    ltest.phase = obs::TravPhase::Leaf;

    auto &setl = blocks[DrsBlocks::kSetStateLeaf];
    setl.name = "SET_STATE_L";
    setl.instructionCount = cost.setRayState;
    setl.successors = {DrsBlocks::kRdctrl};
    setl.phase = obs::TravPhase::Leaf;

    blocks[DrsBlocks::kExit].name = "EXIT";
    blocks[DrsBlocks::kExit].instructionCount = 1;

    return Program(std::move(blocks), DrsBlocks::kExit);
}

DrsKernel::DrsKernel(const bvh::Bvh &bvh,
                     const std::vector<geom::Triangle> &triangles,
                     std::span<const geom::Ray> rays,
                     std::size_t first_ray, const DrsKernelConfig &config)
    : config_(config),
      program_(makeDrsProgram(config.cost)),
      workspace_(bvh, triangles, rays, first_ray, config.rowCount(),
                 32, config.anyHit)
{
}

int
DrsKernel::bodyBlock(TravState state)
{
    switch (state) {
      case TravState::Fetch: return DrsBlocks::kFetchBody;
      case TravState::Inner: return DrsBlocks::kInnerTest;
      case TravState::Leaf: return DrsBlocks::kLeafHead;
    }
    throw std::logic_error("DrsKernel: bad traversal state");
}

ThreadStep
DrsKernel::execute(int block, int row, int lane)
{
    ThreadStep step;

    switch (block) {
      case DrsBlocks::kFetchBody:
        // reg_ray_state <- INNER happens inside the fetch.
        (void)workspace_.fetchBody(row, lane, step);
        step.nextBlock = DrsBlocks::kRdctrl;
        return step;
      case DrsBlocks::kInnerTest:
        workspace_.innerBody(row, lane, step);
        step.nextBlock = DrsBlocks::kSetStateInner;
        return step;
      case DrsBlocks::kSetStateInner:
      case DrsBlocks::kSetStateLeaf:
        // reg_ray_state was updated by the step functions; this block
        // models the register write itself.
        step.nextBlock = DrsBlocks::kRdctrl;
        return step;
      case DrsBlocks::kLeafHead:
        step.nextBlock = workspace_.leafHasWork(row, lane)
                             ? DrsBlocks::kLeafTest
                             : DrsBlocks::kSetStateLeaf;
        return step;
      case DrsBlocks::kLeafTest:
        (void)workspace_.leafBody(row, lane, step);
        step.nextBlock = DrsBlocks::kLeafHead;
        return step;
      default:
        throw std::logic_error("DrsKernel: unexpected block");
    }
}

} // namespace drs::kernels
