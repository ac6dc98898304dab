#include "kernels/generic_kernel.h"

#include <cassert>
#include <stdexcept>
#include <utility>

namespace drs::kernels {

using simt::Block;
using simt::Program;
using simt::SpecialOp;
using simt::ThreadStep;
using simt::TravState;

GenericWorkspace::GenericWorkspace(const GenericWorkloadConfig &config,
                                   int rows, int lanes)
    : RowWorkspace(rows, lanes),
      slots_(static_cast<std::size_t>(rows) * lanes)
{
    geom::Pcg32 rng(config.seed);
    tasks_.reserve(config.taskCount);
    for (std::size_t i = 0; i < config.taskCount; ++i) {
        GenericTask task;
        task.taskId = static_cast<std::int64_t>(i);
        task.phaseARemaining = config.phaseAMin + static_cast<int>(
            rng.nextUInt(static_cast<std::uint32_t>(
                config.phaseAMax - config.phaseAMin + 1)));
        task.phaseBRemaining = config.phaseBMin + static_cast<int>(
            rng.nextUInt(static_cast<std::uint32_t>(
                config.phaseBMax - config.phaseBMin + 1)));
        tasks_.push_back(task);
    }
}

GenericTask &
GenericWorkspace::slot(int row, int lane)
{
    return slots_.at(static_cast<std::size_t>(row) * laneCount() + lane);
}

const GenericTask &
GenericWorkspace::task(int row, int lane) const
{
    return slots_.at(static_cast<std::size_t>(row) * laneCount() + lane);
}

TravState
GenericWorkspace::state(int row, int lane) const
{
    return task(row, lane).state;
}

void
GenericWorkspace::moveRay(int src_row, int src_lane, int dst_row,
                          int dst_lane)
{
    GenericTask &src = slot(src_row, src_lane);
    GenericTask &dst = slot(dst_row, dst_lane);
    assert(dst.state == TravState::Fetch);
    dst = src;
    src = GenericTask{};
    setLaneState(dst_row, dst_lane, dst.state);
    setLaneState(src_row, src_lane, TravState::Fetch);
}

void
GenericWorkspace::swapRays(int row_a, int lane_a, int row_b, int lane_b)
{
    GenericTask &a = slot(row_a, lane_a);
    GenericTask &b = slot(row_b, lane_b);
    std::swap(a, b);
    setLaneState(row_a, lane_a, a.state);
    setLaneState(row_b, lane_b, b.state);
}

bool
GenericWorkspace::fetchStep(int row, int lane)
{
    if (poolEmpty())
        return false;
    GenericTask &s = slot(row, lane);
    s = tasks_[nextTask_++];
    s.state = s.phaseARemaining > 0 ? TravState::Inner : TravState::Leaf;
    setLaneState(row, lane, s.state);
    return true;
}

void
GenericWorkspace::phaseAStep(int row, int lane)
{
    GenericTask &s = slot(row, lane);
    assert(s.state == TravState::Inner);
    ++iterations_;
    if (--s.phaseARemaining <= 0) {
        s.state = s.phaseBRemaining > 0 ? TravState::Leaf : TravState::Fetch;
        setLaneState(row, lane, s.state);
    }
}

void
GenericWorkspace::phaseBStep(int row, int lane)
{
    GenericTask &s = slot(row, lane);
    assert(s.state == TravState::Leaf);
    ++iterations_;
    if (--s.phaseBRemaining <= 0) {
        ++completed_;
        s = GenericTask{};
        setLaneState(row, lane, TravState::Fetch);
    }
}

namespace {

Program
makeWhileIfProgram()
{
    std::vector<Block> blocks(GenericBlocks::kCount);
    blocks[GenericBlocks::kRdctrl] = {"RDCTRL", 2,
                                      {GenericBlocks::kFetchBody,
                                       GenericBlocks::kPhaseA,
                                       GenericBlocks::kPhaseB,
                                       GenericBlocks::kExit},
                                      simt::MemSpace::None,
                                      SpecialOp::Rdctrl, false,
                                      obs::TravPhase::None};
    blocks[GenericBlocks::kFetchBody] = {"IF_FETCH", 12,
                                         {GenericBlocks::kRdctrl},
                                         simt::MemSpace::Global,
                                         SpecialOp::None, false,
                                         obs::TravPhase::Fetch};
    blocks[GenericBlocks::kPhaseA] = {"IF_PHASE_A", 40,
                                      {GenericBlocks::kRdctrl},
                                      simt::MemSpace::None,
                                      SpecialOp::None, false,
                                      obs::TravPhase::Inner};
    blocks[GenericBlocks::kPhaseB] = {"IF_PHASE_B", 28,
                                      {GenericBlocks::kRdctrl},
                                      simt::MemSpace::None,
                                      SpecialOp::None, false,
                                      obs::TravPhase::Leaf};
    blocks[GenericBlocks::kExit] = {"EXIT", 1, {}, simt::MemSpace::None,
                                    SpecialOp::None, false};
    return Program(std::move(blocks), GenericBlocks::kExit);
}

Program
makeWhileWhileProgram()
{
    std::vector<Block> blocks(GenericBlocks::kWwCount);
    blocks[GenericBlocks::kWwFetch] = {"FETCH", 12,
                                       {GenericBlocks::kWwHeadA,
                                        GenericBlocks::kWwExit},
                                       simt::MemSpace::Global,
                                       SpecialOp::None, false,
                                       obs::TravPhase::Fetch};
    blocks[GenericBlocks::kWwHeadA] = {"HEAD_A", 2,
                                       {GenericBlocks::kWwBodyA,
                                        GenericBlocks::kWwHeadB},
                                       simt::MemSpace::None,
                                       SpecialOp::None, false,
                                       obs::TravPhase::Inner};
    blocks[GenericBlocks::kWwBodyA] = {"BODY_A", 40,
                                       {GenericBlocks::kWwHeadA},
                                       simt::MemSpace::None,
                                       SpecialOp::None, false,
                                       obs::TravPhase::Inner};
    blocks[GenericBlocks::kWwHeadB] = {"HEAD_B", 2,
                                       {GenericBlocks::kWwBodyB,
                                        GenericBlocks::kWwFetch},
                                       simt::MemSpace::None,
                                       SpecialOp::None, false,
                                       obs::TravPhase::Leaf};
    blocks[GenericBlocks::kWwBodyB] = {"BODY_B", 28,
                                       {GenericBlocks::kWwHeadB},
                                       simt::MemSpace::None,
                                       SpecialOp::None, false,
                                       obs::TravPhase::Leaf};
    blocks[GenericBlocks::kWwExit] = {"EXIT", 1, {}, simt::MemSpace::None,
                                      SpecialOp::None, false};
    return Program(std::move(blocks), GenericBlocks::kWwExit);
}

} // namespace

GenericKernel::GenericKernel(const GenericWorkloadConfig &config,
                             GenericFlavour flavour, int rows, int lanes)
    : flavour_(flavour),
      program_(flavour == GenericFlavour::WhileIf ? makeWhileIfProgram()
                                                  : makeWhileWhileProgram()),
      workspace_(config, rows, lanes)
{
}

int
GenericKernel::blockForState(TravState state) const
{
    if (flavour_ != GenericFlavour::WhileIf)
        return -1;
    switch (state) {
      case TravState::Fetch: return GenericBlocks::kFetchBody;
      case TravState::Inner: return GenericBlocks::kPhaseA;
      case TravState::Leaf: return GenericBlocks::kPhaseB;
    }
    throw std::logic_error("GenericKernel: bad state");
}

ThreadStep
GenericKernel::execute(int block, int row, int lane)
{
    ThreadStep step;
    if (flavour_ == GenericFlavour::WhileIf) {
        switch (block) {
          case GenericBlocks::kFetchBody:
            (void)workspace_.fetchStep(row, lane);
            step.nextBlock = GenericBlocks::kRdctrl;
            if (workspace_.task(row, lane).taskId >= 0) {
                step.memAddress = 0x9000'0000 +
                    static_cast<std::uint64_t>(
                        workspace_.task(row, lane).taskId) * 16;
                step.memBytes = 16;
            }
            return step;
          case GenericBlocks::kPhaseA:
            workspace_.phaseAStep(row, lane);
            step.nextBlock = GenericBlocks::kRdctrl;
            return step;
          case GenericBlocks::kPhaseB:
            workspace_.phaseBStep(row, lane);
            step.nextBlock = GenericBlocks::kRdctrl;
            return step;
          default:
            throw std::logic_error("GenericKernel: unexpected block");
        }
    }

    const GenericTask &slot = workspace_.task(row, lane);
    switch (block) {
      case GenericBlocks::kWwFetch: {
        const bool got = workspace_.fetchStep(row, lane);
        step.nextBlock =
            got ? GenericBlocks::kWwHeadA : GenericBlocks::kWwExit;
        if (got) {
            step.memAddress = 0x9000'0000 +
                static_cast<std::uint64_t>(
                    workspace_.task(row, lane).taskId) * 16;
            step.memBytes = 16;
        }
        return step;
      }
      case GenericBlocks::kWwHeadA:
        step.nextBlock = slot.state == simt::TravState::Inner
                             ? GenericBlocks::kWwBodyA
                             : GenericBlocks::kWwHeadB;
        return step;
      case GenericBlocks::kWwBodyA:
        workspace_.phaseAStep(row, lane);
        step.nextBlock = GenericBlocks::kWwHeadA;
        return step;
      case GenericBlocks::kWwHeadB:
        step.nextBlock = slot.state == simt::TravState::Leaf
                             ? GenericBlocks::kWwBodyB
                             : GenericBlocks::kWwFetch;
        return step;
      case GenericBlocks::kWwBodyB:
        workspace_.phaseBStep(row, lane);
        step.nextBlock = GenericBlocks::kWwHeadB;
        return step;
      default:
        throw std::logic_error("GenericKernel: unexpected block");
    }
}

} // namespace drs::kernels
