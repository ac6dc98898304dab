#pragma once

/**
 * @file
 * The paper's future work (Section 4.6), implemented: dynamic *state*
 * shuffling for a generic divergent workload that is not ray tracing.
 *
 * The workload is a two-phase task: phase A iterates a data-dependent
 * number of times (think: variable-depth search), then phase B iterates a
 * different data-dependent count (think: per-item finalization). Mapped
 * one task per thread, warps diverge exactly like ray traversal does.
 * Because the DRS control only interacts with the simt::RowWorkspace
 * interface, the very same hardware model shuffles these tasks: this file
 * supplies the workspace, the while-if kernel for DRS dispatch, and a
 * plain while-while baseline kernel.
 */

#include <cstdint>
#include <vector>

#include "geom/rng.h"
#include "simt/kernel.h"

namespace drs::kernels {

/** One synthetic two-phase task. */
struct GenericTask
{
    int phaseARemaining = 0;
    int phaseBRemaining = 0;
    std::int64_t taskId = -1;
    simt::TravState state = simt::TravState::Fetch;
};

/** Workload shape: per-phase trip-count distributions. */
struct GenericWorkloadConfig
{
    std::size_t taskCount = 4096;
    int phaseAMin = 4;
    int phaseAMax = 64; ///< wide spread = heavy divergence
    int phaseBMin = 1;
    int phaseBMax = 12;
    std::uint64_t seed = 99;
};

/**
 * Row-addressed task storage implementing simt::RowWorkspace, so the DRS
 * control can shuffle tasks exactly as it shuffles rays. State mapping:
 * Fetch = slot empty, Inner = phase A, Leaf = phase B.
 */
class GenericWorkspace : public simt::RowWorkspace
{
  public:
    GenericWorkspace(const GenericWorkloadConfig &config, int rows,
                     int lanes);

    simt::TravState state(int row, int lane) const override;
    void moveRay(int src_row, int src_lane, int dst_row,
                 int dst_lane) override;
    void swapRays(int row_a, int lane_a, int row_b, int lane_b) override;
    bool poolEmpty() const override { return nextTask_ >= tasks_.size(); }

    /** The task in (row, lane); only the members here change it. */
    const GenericTask &task(int row, int lane) const;

    /** Fetch the next pool task into (row, lane); false when drained. */
    bool fetchStep(int row, int lane);

    /** One phase-A iteration; may transition the slot to phase B. */
    void phaseAStep(int row, int lane);

    /** One phase-B iteration; may terminate the task. */
    void phaseBStep(int row, int lane);

    std::uint64_t tasksCompleted() const { return completed_; }

    /** Total per-phase iterations executed (result checksum for tests). */
    std::uint64_t totalIterations() const { return iterations_; }

  private:
    GenericTask &slot(int row, int lane);

    std::vector<GenericTask> tasks_; ///< input pool
    std::size_t nextTask_ = 0;
    std::vector<GenericTask> slots_;
    std::uint64_t completed_ = 0;
    std::uint64_t iterations_ = 0;
};

/** Block ids of both generic CFG flavours (exposed for tests). */
struct GenericBlocks
{
    // while-if (DRS) flavour
    static constexpr int kRdctrl = 0;
    static constexpr int kFetchBody = 1;
    static constexpr int kPhaseA = 2;
    static constexpr int kPhaseB = 3;
    static constexpr int kExit = 4;
    static constexpr int kCount = 5;

    // while-while (baseline) flavour
    static constexpr int kWwFetch = 0;
    static constexpr int kWwHeadA = 1;
    static constexpr int kWwBodyA = 2;
    static constexpr int kWwHeadB = 3;
    static constexpr int kWwBodyB = 4;
    static constexpr int kWwExit = 5;
    static constexpr int kWwCount = 6;
};

/** Kernel flavour selector. */
enum class GenericFlavour
{
    WhileWhile, ///< baseline: nested loops, IPDOM reconvergence
    WhileIf,    ///< DRS dispatch through rdctrl
};

/**
 * The generic divergent kernel bound to one SMX.
 *
 * WhileWhile runs without a controller (row = warp id); WhileIf requires
 * a WarpController (e.g. core::DrsControl over workspace()).
 */
class GenericKernel : public simt::Kernel
{
  public:
    GenericKernel(const GenericWorkloadConfig &config, GenericFlavour
                  flavour, int rows, int lanes = 32);

    const simt::Program &program() const override { return program_; }
    simt::ThreadStep execute(int block, int row, int lane) override;
    int blockForState(simt::TravState state) const override;
    simt::RowWorkspace &workspace() override { return workspace_; }
    std::uint64_t raysCompleted() const override
    {
        return workspace_.tasksCompleted();
    }

    GenericWorkspace &genericWorkspace() { return workspace_; }

  private:
    GenericFlavour flavour_;
    simt::Program program_;
    GenericWorkspace workspace_;
};

} // namespace drs::kernels
