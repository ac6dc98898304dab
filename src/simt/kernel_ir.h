#pragma once

/**
 * @file
 * Kernel intermediate representation. A simulated kernel is a control-flow
 * graph of basic blocks; each block carries the number of warp instructions
 * it represents and flags describing its memory/special behaviour. Per-
 * thread semantics (which successor a thread takes, which address it loads)
 * are supplied by the kernel implementation at execution time — the IR only
 * fixes the *set* of possible successors so reconvergence points can be
 * computed statically, exactly like compiling real SASS fixes branch
 * targets.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "obs/attribution.h"

namespace drs::simt {

/** Which cache hierarchy path a block's memory instruction uses. */
enum class MemSpace : std::uint8_t
{
    None,    ///< no memory instruction in this block
    Global,  ///< through the L1 data cache (ray fetch, result store)
    Texture, ///< through the L1 texture cache (BVH nodes, triangles)
};

/** Special hardware interaction performed when a block issues. */
enum class SpecialOp : std::uint8_t
{
    None,
    /**
     * The paper's rdctrl instruction: reads a traversal-control value from
     * the DRS (or DMK) hardware. May stall warp issue; its successor is
     * chosen uniformly for the whole warp by the controller.
     */
    Rdctrl,
};

/** One basic block of a kernel. */
struct Block
{
    std::string name;
    /** Number of warp instructions this block issues when executed. */
    int instructionCount = 1;
    /** All statically possible successor block ids (empty only for exit). */
    std::vector<int> successors;
    MemSpace memSpace = MemSpace::None;
    SpecialOp specialOp = SpecialOp::None;
    /**
     * Instructions of this block are micro-kernel spawn overhead (the DMK
     * "SI" category of Figure 10) rather than useful traversal work.
     */
    bool spawnRelated = false;
    /**
     * Traversal phase the cycle-attribution profiler charges this block's
     * issue slots (and stalls blamed on warps parked here) to. Control
     * and exit blocks stay None.
     */
    obs::TravPhase phase = obs::TravPhase::None;
};

/**
 * A kernel program: blocks 0..n-1 with block 0 as entry and a designated
 * exit block. Immediately validates its CFG and computes immediate
 * post-dominators, which the SIMT stack uses as reconvergence points.
 */
class Program
{
  public:
    Program() = default;

    /**
     * @param blocks the CFG; block ids are vector indices
     * @param exit_block id of the unique exit block (no successors)
     * @throws std::invalid_argument on malformed CFGs (bad successor ids,
     *         exit with successors, blocks that cannot reach the exit)
     */
    Program(std::vector<Block> blocks, int exit_block);

    const Block &block(int id) const { return blocks_.at(id); }
    /** Every block, by id (a kernel extending this CFG copies them). */
    const std::vector<Block> &blocks() const { return blocks_; }
    int blockCount() const { return static_cast<int>(blocks_.size()); }
    int exitBlock() const { return exitBlock_; }

    /**
     * Immediate post-dominator of block @p id — the reconvergence point
     * pushed by the SIMT stack when @p id diverges. The exit block's ipdom
     * is itself.
     */
    int immediatePostDominator(int id) const { return ipdom_.at(id); }

    /** Total instruction count along blocks (diagnostics). */
    int totalInstructionCount() const;

  private:
    void validate() const;
    void computePostDominators();

    std::vector<Block> blocks_;
    int exitBlock_ = 0;
    std::vector<int> ipdom_;
};

} // namespace drs::simt
