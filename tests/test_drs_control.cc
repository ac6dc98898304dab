/**
 * @file
 * Unit tests for the DRS control logic against a scripted mock workspace:
 * renaming, dispatch rules, stalls, the swap engine's greedy operations,
 * and the hardware-cost arithmetic of Section 4.5.
 */

#include <gtest/gtest.h>

#include "core/drs_config.h"
#include "core/drs_control.h"
#include "core/hw_cost.h"
#include "simt/warp.h"

namespace drs::core {

/** Corrupts DrsControl's private tables for the invariant tests. */
struct DrsControlTestPeer
{
    static void addLock(DrsControl &control, int row)
    {
        ++control.lockCount_[static_cast<std::size_t>(row)];
    }
    static void flipUnbound(DrsControl &control, int row)
    {
        control.unbound_[static_cast<std::size_t>(row) / 64] ^=
            std::uint64_t{1} << (row % 64);
    }
    static bool dirty(const DrsControl &control) { return control.dirty_; }
};

namespace {

using simt::RdctrlResult;
using simt::TravState;

/** A scripted RowWorkspace: states are set directly by the test. */
class MockWorkspace : public simt::RowWorkspace
{
  public:
    MockWorkspace(int rows, int lanes, bool pool_empty = false)
        : RowWorkspace(rows, lanes), poolEmpty_(pool_empty),
          states_(static_cast<std::size_t>(rows) * lanes, TravState::Fetch)
    {
    }

    TravState state(int row, int lane) const override
    {
        return states_[static_cast<std::size_t>(row) * laneCount() + lane];
    }
    void moveRay(int sr, int sl, int dr, int dl) override
    {
        ++moves;
        setState(dr, dl, state(sr, sl));
        setState(sr, sl, TravState::Fetch);
    }
    void swapRays(int ra, int la, int rb, int lb) override
    {
        ++swaps;
        const TravState a = state(ra, la);
        setState(ra, la, state(rb, lb));
        setState(rb, lb, a);
    }
    bool poolEmpty() const override { return poolEmpty_; }

    void setState(int row, int lane, TravState s)
    {
        states_[static_cast<std::size_t>(row) * laneCount() + lane] = s;
        setLaneState(row, lane, s);
    }
    void fillRow(int row, TravState s)
    {
        for (int lane = 0; lane < laneCount(); ++lane)
            setState(row, lane, s);
    }

    void setPoolEmpty(bool v) { poolEmpty_ = v; }

    int moves = 0;
    int swaps = 0;

  private:
    bool poolEmpty_;
    std::vector<TravState> states_;
};

DrsConfig
strictConfig()
{
    DrsConfig config;
    config.dispatchMinorityTolerance = 0;
    config.fetchRefillThreshold = 1;
    config.fullDispatchTarget = 0;
    return config;
}

TEST(DrsControl, InitialMappingIsIdentity)
{
    MockWorkspace ws(7, 32); // 4 warps + 1 backup + 2 empty
    DrsControl control(strictConfig(), ws, 4);
    for (int w = 0; w < 4; ++w)
        EXPECT_EQ(control.warpRow(w), w);
}

TEST(DrsControl, RejectsTooFewRows)
{
    MockWorkspace ws(5, 32);
    EXPECT_THROW(DrsControl(strictConfig(), ws, 4), std::invalid_argument);
}

TEST(DrsControl, RejectsTooFewBuffers)
{
    MockWorkspace ws(7, 32);
    DrsConfig config;
    config.swapBuffers = 2;
    EXPECT_THROW(DrsControl(config, ws, 4), std::invalid_argument);
}

TEST(DrsControl, FetchDispatchOnEmptyRow)
{
    MockWorkspace ws(7, 32);
    DrsControl control(strictConfig(), ws, 4);
    const RdctrlResult r = control.onRdctrl(0);
    EXPECT_FALSE(r.stall);
    EXPECT_FALSE(r.exit);
    EXPECT_EQ(r.ctrl, TravState::Fetch);
    EXPECT_EQ(r.mask, 0xffffffffu);
}

TEST(DrsControl, UniformInnerRowDispatches)
{
    MockWorkspace ws(7, 32);
    DrsControl control(strictConfig(), ws, 4);
    ws.fillRow(1, TravState::Inner);
    const RdctrlResult r = control.onRdctrl(1);
    EXPECT_FALSE(r.stall);
    EXPECT_EQ(r.ctrl, TravState::Inner);
    EXPECT_EQ(r.mask, 0xffffffffu);
    EXPECT_EQ(r.row, 1);
}

TEST(DrsControl, MixedRowRemapsToUniformRow)
{
    MockWorkspace ws(7, 32);
    DrsControl control(strictConfig(), ws, 4);
    // Warp 0's row is mixed; row 4 (backup) is uniform leaf.
    ws.fillRow(0, TravState::Inner);
    ws.setState(0, 3, TravState::Leaf);
    ws.fillRow(4, TravState::Leaf);
    const RdctrlResult r = control.onRdctrl(0);
    EXPECT_FALSE(r.stall);
    EXPECT_EQ(r.ctrl, TravState::Leaf);
    EXPECT_EQ(r.row, 4);
    EXPECT_EQ(control.warpRow(0), 4);
}

TEST(DrsControl, MixedRowStallsWhenNoUniformRowAndPoolEmpty)
{
    MockWorkspace ws(7, 32, true); // pool empty: no all-fetch fallback
    DrsControl control(strictConfig(), ws, 4);
    ws.fillRow(0, TravState::Inner);
    ws.setState(0, 5, TravState::Leaf);
    const RdctrlResult r = control.onRdctrl(0);
    EXPECT_TRUE(r.stall);
    // The stalled warp released its row for shuffling.
    EXPECT_EQ(control.warpRow(0), -1);
}

TEST(DrsControl, ExitWhenDrained)
{
    MockWorkspace ws(7, 32, true);
    DrsControl control(strictConfig(), ws, 4);
    const RdctrlResult r = control.onRdctrl(2);
    EXPECT_TRUE(r.exit);
}

TEST(DrsControl, MinorityToleranceDispatchesWithPartialMask)
{
    MockWorkspace ws(7, 32);
    DrsConfig config = strictConfig();
    config.dispatchMinorityTolerance = 2;
    DrsControl control(config, ws, 4);
    ws.fillRow(2, TravState::Inner);
    ws.setState(2, 0, TravState::Leaf);
    ws.setState(2, 1, TravState::Leaf);
    const RdctrlResult r = control.onRdctrl(2);
    EXPECT_FALSE(r.stall);
    EXPECT_EQ(r.ctrl, TravState::Inner);
    EXPECT_EQ(simt::popcount(r.mask), 30);
}

TEST(DrsControl, HoleRefillMaskWhenAboveThreshold)
{
    MockWorkspace ws(7, 32);
    DrsConfig config = strictConfig();
    config.fetchRefillThreshold = 4;
    DrsControl control(config, ws, 4);
    ws.fillRow(3, TravState::Inner);
    for (int lane = 0; lane < 5; ++lane)
        ws.setState(3, lane, TravState::Fetch);
    const RdctrlResult r = control.onRdctrl(3);
    EXPECT_FALSE(r.stall);
    EXPECT_EQ(r.ctrl, TravState::Inner);
    EXPECT_EQ(simt::popcount(r.mask), 27);
    EXPECT_EQ(simt::popcount(r.fetchMask), 5);
}

TEST(DrsControl, NoRefillBelowThreshold)
{
    MockWorkspace ws(7, 32);
    DrsConfig config = strictConfig();
    config.fetchRefillThreshold = 8;
    DrsControl control(config, ws, 4);
    ws.fillRow(3, TravState::Inner);
    ws.setState(3, 0, TravState::Fetch);
    const RdctrlResult r = control.onRdctrl(3);
    EXPECT_EQ(r.fetchMask, 0u);
}

TEST(DrsControl, SwapEngineSeparatesMixedRow)
{
    MockWorkspace ws(7, 32, true);
    DrsConfig config = strictConfig();
    DrsControl control(config, ws, 4);
    // Unbound mixed row 4: the engine must move its leaf rays out.
    ws.fillRow(4, TravState::Inner);
    ws.setState(4, 0, TravState::Leaf);
    ws.setState(4, 1, TravState::Leaf);
    // Stall warp 0 so cycle() runs with a dirty engine.
    ws.fillRow(0, TravState::Inner);
    ws.setState(0, 9, TravState::Leaf);
    (void)control.onRdctrl(0);

    for (int i = 0; i < 5000; ++i)
        control.cycle(0);
    // Eventually rows are state-separated: no row holds both states.
    int mixed_rows = 0;
    for (int row = 0; row < 7; ++row) {
        bool has_inner = false;
        bool has_leaf = false;
        for (int lane = 0; lane < 32; ++lane) {
            has_inner |= ws.state(row, lane) == TravState::Inner;
            has_leaf |= ws.state(row, lane) == TravState::Leaf;
        }
        mixed_rows += (has_inner && has_leaf) ? 1 : 0;
    }
    EXPECT_EQ(mixed_rows, 0);
    EXPECT_GT(ws.moves + ws.swaps, 0);
    EXPECT_GT(control.stats().movesCompleted +
                  control.stats().exchangesCompleted,
              0u);
}

TEST(DrsControl, IdealizedConsolidationIsImmediate)
{
    MockWorkspace ws(7, 32, true);
    DrsConfig config = strictConfig();
    config.idealized = true;
    DrsControl control(config, ws, 4);
    ws.fillRow(4, TravState::Inner);
    for (int lane = 0; lane < 10; ++lane)
        ws.setState(4, lane, TravState::Leaf);
    ws.fillRow(5, TravState::Leaf);
    for (int lane = 0; lane < 10; ++lane)
        ws.setState(5, lane, TravState::Inner);
    // One stalled rdctrl marks the engine dirty; a few cycles suffice.
    ws.fillRow(0, TravState::Inner);
    ws.setState(0, 0, TravState::Leaf);
    (void)control.onRdctrl(0);
    for (int i = 0; i < 4; ++i)
        control.cycle(0);
    for (int row = 4; row <= 5; ++row) {
        bool has_inner = false;
        bool has_leaf = false;
        for (int lane = 0; lane < 32; ++lane) {
            has_inner |= ws.state(row, lane) == TravState::Inner;
            has_leaf |= ws.state(row, lane) == TravState::Leaf;
        }
        EXPECT_FALSE(has_inner && has_leaf) << "row " << row;
    }
}

TEST(DrsControl, RowSearchReachesRowsPastSixtyFour)
{
    // 60 warps + 8 backup + 2 empty = 70 rows: the unbound set spans two
    // 64-bit words. Rows 66 and 69 are uniform inner rows; the fuller
    // one wins, and the first of two equal candidates wins.
    MockWorkspace ws(70, 32, true);
    DrsConfig config = strictConfig();
    config.backupRows = 8;
    DrsControl control(config, ws, 60);
    ws.fillRow(0, TravState::Inner);
    ws.setState(0, 7, TravState::Leaf);
    for (int lane = 0; lane < 20; ++lane)
        ws.setState(66, lane, TravState::Inner);
    ws.fillRow(69, TravState::Inner);
    RdctrlResult r = control.onRdctrl(0);
    EXPECT_FALSE(r.stall);
    EXPECT_EQ(r.row, 69);
    EXPECT_EQ(control.warpRow(0), 69);

    ws.fillRow(1, TravState::Inner);
    ws.setState(1, 3, TravState::Leaf);
    ws.fillRow(65, TravState::Inner);
    ws.fillRow(67, TravState::Inner);
    r = control.onRdctrl(1);
    EXPECT_EQ(r.row, 65);
    EXPECT_NO_THROW(control.verifyInvariants());
}

TEST(DrsControl, VerifyInvariantsCatchesCorruptLockCount)
{
    MockWorkspace ws(7, 32);
    DrsControl control(strictConfig(), ws, 4);
    EXPECT_NO_THROW(control.verifyInvariants());
    DrsControlTestPeer::addLock(control, 5);
    EXPECT_THROW(control.verifyInvariants(), std::logic_error);
}

TEST(DrsControl, VerifyInvariantsCatchesCorruptUnboundBit)
{
    MockWorkspace ws(70, 32);
    DrsConfig config = strictConfig();
    config.backupRows = 8;
    for (const int row : {2, 66, 70}) {
        SCOPED_TRACE(row);
        DrsControl control(config, ws, 60);
        EXPECT_NO_THROW(control.verifyInvariants());
        // A bound row marked unbound, an unbound row marked bound, and a
        // bit past the last row.
        DrsControlTestPeer::flipUnbound(control, row);
        EXPECT_THROW(control.verifyInvariants(), std::logic_error);
    }
}

TEST(DrsControl, SwapEnginePredictsItsNextStateChange)
{
    // callsUntilChange() must name exactly the first cycle() call that
    // changes the state stalled warps read, from every state the engine
    // passes through (operations in setup, in transfer, idle). Only a
    // dirty engine may answer early: its next call scans, and the scan
    // may start nothing. Warps stall one by one to keep it working.
    constexpr std::uint64_t kNoChange = simt::WarpController::kNoChange;
    constexpr int kWarps = 8;
    constexpr int kStallEvery = 150;
    constexpr int kCalls = 4000;
    DrsConfig buffers18 = strictConfig();
    buffers18.swapBuffers = 18;
    DrsConfig ideal = strictConfig();
    ideal.idealized = true;
    for (const DrsConfig &config : {strictConfig(), buffers18, ideal}) {
        for (int issued = 0; issued <= 8; ++issued) {
            SCOPED_TRACE(::testing::Message()
                         << config.swapBuffers << " buffers"
                         << (config.idealized ? ", idealized" : "")
                         << ", issued " << issued);
            // 8 warps + 1 backup + 2 empty rows; every row mixes inner and
            // leaf rays around a few holes, so no row is dispatchable.
            MockWorkspace ws(kWarps + 3, 32, true);
            for (int row = 0; row < kWarps + 3; ++row) {
                ws.fillRow(row, TravState::Inner);
                for (int lane = 0; lane < 2 + 2 * row; ++lane)
                    ws.setState(row, lane, TravState::Leaf);
                for (int lane = 28 - row; lane < 32; ++lane)
                    ws.setState(row, lane, TravState::Fetch);
            }
            DrsControl control(config, ws, kWarps);

            std::vector<std::uint64_t> predicted;
            std::vector<bool> dirty;
            std::vector<bool> changed; // by call t
            std::vector<int> segment;  // calls since the last rdctrl
            int segment_id = 0;
            for (int t = 0; t < kCalls; ++t) {
                if (t % kStallEvery == 0 && t / kStallEvery < kWarps) {
                    // The warp's own row is mixed: rdctrl unbinds it.
                    (void)control.onRdctrl(t / kStallEvery);
                    EXPECT_EQ(control.callsUntilChange(issued), 1u);
                    ++segment_id;
                }
                predicted.push_back(control.callsUntilChange(issued));
                dirty.push_back(DrsControlTestPeer::dirty(control));
                segment.push_back(segment_id);
                const std::uint64_t before = control.stateVersion();
                control.cycle(issued);
                changed.push_back(control.stateVersion() != before);
            }

            int exact = 0;
            for (int t = 0; t < kCalls; ++t) {
                std::uint64_t actual = kNoChange;
                for (int u = t; u < kCalls && segment[u] == segment[t]; ++u) {
                    if (changed[u]) {
                        actual = static_cast<std::uint64_t>(u - t + 1);
                        break;
                    }
                }
                if (dirty[t]) {
                    EXPECT_EQ(predicted[t], 1u) << "call " << t;
                    continue;
                }
                if (actual == kNoChange) {
                    // No change before the next rdctrl or the end.
                    int calls = 0;
                    for (int u = t; u < kCalls && segment[u] == segment[t];
                         ++u)
                        ++calls;
                    EXPECT_GT(predicted[t], static_cast<std::uint64_t>(calls))
                        << "call " << t;
                } else {
                    EXPECT_EQ(predicted[t], actual) << "call " << t;
                    exact += predicted[t] > 1 ? 1 : 0;
                }
            }
            // The engine moved rays (the replay was exercised), then
            // settled: idle and clean, no call will change anything.
            if (!config.idealized) {
                EXPECT_GT(exact, 0);
            }
            EXPECT_GT(ws.moves + ws.swaps, 0);
            EXPECT_EQ(control.activeOperations(), 0);
            EXPECT_EQ(control.callsUntilChange(issued), kNoChange);
        }
    }
}

TEST(DrsControl, StallStatisticsAccumulate)
{
    MockWorkspace ws(7, 32, true);
    DrsControl control(strictConfig(), ws, 4);
    ws.fillRow(0, TravState::Inner);
    ws.setState(0, 0, TravState::Leaf);
    const RdctrlResult r = control.onRdctrl(0);
    EXPECT_TRUE(r.stall);
    EXPECT_EQ(control.stats().stallsStarted, 1u);
}

// ------------------------------------------------------- Hardware costs

TEST(HwCost, PaperSwapBufferStorage)
{
    // Paper: 6 x (32 - 1) x 32 bits = 744 bytes.
    DrsConfig config;
    config.swapBuffers = 6;
    const DrsStorage s = computeDrsStorage(config, 58);
    EXPECT_EQ(s.swapBufferBytes, 744u);
}

TEST(HwCost, PaperRayStateTableStorage)
{
    // Paper: 61 x 32 x 20 bits = 488 bytes (58 warps + 1 backup + 2).
    DrsConfig config;
    config.backupRows = 1;
    const DrsStorage s = computeDrsStorage(config, 58);
    EXPECT_EQ(s.rayStateTableBytes, 488u);
}

TEST(HwCost, TotalAboutOnePointFourKb)
{
    DrsConfig config;
    const DrsStorage s = computeDrsStorage(config, 58);
    EXPECT_GT(s.totalBytes, 1200u);
    EXPECT_LT(s.totalBytes, 1600u);
    // Paper: 0.55% of the 256 KB register file per SMX.
    const double fraction = static_cast<double>(s.totalBytes) / (256 * 1024);
    EXPECT_NEAR(fraction, 0.0055, 0.0015);
}

TEST(HwCost, BaselineStorageMatchesPaper)
{
    const BaselineStorage s = computeBaselineStorage();
    // Paper: 54 x 32 x 17 x 32 bits = 114.75 KB.
    EXPECT_EQ(s.dmkSpawnMemoryBytes, 117504u);
    EXPECT_NEAR(static_cast<double>(s.dmkSpawnMemoryBytes) / 1024.0, 114.75,
                0.01);
    // Paper: 10 x 32 x 64 bits = 2.5 KB.
    EXPECT_EQ(s.tbcWarpBufferBytes, 2560u);
}

TEST(HwCost, AreaScalesFromSynthesisAnchor)
{
    DrsConfig config;
    const DrsStorage s = computeDrsStorage(config, 58);
    const DrsArea a = estimateDrsArea(s);
    EXPECT_NEAR(a.mm2PerCore, 0.042, 0.01);
    // Paper: ~0.11% of a 550 mm^2 GPU for 15 SMXs.
    EXPECT_NEAR(a.fractionOfGpu, 0.0011, 0.0004);
}

TEST(HwCost, SpawnableWarps)
{
    DrsConfig config;
    config.useExtraRegisterBank = true;
    EXPECT_EQ(config.spawnableWarps(), 60); // paper: Kernel 1 spawns 60
    config.useExtraRegisterBank = false;
    config.backupRows = 1;
    EXPECT_EQ(config.spawnableWarps(), 58); // paper: reduced to 58
}

} // namespace
} // namespace drs::core
