/**
 * @file
 * Fault-injection subsystem tests: deterministic seeded injectors, cache
 * corruption under invariant checking, the forward-progress watchdog
 * (unit level and against a livelocked synthetic kernel), cooperative
 * cancellation through the cycle engine, and the end-to-end contracts —
 * faults disabled is a pure observer, the same seed reproduces the same
 * SimStats.
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "exec/cancel.h"
#include "fault/fault.h"
#include "harness/harness.h"
#include "simt/cache.h"
#include "simt/engine.h"
#include "simt/gpu.h"
#include "simt/kernel.h"
#include "simt/memory.h"
#include "simt/smx.h"

namespace drs {
namespace {

// ------------------------------------------------------------- Seeding

TEST(MixSeed, StableAndSensitive)
{
    const std::uint64_t a = fault::mixSeed(1, 2, 3);
    EXPECT_EQ(a, fault::mixSeed(1, 2, 3)); // pure function
    EXPECT_NE(a, fault::mixSeed(1, 2, 4));
    EXPECT_NE(a, fault::mixSeed(1, 3, 3));
    EXPECT_NE(a, fault::mixSeed(2, 2, 3));
    // Adjacent job indices / attempts must decorrelate.
    EXPECT_NE(fault::mixSeed(42, 0, 1), fault::mixSeed(42, 1, 0));
}

TEST(FaultConfig, SeedGatesEverything)
{
    fault::FaultConfig config;
    EXPECT_FALSE(config.enabled());
    config.seed = 7;
    EXPECT_TRUE(config.enabled());
}

TEST(FaultConfig, FromEnvironmentParsesSeed)
{
    ::setenv("DRS_FAULT_SEED", "0x1234", 1);
    EXPECT_EQ(fault::FaultConfig::fromEnvironment().seed, 0x1234u);
    ::setenv("DRS_FAULT_SEED", "bogus", 1);
    EXPECT_EQ(fault::FaultConfig::fromEnvironment().seed, 0u);
    ::unsetenv("DRS_FAULT_SEED");
    EXPECT_EQ(fault::FaultConfig::fromEnvironment().seed, 0u);
}

TEST(FaultInjector, SameSeedSameStream)
{
    fault::FaultConfig config;
    config.seed = 0xfeedULL;
    config.swapBitFlipRate = 0.5;
    fault::FaultInjector a(config, 3);
    fault::FaultInjector b(config, 3);
    for (int i = 0; i < 256; ++i) {
        EXPECT_EQ(a.rollSwapBitFlip(), b.rollSwapBitFlip());
        EXPECT_EQ(a.rollDramFault(), b.rollDramFault());
        EXPECT_EQ(a.pick(1000), b.pick(1000));
    }
    EXPECT_EQ(a.counters().swapBitFlips, b.counters().swapBitFlips);
    EXPECT_GT(a.counters().swapBitFlips, 0u);
}

TEST(FaultInjector, UnitsDrawIndependentStreams)
{
    fault::FaultConfig config;
    config.seed = 0xfeedULL;
    fault::FaultInjector a(config, 0);
    fault::FaultInjector b(config, 1);
    int differing = 0;
    for (int i = 0; i < 64; ++i)
        differing += a.pick(1u << 30) != b.pick(1u << 30);
    EXPECT_GT(differing, 32);
}

// ------------------------------------------------- Cache corruption

TEST(FaultCache, CorruptionPreservesInvariants)
{
    fault::FaultConfig config;
    config.seed = 0x7777ULL;
    config.cacheTagFlipRate = 0.25; // hammer it
    fault::FaultInjector injector(config, 0);

    simt::Cache cache(1024, 64, 2);
    cache.setFault(&injector);
    std::uint64_t address = 1;
    for (int i = 0; i < 2000; ++i) {
        address = address * 6364136223846793005ULL + 1442695040888963407ULL;
        cache.access(address % 16384);
        cache.verifyInvariants();
    }
    EXPECT_GT(injector.counters().cacheTagFlips, 0u);
}

TEST(FaultMemory, DramFaultsAddLatencyOnly)
{
    fault::FaultConfig config;
    config.seed = 0x9999ULL;
    config.dramDelayRate = 0.5;
    config.dramDropRate = 0.25;
    fault::FaultInjector injector(config, 0);

    simt::MemoryConfig mem;
    simt::SharedMemorySide clean(mem);
    simt::SharedMemorySide faulty(mem);
    faulty.setFault(&injector);

    std::uint64_t slow = 0, fast = 0;
    for (std::uint64_t line = 0; line < 512; ++line) {
        fast += clean.accessLine(line * 128);
        slow += faulty.accessLine(line * 128);
    }
    EXPECT_GT(injector.counters().dramDelayed +
                  injector.counters().dramDropped,
              0u);
    EXPECT_GT(slow, fast);
    // Same line count through the L2 either way: faults delay responses,
    // they never change what was accessed.
    EXPECT_EQ(clean.l2Stats().accesses, faulty.l2Stats().accesses);
}

// ------------------------------------------------------------ Watchdog

TEST(Watchdog, DisabledNeverFires)
{
    fault::Watchdog watchdog(0);
    EXPECT_FALSE(watchdog.enabled());
    for (std::uint64_t cycle = 0; cycle < 100; ++cycle)
        EXPECT_FALSE(watchdog.observe(cycle, 0));
}

TEST(Watchdog, FiresOnlyAfterBudgetWithoutProgress)
{
    fault::Watchdog watchdog(10);
    EXPECT_TRUE(watchdog.enabled());
    // Progress advances: never fires.
    for (std::uint64_t cycle = 0; cycle < 50; ++cycle)
        EXPECT_FALSE(watchdog.observe(cycle, cycle));
    // Progress freezes at cycle 50: fires once 10 cycles elapse.
    for (std::uint64_t cycle = 50; cycle <= 60; ++cycle)
        EXPECT_FALSE(watchdog.observe(cycle, 50));
    EXPECT_TRUE(watchdog.observe(61, 50));
    EXPECT_EQ(watchdog.lastProgressCycle(), 50u);
    // Progress resumes: re-arms.
    EXPECT_FALSE(watchdog.observe(62, 51));
    EXPECT_FALSE(watchdog.observe(70, 51));
}

TEST(Watchdog, TimeoutCarriesDiagnostics)
{
    const fault::WatchdogTimeout timeout(123, 45, "SMX 0: stuck");
    EXPECT_EQ(timeout.cycle(), 123u);
    EXPECT_EQ(timeout.budgetCycles(), 45u);
    EXPECT_EQ(timeout.dump(), "SMX 0: stuck");
    EXPECT_NE(std::string(timeout.what()).find("SMX 0"), std::string::npos);
}

TEST(Watchdog, CyclesFromEnvironment)
{
    ::setenv("DRS_WATCHDOG", "123456", 1);
    EXPECT_EQ(fault::watchdogCyclesFromEnvironment(), 123456u);
    ::setenv("DRS_WATCHDOG", "nope", 1);
    EXPECT_EQ(fault::watchdogCyclesFromEnvironment(), 0u);
    ::unsetenv("DRS_WATCHDOG");
    EXPECT_EQ(fault::watchdogCyclesFromEnvironment(), 0u);
}

// ------------------------------------------- Livelocked engine runs

/**
 * A kernel that can never finish: the head block declares an exit
 * successor (Program validation requires exit to be reachable) but
 * every thread always loops back to the head. Forward progress is
 * permanently zero, which is exactly what the watchdog must convert
 * into a clean diagnostic failure instead of an hours-long hang. A long
 * @p spin block makes the event-driven engine jump far between events.
 */
class LivelockKernel : public simt::Kernel
{
  public:
    explicit LivelockKernel(int spin = 1)
    {
        std::vector<simt::Block> blocks(2);
        blocks[0] = {"spin", spin, {0, 1}, simt::MemSpace::None,
                     simt::SpecialOp::None, false};
        blocks[1] = {"exit", 1, {}, simt::MemSpace::None,
                     simt::SpecialOp::None, false};
        program_ = simt::Program(std::move(blocks), 1);
    }

    const simt::Program &program() const override { return program_; }

    simt::ThreadStep execute(int, int, int) override
    {
        simt::ThreadStep step;
        step.nextBlock = 0; // never take the exit edge
        return step;
    }

    simt::RowWorkspace &workspace() override
    {
        throw std::logic_error("unused");
    }

    std::uint64_t raysCompleted() const override { return 0; }

  private:
    simt::Program program_;
};

TEST(EngineWatchdog, LivelockBecomesWatchdogTimeout)
{
    simt::GpuConfig config;
    simt::SharedMemorySide shared(config.memory);
    LivelockKernel kernel;
    simt::Smx smx(config, kernel, nullptr, 2, shared);
    std::vector<simt::SmxExecutor *> smxs{&smx};

    fault::Watchdog watchdog(200);
    try {
        simt::runEngine(smxs, 1'000'000, &watchdog);
        FAIL() << "livelock must trip the watchdog";
    } catch (const fault::WatchdogTimeout &timeout) {
        EXPECT_GT(timeout.cycle(), 200u);
        EXPECT_LT(timeout.cycle(), 10'000u) << "should fire promptly";
        // The diagnostic dump names the SMX and its warps.
        EXPECT_NE(timeout.dump().find("SMX 0"), std::string::npos);
        EXPECT_NE(timeout.dump().find("warp"), std::string::npos);
    }
}

TEST(EngineWatchdog, LongBlocksFireAtThePerCycleCycle)
{
    simt::GpuConfig config;
    fault::Watchdog reference_watchdog(200);
    std::uint64_t reference_cycle = 0;
    std::string reference_dump;
    {
        // The per-cycle reference: step and observe every cycle.
        simt::SharedMemorySide shared(config.memory);
        LivelockKernel kernel_a(100);
        LivelockKernel kernel_b(100);
        simt::Smx smx_a(config, kernel_a, nullptr, 2, shared);
        simt::Smx smx_b(config, kernel_b, nullptr, 3, shared);
        std::vector<simt::SmxExecutor *> smxs{&smx_a, &smx_b};
        for (std::uint64_t cycle = 1; reference_cycle == 0; ++cycle) {
            ASSERT_LT(cycle, 10'000u);
            for (simt::SmxExecutor *smx : smxs)
                smx->step();
            if (reference_watchdog.observe(
                    cycle, smx_a.progressCount() + smx_b.progressCount())) {
                reference_cycle = cycle;
                reference_dump = simt::describeEngineState(smxs);
            }
        }
    }
    EXPECT_EQ(reference_cycle, 202u);

    simt::SharedMemorySide shared(config.memory);
    LivelockKernel kernel_a(100);
    LivelockKernel kernel_b(100);
    simt::Smx smx_a(config, kernel_a, nullptr, 2, shared);
    simt::Smx smx_b(config, kernel_b, nullptr, 3, shared);
    std::vector<simt::SmxExecutor *> smxs{&smx_a, &smx_b};
    fault::Watchdog watchdog(200);
    try {
        simt::runEngine(smxs, 1'000'000, &watchdog);
        FAIL() << "livelock must trip the watchdog";
    } catch (const fault::WatchdogTimeout &timeout) {
        EXPECT_EQ(timeout.cycle(), reference_cycle);
        // Every SMX was brought up to the firing cycle: the dump lists
        // every warp exactly as the per-cycle engine leaves it.
        EXPECT_EQ(timeout.dump(), reference_dump);
        for (const char *warp : {"warp 0", "warp 1", "warp 2"})
            EXPECT_NE(timeout.dump().find(warp), std::string::npos) << warp;
    }
    EXPECT_EQ(smx_a.cycle(), reference_cycle);
    EXPECT_EQ(smx_b.cycle(), reference_cycle);
}

TEST(EngineCancel, CancelledTokenStopsTheRun)
{
    simt::GpuConfig config;
    simt::SharedMemorySide shared(config.memory);
    LivelockKernel kernel;
    simt::Smx smx(config, kernel, nullptr, 2, shared);
    std::vector<simt::SmxExecutor *> smxs{&smx};

    exec::CancelToken token;
    token.requestCancel();
    EXPECT_THROW(simt::runEngine(smxs, 1'000'000, nullptr, &token),
                 exec::Cancelled);
}

TEST(EngineCancel, ExpiredDeadlineStopsLongBlocks)
{
    // The event-driven engine jumps 50 cycles at a time here, so it polls
    // the deadline whenever a jump crosses a multiple of 1024 cycles.
    simt::GpuConfig config;
    simt::SharedMemorySide shared(config.memory);
    LivelockKernel kernel(100);
    simt::Smx smx(config, kernel, nullptr, 2, shared);
    std::vector<simt::SmxExecutor *> smxs{&smx};

    exec::CancelToken token;
    token.setDeadline(std::chrono::steady_clock::now() -
                      std::chrono::seconds(1));
    EXPECT_THROW(simt::runEngine(smxs, 1'000'000, nullptr, &token),
                 exec::DeadlineExceeded);
    EXPECT_LE(smx.cycle(), 1024u + 50u);
}

TEST(EngineCancel, ExpiredDeadlineStopsTheRun)
{
    simt::GpuConfig config;
    simt::SharedMemorySide shared(config.memory);
    LivelockKernel kernel;
    simt::Smx smx(config, kernel, nullptr, 2, shared);
    std::vector<simt::SmxExecutor *> smxs{&smx};

    exec::CancelToken token;
    token.setDeadline(std::chrono::steady_clock::now() -
                      std::chrono::seconds(1));
    EXPECT_THROW(simt::runEngine(smxs, 1'000'000, nullptr, &token),
                 exec::DeadlineExceeded);
}

// ------------------------------------- End-to-end harness contracts

/** Conference at tiny scale, shared across the end-to-end fault tests. */
class FaultHarness : public ::testing::Test
{
  protected:
    static void SetUpTestSuite()
    {
        harness::ExperimentScale scale;
        scale.sceneScale = 0.05f;
        scale.width = 128;
        scale.height = 96;
        scale.samplesPerPixel = 1;
        scale.raysPerBounce = 4096;
        scale.numSmx = 2;
        scale.maxDepth = 3;
        prepared_ = new harness::PreparedScene(
            prepareScene(scene::SceneId::Conference, scale));
    }

    static void TearDownTestSuite()
    {
        delete prepared_;
        prepared_ = nullptr;
    }

    static std::span<const geom::Ray> rays()
    {
        std::span<const geom::Ray> r(prepared_->trace.bounce(2).rays);
        return r.size() > 512 ? r.first(512) : r;
    }

    static harness::RunConfig baseConfig()
    {
        harness::RunConfig config;
        config.gpu.numSmx = 2;
        return config;
    }

    static harness::PreparedScene *prepared_;
};

harness::PreparedScene *FaultHarness::prepared_ = nullptr;

TEST_F(FaultHarness, DisabledFaultConfigIsPureObserver)
{
    const auto baseline =
        runBatch(harness::Arch::Drs, *prepared_->tracer, rays(),
                 baseConfig());

    harness::RunConfig config = baseConfig();
    config.fault.seed = 0; // disabled, despite aggressive rates
    config.fault.swapBitFlipRate = 1.0;
    config.fault.cacheTagFlipRate = 1.0;
    config.fault.dramDelayRate = 1.0;
    const auto observed =
        runBatch(harness::Arch::Drs, *prepared_->tracer, rays(), config);

    EXPECT_TRUE(baseline == observed);
    for (const auto &[name, value] : observed.counters.entries())
        EXPECT_EQ(name.rfind("fault.", 0), std::string::npos)
            << name << " leaked into a fault-free run";
}

TEST_F(FaultHarness, SameSeedSameStats)
{
    harness::RunConfig config = baseConfig();
    config.fault.seed = 0xabcdULL;
    const auto first =
        runBatch(harness::Arch::Drs, *prepared_->tracer, rays(), config);
    const auto second =
        runBatch(harness::Arch::Drs, *prepared_->tracer, rays(), config);
    EXPECT_TRUE(first == second);
    EXPECT_EQ(first.raysTraced, rays().size())
        << "faults must never lose rays";

    std::uint64_t injected = 0;
    for (const auto &[name, value] : first.counters.entries())
        if (name.rfind("fault.", 0) == 0)
            injected += value;
    EXPECT_GT(injected, 0u) << "aggressive seed should inject something";
}

TEST_F(FaultHarness, CheckedRunSkipsReferenceUnderFaultInjection)
{
    // Regression: fault injection corrupts in-flight rays by design, so
    // a DRS_CHECK run used to flag every injected bit flip as a hit
    // mismatch against the fault-free lockstep reference. runBatch must
    // keep the checker detached whenever faults are armed — the faulted
    // run completes, injects, and matches an unchecked faulted run.
    harness::RunConfig config = baseConfig();
    config.fault.seed = 0xabcdULL;
    const auto unchecked =
        runBatch(harness::Arch::Drs, *prepared_->tracer, rays(), config);

    config.check = 1; // force DRS_CHECK on regardless of environment
    simt::SimStats checked;
    ASSERT_NO_THROW(checked = runBatch(harness::Arch::Drs,
                                       *prepared_->tracer, rays(), config));
    EXPECT_TRUE(unchecked == checked);

    std::uint64_t injected = 0;
    for (const auto &[name, value] : checked.counters.entries())
        if (name.rfind("fault.", 0) == 0)
            injected += value;
    EXPECT_GT(injected, 0u) << "fault gating must not disable injection";
}

TEST_F(FaultHarness, TbcBaselineHonoursFaultContracts)
{
    const auto baseline =
        runBatch(harness::Arch::Tbc, *prepared_->tracer, rays(),
                 baseConfig());
    harness::RunConfig config = baseConfig();
    config.fault.seed = 0; // pure observer
    const auto clean =
        runBatch(harness::Arch::Tbc, *prepared_->tracer, rays(), config);
    EXPECT_TRUE(baseline == clean);

    config.fault.seed = 0x5555ULL;
    const auto faulty_a =
        runBatch(harness::Arch::Tbc, *prepared_->tracer, rays(), config);
    const auto faulty_b =
        runBatch(harness::Arch::Tbc, *prepared_->tracer, rays(), config);
    EXPECT_TRUE(faulty_a == faulty_b);
}

TEST_F(FaultHarness, GenerousWatchdogDoesNotPerturbCleanRuns)
{
    const auto baseline =
        runBatch(harness::Arch::Aila, *prepared_->tracer, rays(),
                 baseConfig());
    harness::RunConfig config = baseConfig();
    config.watchdogCycles = fault::kDefaultWatchdogCycles;
    const auto watched =
        runBatch(harness::Arch::Aila, *prepared_->tracer, rays(), config);
    EXPECT_TRUE(baseline == watched);
}

TEST_F(FaultHarness, TightWatchdogAbortsWithDiagnostics)
{
    harness::RunConfig config = baseConfig();
    // One cycle without a completed ray is "no progress": no real
    // workload satisfies that, so this must abort with the dump.
    config.watchdogCycles = 1;
    try {
        runBatch(harness::Arch::Drs, *prepared_->tracer, rays(), config);
        FAIL() << "1-cycle watchdog must fire";
    } catch (const fault::WatchdogTimeout &timeout) {
        EXPECT_NE(timeout.dump().find("SMX 0"), std::string::npos);
    }
}

TEST_F(FaultHarness, CancelTokenPropagatesThroughRunBatch)
{
    harness::RunConfig config = baseConfig();
    exec::CancelToken token;
    token.requestCancel();
    config.cancel = &token;
    EXPECT_THROW(
        runBatch(harness::Arch::Drs, *prepared_->tracer, rays(), config),
        exec::Cancelled);
}

} // namespace
} // namespace drs
