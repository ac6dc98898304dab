/**
 * @file
 * Counter-consistency tests for the observability layer: the per-SMX
 * counter registries must sum exactly to the aggregate SimStats snapshot
 * for a single run and under concurrent sweep jobs, the snapshot must
 * agree with the legacy scalar SimStats fields it mirrors, and turning
 * the cycle tracer on must not change a single statistic.
 */

#include <cstdio>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "harness/harness.h"
#include "harness/sweep.h"
#include "obs/json.h"

namespace drs::harness {
namespace {

ExperimentScale
testScale()
{
    ExperimentScale scale;
    scale.sceneScale = 0.15f;
    scale.width = 128;
    scale.height = 96;
    scale.samplesPerPixel = 1;
    scale.raysPerBounce = 4096;
    scale.numSmx = 4; // > 1 so per-SMX sums are a real statement
    return scale;
}

const std::vector<Arch> kAllArchs = {Arch::Aila, Arch::Drs, Arch::Dmk,
                                     Arch::Tbc};

/**
 * The architectures whose every counter is kept per SMX: the paper's
 * four plus the survey kernels that extend them. sort and cutcode add
 * plugin-level reorder.* counters after the run, so they are left out.
 */
const std::vector<Arch> kPerSmxCountedArchs = {
    Arch::Aila, Arch::Drs, Arch::Dmk, Arch::Tbc, Arch("ser"),
    Arch("pathpred")};

/** GPU-level counters added after the per-SMX merge (shared L2). */
bool
isGpuLevelCounter(std::string_view name)
{
    return name.substr(0, 3) == "l2.";
}

class CountersFixture : public ::testing::Test
{
  protected:
    static void SetUpTestSuite()
    {
        prepared_ = new PreparedScene(
            prepareScene(scene::SceneId::Conference, testScale()));
    }

    static void TearDownTestSuite()
    {
        delete prepared_;
        prepared_ = nullptr;
    }

    static RunConfig makeConfig()
    {
        RunConfig config;
        config.gpu.numSmx = testScale().numSmx;
        return config;
    }

    static std::span<const geom::Ray> rays()
    {
        return prepared_->trace.bounce(2).rays;
    }

    static PreparedScene *prepared_;
};

PreparedScene *CountersFixture::prepared_ = nullptr;

/**
 * Check that the merged per-SMX snapshots reproduce the aggregate
 * exactly: same names, same values, with only the GPU-level l2.* entries
 * allowed on top.
 */
void
expectPerSmxSumsMatchAggregate(const simt::SimStats &aggregate,
                               const std::vector<simt::SimStats> &per_smx,
                               const std::string &context)
{
    obs::CounterSnapshot merged;
    for (const auto &stats : per_smx)
        merged.merge(stats.counters);

    for (const auto &[name, value] : aggregate.counters.entries()) {
        if (isGpuLevelCounter(name))
            continue;
        EXPECT_TRUE(merged.contains(name))
            << context << ": aggregate counter \"" << name
            << "\" missing from the per-SMX registries";
        EXPECT_EQ(merged.value(name), value)
            << context << ": per-SMX sums diverge on \"" << name << '"';
    }
    for (const auto &[name, value] : merged.entries())
        EXPECT_EQ(aggregate.counters.value(name), value)
            << context << ": per-SMX counter \"" << name
            << "\" lost in the aggregate";

    // The GPU-level entries mirror the shared L2 model.
    EXPECT_EQ(aggregate.counters.value("l2.access"), aggregate.l2.accesses)
        << context;
    EXPECT_EQ(aggregate.counters.value("l2.miss"), aggregate.l2.misses)
        << context;
}

TEST_F(CountersFixture, PerSmxCountersSumToAggregate)
{
    for (const Arch &arch : kPerSmxCountedArchs) {
        RunConfig config = makeConfig();
        std::vector<simt::SimStats> per_smx;
        config.perSmxStats = [&](int smx_index, const simt::SimStats &stats) {
            EXPECT_EQ(smx_index, static_cast<int>(per_smx.size()))
                << "per-SMX hook out of SMX-index order";
            per_smx.push_back(stats);
        };
        const auto aggregate =
            runBatch(arch, *prepared_->tracer, rays(), config);
        ASSERT_EQ(per_smx.size(),
                  static_cast<std::size_t>(testScale().numSmx));
        EXPECT_FALSE(aggregate.counters.empty());
        expectPerSmxSumsMatchAggregate(aggregate, per_smx, archName(arch));
    }
}

TEST_F(CountersFixture, PerSmxSumsHoldUnderConcurrentSweeps)
{
    for (const int jobs : {1, 4}) {
        SweepRunner runner(testScale(), jobs);
        // One accumulator per job; deque keeps addresses stable for the
        // perSmxStats lambdas while jobs run concurrently.
        std::deque<std::vector<simt::SimStats>> accumulators;
        std::vector<std::size_t> indices;
        for (const Arch &arch : kAllArchs) {
            auto &per_smx = accumulators.emplace_back();
            SweepJob job;
            job.scene = scene::SceneId::Conference;
            job.arch = arch;
            job.bounce = 2;
            job.config = makeConfig();
            job.config.perSmxStats =
                [&per_smx](int, const simt::SimStats &stats) {
                    per_smx.push_back(stats);
                };
            indices.push_back(runner.add(job));
        }
        const auto results = runner.run();
        for (std::size_t a = 0; a < kAllArchs.size(); ++a) {
            ASSERT_TRUE(results[indices[a]].ran);
            expectPerSmxSumsMatchAggregate(
                results[indices[a]].stats, accumulators[a],
                archName(kAllArchs[a]) + " jobs=" + std::to_string(jobs));
        }
    }
}

TEST_F(CountersFixture, SnapshotAgreesWithScalarStatsFields)
{
    // The counters are the new source of truth; the legacy scalar fields
    // must stay in lockstep so nothing the figures report can drift.
    const auto drs =
        runBatch(Arch::Drs, *prepared_->tracer, rays(), makeConfig());
    const auto &c = drs.counters;
    EXPECT_EQ(c.value("smx.rdctrl.issued"), drs.rdctrlIssued);
    EXPECT_EQ(c.value("smx.rdctrl.stalled_issues"), drs.rdctrlStalledIssues);
    EXPECT_EQ(c.value("smx.rdctrl.stall_cycles"), drs.rdctrlStallCycles);
    EXPECT_EQ(c.value("smx.rf.normal_accesses"), drs.rfAccessesNormal);
    EXPECT_EQ(c.value("smx.rf.shuffle_accesses"), drs.rfAccessesShuffle);
    EXPECT_EQ(c.value("smx.swap.completed"), drs.raySwapsCompleted);
    EXPECT_EQ(c.value("smx.swap.cycles"), drs.raySwapCycles);
    EXPECT_EQ(c.value("l1d.access"), drs.l1Data.accesses);
    EXPECT_EQ(c.value("l1d.miss"), drs.l1Data.misses);
    EXPECT_EQ(c.value("l1t.access"), drs.l1Texture.accesses);
    EXPECT_EQ(c.value("l1t.miss"), drs.l1Texture.misses);
    // DRS hardware activity visible under its own prefix.
    EXPECT_GT(c.value("drs.swaps"), 0u);
    EXPECT_GT(c.value("drs.moves") + c.value("drs.exchanges"), 0u);

    const auto dmk =
        runBatch(Arch::Dmk, *prepared_->tracer, rays(), makeConfig());
    EXPECT_EQ(dmk.counters.value("smx.spawn.conflict_cycles"),
              dmk.spawnBankConflictCycles);
    EXPECT_GT(dmk.counters.value("dmk.spawns"), 0u);

    const auto tbc =
        runBatch(Arch::Tbc, *prepared_->tracer, rays(), makeConfig());
    EXPECT_EQ(tbc.counters.value("smx.rf.normal_accesses"),
              tbc.rfAccessesNormal);
    EXPECT_TRUE(tbc.counters.contains("tbc.sync_stall_cycles"));
}

TEST_F(CountersFixture, TracerDoesNotAlterStatistics)
{
    for (const Arch &arch : kAllArchs) {
        const auto baseline =
            runBatch(arch, *prepared_->tracer, rays(), makeConfig());

        RunConfig traced_config = makeConfig();
        traced_config.trace.enabled = true;
        traced_config.trace.capacity = 4096;
        traced_config.trace.path = ::testing::TempDir() + "trace_" +
                                   archName(arch) + ".json";
        const auto traced =
            runBatch(arch, *prepared_->tracer, rays(), traced_config);

        EXPECT_EQ(baseline, traced)
            << archName(arch) << ": tracing changed the statistics";

        if (arch == Arch::Tbc)
            continue; // block executor; no warp-level tracer
        std::string text;
        {
            std::FILE *file =
                std::fopen(traced_config.trace.path.c_str(), "rb");
            ASSERT_NE(file, nullptr)
                << archName(arch) << ": no trace written to "
                << traced_config.trace.path;
            char buffer[4096];
            std::size_t n;
            while ((n = std::fread(buffer, 1, sizeof buffer, file)) > 0)
                text.append(buffer, n);
            std::fclose(file);
        }
        std::string error;
        const auto doc = obs::Json::parse(text, &error);
        ASSERT_TRUE(doc.has_value())
            << archName(arch) << ": trace is not valid JSON: " << error;
        const obs::Json *events = doc->find("traceEvents");
        ASSERT_NE(events, nullptr) << archName(arch);
        EXPECT_GT(events->size(), 0u)
            << archName(arch) << ": trace contains no events";
        std::remove(traced_config.trace.path.c_str());
    }
}

} // namespace
} // namespace drs::harness
