/**
 * @file
 * Conformance suite of the architecture plugin registry: every
 * registered architecture — current and future — must uphold the
 * simulator-wide contracts the rest of the system assumes. For each
 * plugin in the registry:
 *
 *   - the issue-slot attribution ledger conserves (every slot of every
 *     cycle is attributed exactly once) and profiling never alters
 *     SimStats — the sampled run steps every cycle, so this also pins
 *     the event-driven engine against per-cycle stepping, for `tbc`
 *     TbcSmx's horizon as well as Smx's;
 *   - after a run, the plugin's counter namespace is non-empty — the
 *     architecture cannot silently lose its observability wiring;
 *   - a DRS_CHECK=1 run (lockstep reference interpreter + cycle-level
 *     invariants) passes and leaves SimStats untouched;
 *   - runGpu's wiring holds: a GPU without SMXs is rejected, a
 *     cancelled token stops the run, and a 1-cycle watchdog aborts it
 *     with a per-SMX dump;
 *   - SimStats, and the attribution and timeline of a sampled run, match
 *     digests recorded from a known-good build, bit for bit (plus three
 *     DRS configurations that stress the row census, and a fault-injected
 *     run of drs and of tbc).
 *
 * Plus the registry mechanics themselves: the built-in lineup, loud
 * failure for unknown architectures, duplicate rejection, and runtime
 * registration being picked up by runBatch immediately.
 */

#include <cstdint>
#include <functional>
#include <ios>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exec/cancel.h"
#include "fault/fault.h"
#include "harness/arch_detail.h"
#include "harness/arch_plugin.h"
#include "harness/harness.h"
#include "harness/report.h"
#include "reorder/predictor.h"
#include "reorder/reorder.h"

namespace drs::harness {
namespace {

ExperimentScale
testScale()
{
    ExperimentScale scale;
    scale.sceneScale = 0.1f;
    scale.width = 128;
    scale.height = 96;
    scale.samplesPerPixel = 1;
    scale.raysPerBounce = 4096;
    scale.numSmx = 2;
    return scale;
}

/** One scene, prepared once for the whole suite. */
const PreparedScene &
prepared()
{
    static const PreparedScene scene =
        prepareScene(scene::SceneId::Conference, testScale());
    return scene;
}

std::span<const geom::Ray>
testRays()
{
    const auto &rays = prepared().trace.bounce(2).rays;
    std::span<const geom::Ray> span(rays);
    return span.size() > 768 ? span.first(768) : span;
}

RunConfig
baseConfig()
{
    RunConfig config;
    config.gpu.numSmx = testScale().numSmx;
    config.check = 0;
    return config;
}

TEST(ArchRegistry, BuiltinLineupIsRegisteredInSurveyOrder)
{
    const auto archs = ArchRegistry::instance().archs();
    ASSERT_GE(archs.size(), 8u);
    const char *expected[] = {"aila", "drs", "dmk", "tbc", "sort",
                              "cutcode", "ser", "pathpred"};
    for (std::size_t i = 0; i < std::size(expected); ++i)
        EXPECT_EQ(archs[i].name(), expected[i]) << "lineup position " << i;

    // The paper's constants resolve to the same plugins.
    for (const Arch &arch : {Arch::Aila, Arch::Drs, Arch::Dmk, Arch::Tbc})
        EXPECT_NE(ArchRegistry::instance().find(arch), nullptr)
            << arch.name();
}

TEST(ArchRegistry, PluginsDeclareDistinctNonEmptyIdentity)
{
    std::vector<std::string> seen;
    for (const ArchPlugin *plugin : ArchRegistry::instance().plugins()) {
        EXPECT_FALSE(plugin->name().empty());
        EXPECT_FALSE(plugin->description().empty()) << plugin->name();
        EXPECT_FALSE(plugin->counterNamespace().empty()) << plugin->name();
        for (const std::string &name : seen)
            EXPECT_NE(name, plugin->name()) << "duplicate registration";
        seen.push_back(plugin->name());
    }
}

TEST(ArchRegistry, UnknownArchitectureFailsLoudly)
{
    EXPECT_EQ(ArchRegistry::instance().find(Arch("no-such-arch")), nullptr);
    try {
        runBatch(Arch("no-such-arch"), *prepared().tracer, testRays(),
                 baseConfig());
        FAIL() << "runBatch accepted an unregistered architecture";
    } catch (const std::invalid_argument &e) {
        // The message must name the lineup so the failure is actionable.
        EXPECT_NE(std::string(e.what()).find("no-such-arch"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("aila"), std::string::npos);
    }

    EXPECT_THROW(runBatch(Arch(), *prepared().tracer, testRays(),
                          baseConfig()),
                 std::invalid_argument)
        << "an empty handle must be rejected";
}

TEST(ArchRegistry, DuplicateAndNullRegistrationsAreRejected)
{
    /** A minimal plugin whose only purpose is name collision. */
    class Impostor : public ArchPlugin
    {
      public:
        std::string name() const override { return "aila"; }
        std::string description() const override { return "impostor"; }
        std::string counterNamespace() const override { return "smx"; }
        simt::SimStats run(const render::PathTracer &,
                           std::span<const geom::Ray>, const RunConfig &,
                           const ArchObservers &,
                           const check::Checker *) const override
        {
            return {};
        }
        check::BatchCheckInputs
        checkInputs(const RunConfig &) const override
        {
            return {};
        }
    };

    EXPECT_THROW(ArchRegistry::instance().add(std::make_unique<Impostor>()),
                 std::invalid_argument);
    EXPECT_THROW(ArchRegistry::instance().add(nullptr),
                 std::invalid_argument);
}

TEST(ArchRegistry, RuntimeRegistrationIsPickedUpEverywhere)
{
    /**
     * A fully conformant external architecture: delegates to the aila
     * plugin under a new name, exactly what an out-of-tree experiment
     * would do to reuse an executor.
     */
    class Echo : public ArchPlugin
    {
      public:
        std::string name() const override { return "echo-aila"; }
        std::string description() const override
        {
            return "runtime-registered delegate of the aila plugin";
        }
        std::string counterNamespace() const override
        {
            return delegate().counterNamespace();
        }
        simt::SimStats run(const render::PathTracer &tracer,
                           std::span<const geom::Ray> rays,
                           const RunConfig &config,
                           const ArchObservers &observers,
                           const check::Checker *checker) const override
        {
            return delegate().run(tracer, rays, config, observers, checker);
        }
        check::BatchCheckInputs
        checkInputs(const RunConfig &config) const override
        {
            return delegate().checkInputs(config);
        }

      private:
        static const ArchPlugin &delegate()
        {
            return ArchRegistry::instance().get(Arch::Aila);
        }
    };

    // Register once for the whole process (tests may run in any order).
    static const ArchRegistrar registrar{std::make_unique<Echo>()};
    const Arch arch = registrar.arch();
    EXPECT_EQ(arch.name(), "echo-aila");
    EXPECT_NE(ArchRegistry::instance().find(arch), nullptr);

    // runBatch resolves it like any builtin — including the checked path
    // (lockstep reference interpreter), with results identical to aila.
    RunConfig config = baseConfig();
    config.check = 1;
    const auto echoed = runBatch(arch, *prepared().tracer, testRays(),
                                 config);
    const auto direct = runBatch(Arch::Aila, *prepared().tracer, testRays(),
                                 config);
    EXPECT_TRUE(echoed == direct)
        << "the delegate must reproduce aila bit-for-bit";
}

class RegistryConformance : public ::testing::TestWithParam<std::string>
{
  protected:
    Arch arch() const { return Arch(GetParam()); }
    const ArchPlugin &plugin() const
    {
        return ArchRegistry::instance().get(arch());
    }
};

TEST_P(RegistryConformance, CounterNamespaceIsPopulatedAfterARun)
{
    const auto stats =
        runBatch(arch(), *prepared().tracer, testRays(), baseConfig());
    const std::string prefix = plugin().counterNamespace() + ".";
    bool found = false;
    for (const auto &[name, value] : stats.counters.entries())
        if (name.compare(0, prefix.size(), prefix) == 0) {
            found = true;
            break;
        }
    EXPECT_TRUE(found) << "no \"" << prefix
                       << "*\" counter after a run — the architecture "
                          "lost its observability wiring";
}

TEST_P(RegistryConformance, AttributionLedgerConservesAndObservesPurely)
{
    RunConfig config = baseConfig();
    const auto plain =
        runBatch(arch(), *prepared().tracer, testRays(), config);

    config.sample.enabled = true;
    config.sample.interval = 64;
    config.sample.capacity = 256;
    RunObservations observations;
    config.observationsOut = &observations;
    const auto sampled =
        runBatch(arch(), *prepared().tracer, testRays(), config);

    EXPECT_TRUE(plain == sampled) << "profiling altered SimStats";
    ASSERT_NE(observations.attribution, nullptr);
    ASSERT_NE(observations.sampler, nullptr);
    // Throws std::logic_error when any issue slot went missing or was
    // double-counted.
    EXPECT_NO_THROW(observations.attribution->merged().verifyConservation());
}

TEST_P(RegistryConformance, EmptyBatchCompletesWithZeroRays)
{
    RunConfig config = baseConfig();
    config.check = 1;
    std::vector<geom::Hit> hits;
    config.hitsOut = &hits;
    simt::SimStats stats;
    ASSERT_NO_THROW(stats = runBatch(arch(), *prepared().tracer,
                                     testRays().first(0), config));
    EXPECT_EQ(stats.raysTraced, 0u);
    EXPECT_TRUE(hits.empty());
}

TEST_P(RegistryConformance, SingleRayBatchTracesAndVerifies)
{
    RunConfig config = baseConfig();
    config.check = 1; // the lockstep reference validates the hit too
    std::vector<geom::Hit> hits;
    config.hitsOut = &hits;
    simt::SimStats stats;
    ASSERT_NO_THROW(stats = runBatch(arch(), *prepared().tracer,
                                     testRays().first(1), config));
    EXPECT_EQ(stats.raysTraced, 1u);
    ASSERT_EQ(hits.size(), 1u);

    // And it is deterministic like any other batch size.
    std::vector<geom::Hit> again_hits;
    config.hitsOut = &again_hits;
    const auto again = runBatch(arch(), *prepared().tracer,
                                testRays().first(1), config);
    EXPECT_TRUE(stats == again);
    ASSERT_EQ(again_hits.size(), 1u);
    EXPECT_EQ(hits[0].triangle, again_hits[0].triangle);
}

TEST_P(RegistryConformance, LockstepCheckPassesAndIsAPureObserver)
{
    const auto unchecked =
        runBatch(arch(), *prepared().tracer, testRays(), baseConfig());

    RunConfig config = baseConfig();
    config.check = 1;
    std::vector<geom::Hit> hits;
    config.hitsOut = &hits;
    simt::SimStats checked;
    ASSERT_NO_THROW(checked = runBatch(arch(), *prepared().tracer,
                                       testRays(), config))
        << "DRS_CHECK=1 found an invariant violation";
    EXPECT_TRUE(unchecked == checked) << "DRS_CHECK=1 altered SimStats";
    EXPECT_EQ(hits.size(), testRays().size());
}

TEST_P(RegistryConformance, RejectsNonPositiveSmxCount)
{
    for (const int num_smx : {0, -1}) {
        RunConfig config = baseConfig();
        config.gpu.numSmx = num_smx;
        EXPECT_THROW(
            runBatch(arch(), *prepared().tracer, testRays(), config),
            std::invalid_argument)
            << "numSmx = " << num_smx;
    }
}

TEST_P(RegistryConformance, CancelledTokenStopsTheRun)
{
    RunConfig config = baseConfig();
    exec::CancelToken token;
    token.requestCancel();
    config.cancel = &token;
    EXPECT_THROW(runBatch(arch(), *prepared().tracer, testRays(), config),
                 exec::Cancelled);
}

TEST_P(RegistryConformance, TightWatchdogAbortsWithDiagnostics)
{
    RunConfig config = baseConfig();
    // One cycle without a completed ray is "no progress": no real
    // workload satisfies that, so this must abort with the dump.
    config.watchdogCycles = 1;
    try {
        runBatch(arch(), *prepared().tracer, testRays(), config);
        FAIL() << "1-cycle watchdog must fire";
    } catch (const fault::WatchdogTimeout &timeout) {
        EXPECT_NE(timeout.dump().find("SMX 0"), std::string::npos);
    }
}

/** FNV-1a over a JSON document's text. */
std::uint64_t
jsonDigest(const obs::Json &json)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (const char ch : json.dump()) {
        hash ^= static_cast<unsigned char>(ch);
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

/** Over the lossless JSON form: equal digests, equal SimStats. */
std::uint64_t
statsDigest(const simt::SimStats &stats)
{
    return jsonDigest(statsJsonFull(stats));
}

/**
 * Over the "attribution" and "timeline" sections a bench row carries
 * for a sampled run: equal digests, equal issue-slot ledgers and
 * windowed frames.
 */
std::uint64_t
observationsDigest(const RunObservations &observations,
                   const simt::SimStats &stats)
{
    obs::Json row = obs::Json::object();
    addObservationsJson(row, observations, stats);
    return jsonDigest(row);
}

/** The golden batch: conference at scale 0.05, 2048 rays of B2, 2 SMX. */
const PreparedScene &
goldenScene()
{
    static const PreparedScene scene = [] {
        ExperimentScale scale = testScale();
        scale.sceneScale = 0.05f;
        scale.raysPerBounce = 2048;
        return prepareScene(scene::SceneId::Conference, scale);
    }();
    return scene;
}

TEST_P(RegistryConformance, SimStatsMatchGoldenDigests)
{
    // Exact SimStats of every built-in architecture on one small batch,
    // and the exact attribution ledger and timeline of a sampled run of
    // it: the stall classifiers read the warps' ready cycles, so the
    // second digest pins when each access sets them. The DRS variants
    // reach the row-census corners: 70 rows (past a 64-bit row set),
    // idealized consolidation, and a strict dispatch rule with every
    // swap buffer in use. The fault variants pin each injector's stream:
    // for drs the swap bit flips, L1 tags and the shared L2/DRAM side,
    // for tbc the L1 tags and the shared side. A change that alters the
    // model on purpose re-records the digests printed on failure.
    struct Golden
    {
        const char *arch;
        const char *variant;
        std::function<void(RunConfig &)> configure;
        std::uint64_t digest;
        std::uint64_t observationsDigest;
        /** Fault counters the run must advance. */
        std::vector<const char *> fired = {};
    };
    // Rates raised over the defaults so every site fires on this batch.
    const auto faulted = [](RunConfig &c) {
        c.fault.seed = 0xfa117;
        c.fault.cacheTagFlipRate = 1e-2;
        c.fault.dramDelayRate = 1e-2;
        c.fault.dramDropRate = 1e-2;
    };
    const std::vector<Golden> goldens = {
        {"aila", "default", [](RunConfig &) {}, 0x28672e6781d82280ULL,
         0x7f90f09ebfbc222eULL},
        {"drs", "default", [](RunConfig &) {}, 0xc29e64bfbf6e6e0cULL,
         0x9981394085c0ac22ULL},
        {"drs", "extra bank, 8 backup rows",
         [](RunConfig &c) {
             c.drs.useExtraRegisterBank = true;
             c.drs.backupRows = 8;
         },
         0x2a78ec4fa9050a6aULL, 0x288eaf5c1dc7feaaULL},
        {"drs", "idealized", [](RunConfig &c) { c.drs.idealized = true; },
         0x6c68e9c6a936a3a8ULL, 0x24e19d79198e7832ULL},
        {"drs", "strict dispatch, 18 buffers",
         [](RunConfig &c) {
             c.drs.dispatchMinorityTolerance = 0;
             c.drs.swapBuffers = 18;
         },
         0xe9481c3d38188817ULL, 0x57bdf4830e2e868bULL},
        {"drs", "fault seed 0xfa117", faulted, 0x49e0f777f74556a3ULL,
         0x578a27e1e5dc10beULL,
         {"fault.swap_bit_flips", "fault.cache_tag_flips",
          "fault.dram_delayed", "fault.dram_dropped"}},
        {"dmk", "default", [](RunConfig &) {}, 0x738e6a897df60c49ULL,
         0xc2f9d207bcfe55d7ULL},
        {"tbc", "default", [](RunConfig &) {}, 0xe29c075ce2fdcaf3ULL,
         0x4cfeddf6a097bc7dULL},
        {"tbc", "fault seed 0xfa117", faulted, 0x16fd1c52e1db7c94ULL,
         0xaefee7ce09746329ULL,
         {"fault.cache_tag_flips", "fault.dram_delayed",
          "fault.dram_dropped"}},
        {"sort", "default", [](RunConfig &) {}, 0x6ed9475e0917c08aULL,
         0xd1fd464d71d4ced5ULL},
        {"cutcode", "default", [](RunConfig &) {}, 0x7157fe627674cca9ULL,
         0x20fc6105832bbe04ULL},
        {"ser", "default", [](RunConfig &) {}, 0x15a7b19397693282ULL,
         0x57012a641954b80aULL},
        {"pathpred", "default", [](RunConfig &) {}, 0x89e9fae1bb08bdd5ULL,
         0x1d38beb9cb0f5d2eULL},
    };

    const auto &rays = goldenScene().trace.bounce(2).rays;
    ASSERT_GE(rays.size(), 2048u);
    const std::span<const geom::Ray> batch =
        std::span<const geom::Ray>(rays).first(2048);
    int checked = 0;
    for (const Golden &golden : goldens) {
        if (GetParam() != golden.arch)
            continue;
        SCOPED_TRACE(golden.variant);
        RunConfig config = baseConfig();
        golden.configure(config);
        const auto stats =
            runBatch(arch(), *goldenScene().tracer, batch, config);
        EXPECT_EQ(stats.raysTraced, batch.size());
        EXPECT_EQ(statsDigest(stats), golden.digest)
            << "actual digest 0x" << std::hex << statsDigest(stats);
        for (const char *counter : golden.fired)
            EXPECT_GT(stats.counters.value(counter), 0u) << counter;

        config.sample.enabled = true;
        config.sample.interval = 16;
        RunObservations observations;
        config.observationsOut = &observations;
        const auto sampled =
            runBatch(arch(), *goldenScene().tracer, batch, config);
        EXPECT_TRUE(sampled == stats) << "sampling altered SimStats";
        EXPECT_EQ(observationsDigest(observations, sampled),
                  golden.observationsDigest)
            << "actual observations digest 0x" << std::hex
            << observationsDigest(observations, sampled);
        ++checked;
    }
    EXPECT_GT(checked, 0) << "no golden digest for " << GetParam();
}

// Regression: quantize() used to cast a non-finite float straight to
// uint32_t (UB under UBSan); NaN/Inf ray origins — the fuzzer produces
// them — must map to grid cell 0 instead of tripping the sanitizer.
TEST(ReorderKeys, NonFiniteOriginsQuantizeToCellZero)
{
    const geom::Aabb bounds{{0.0f, 0.0f, 0.0f}, {10.0f, 10.0f, 10.0f}};
    reorder::ReorderConfig config;

    geom::Ray at_lo;
    at_lo.origin = {0.0f, 0.0f, 0.0f};
    at_lo.direction = {0.0f, 0.0f, 1.0f};

    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float inf = std::numeric_limits<float>::infinity();
    for (const float bad : {nan, inf, -inf}) {
        geom::Ray ray = at_lo;
        ray.origin = {bad, bad, bad};
        EXPECT_EQ(reorder::hashGridKey(ray, bounds, config),
                  reorder::hashGridKey(at_lo, bounds, config))
            << "non-finite origin must land in cell 0";

        geom::Ray mixed = at_lo;
        mixed.origin.y = bad; // one bad axis, the others still quantize
        geom::Ray mixed_lo = at_lo;
        mixed_lo.origin.y = 0.0f;
        EXPECT_EQ(reorder::hashGridKey(mixed, bounds, config),
                  reorder::hashGridKey(mixed_lo, bounds, config));
    }

    // The path-prediction key is the hash-grid key with the octant,
    // then directionBits per direction component: a non-finite origin
    // or direction component lands in cell 0 there too.
    const reorder::PredictorConfig predictor;
    const int bits = predictor.directionBits;
    const std::uint64_t cell_mask = (std::uint64_t{1} << bits) - 1;
    reorder::ReorderConfig grid;
    grid.originBits = predictor.originBits;
    grid.directionOctant = true;
    const std::uint64_t lo_key =
        reorder::pathPredKey(at_lo, bounds, predictor);
    EXPECT_EQ(lo_key >> (3 * bits), reorder::hashGridKey(at_lo, bounds, grid));
    for (const float bad : {nan, inf, -inf}) {
        geom::Ray ray = at_lo;
        ray.origin = {bad, bad, bad};
        EXPECT_EQ(reorder::pathPredKey(ray, bounds, predictor), lo_key)
            << "non-finite origin must land in cell 0";

        geom::Ray turned = at_lo;
        turned.direction.x = bad;
        const std::uint64_t key =
            reorder::pathPredKey(turned, bounds, predictor);
        EXPECT_EQ(key >> (3 * bits),
                  reorder::hashGridKey(turned, bounds, grid));
        EXPECT_EQ((key >> (2 * bits)) & cell_mask, 0u)
            << "non-finite direction component must land in cell 0";
        // y and z still quantize as before.
        EXPECT_EQ(key & ((cell_mask << bits) | cell_mask),
                  lo_key & ((cell_mask << bits) | cell_mask));
    }
}

// Regression: the reorder plugins' hit scatter used to index
// sorted_hits[p] unchecked; a short inner-run hit vector (dropped rays)
// must throw with the counts instead of reading out of bounds.
TEST(ScatterHits, ShortHitVectorFailsLoudly)
{
    const std::vector<std::uint32_t> order = {1, 0, 2};
    std::vector<geom::Hit> out;

    std::vector<geom::Hit> sorted(3);
    sorted[0].triangle = 7;
    sorted[1].triangle = 8;
    sorted[2].triangle = 9;
    detail::scatterHits(order, sorted, out);
    ASSERT_EQ(out.size(), 3u);
    EXPECT_EQ(out[1].triangle, 7);
    EXPECT_EQ(out[0].triangle, 8);
    EXPECT_EQ(out[2].triangle, 9);

    sorted.pop_back();
    try {
        detail::scatterHits(order, sorted, out);
        FAIL() << "a short hit vector must be rejected";
    } catch (const std::logic_error &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("2"), std::string::npos) << what;
        EXPECT_NE(what.find("3"), std::string::npos) << what;
    }
}

std::vector<std::string>
builtinLineup()
{
    // The parameter list is evaluated at static-init time, before any
    // test could register extra plugins, so this enumerates exactly the
    // built-in lineup.
    std::vector<std::string> names;
    for (const Arch &arch : ArchRegistry::instance().archs())
        names.push_back(arch.name());
    return names;
}

INSTANTIATE_TEST_SUITE_P(AllRegisteredArchs, RegistryConformance,
                         ::testing::ValuesIn(builtinLineup()),
                         [](const auto &info) { return info.param; });

} // namespace
} // namespace drs::harness
