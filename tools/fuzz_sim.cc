/**
 * @file
 * Randomized cross-check fuzzer for the SIMT simulator.
 *
 * Generates random scenes × scales × architectures × configurations ×
 * thread counts, runs every one with full invariant checking (DRS_CHECK
 * machinery forced on) and asserts that SimStats are bit-identical across
 * smxThreads, that checking itself never alters a result, and that
 * profiling (issue-slot attribution + windowed sampling at a randomized
 * interval/capacity) is a pure observer whose ledger conserves slots.
 * Every configuration derives from one printed 64-bit seed: rerun a
 * failure with --replay <seed>.
 *
 * Usage:
 *   fuzz_sim [--configs N] [--seed MASTER] [--jobs N] [--replay SEED]
 *
 * --configs is in [1, 1000000] and --jobs in [1, 1024] (decimal); the
 * seeds take any 64-bit value, decimal or 0x hex. Exit code 0 = every
 * configuration passed, 1 = at least one violation, 2 = bad arguments.
 */

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <exception>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "check/check.h"
#include "exec/env.h"
#include "geom/rng.h"
#include "harness/arch_plugin.h"
#include "harness/harness.h"
#include "obs/attribution.h"
#include "obs/sampler.h"
#include "harness/report.h"
#include "harness/sweep.h"

namespace {

using drs::harness::Arch;

std::mutex g_print_mutex;

/** One fully-derived fuzz configuration (a pure function of its seed). */
struct FuzzCase
{
    std::uint64_t seed = 0;
    drs::scene::SceneId scene = drs::scene::SceneId::Conference;
    float sceneScale = 0.05f;
    std::size_t bounceIndex = 0;
    std::size_t maxRays = 128;
    Arch arch = Arch::Aila;
    int smxThreadsParallel = 2;
    std::uint64_t sampleInterval = 64;
    std::size_t sampleCapacity = 512;
    drs::harness::RunConfig run;
};

FuzzCase
deriveCase(std::uint64_t seed)
{
    drs::geom::Pcg32 rng(seed);
    FuzzCase c;
    c.seed = seed;

    const auto scenes = drs::scene::allSceneIds();
    c.scene = scenes[rng.nextUInt(static_cast<std::uint32_t>(
        scenes.size()))];
    c.sceneScale = rng.nextUInt(2) == 0 ? 0.05f : 0.1f;
    c.bounceIndex = rng.nextUInt(2);
    c.maxRays = 128 + rng.nextUInt(385); // 128..512

    // Draw the architecture from the registry (in registration order, so
    // a seed replays identically): every registered plugin — including
    // ones added after this tool was written — gets fuzzed.
    const auto &registry = drs::harness::ArchRegistry::instance();
    const auto archs = registry.archs();
    c.arch = archs[rng.nextUInt(static_cast<std::uint32_t>(archs.size()))];
    c.smxThreadsParallel = 2 + static_cast<int>(rng.nextUInt(3)); // 2..4

    c.run.gpu.numSmx = 1 + static_cast<int>(rng.nextUInt(2));
    c.run.check = 1;

    // Randomized profiling: window size 16..512 cycles; a tiny frame
    // budget now and then forces the timeline's coalescing path.
    c.sampleInterval = 16 + rng.nextUInt(497);
    static constexpr std::size_t kCapacityChoices[] = {4, 16, 512};
    c.sampleCapacity = kCapacityChoices[rng.nextUInt(3)];

    // Per-architecture tunables are the plugin's own business: each
    // randomizeConfig consumes the RNG stream deterministically.
    registry.get(c.arch).randomizeConfig(rng, c.run);
    return c;
}

/**
 * Stable digest of a SimStats: FNV-1a over its lossless JSON form. Two
 * runs of the same configuration must print the same digest — the
 * replay regression test (tests/check_fuzz_replay.sh) depends on it.
 */
std::uint64_t
statsDigest(const drs::simt::SimStats &stats)
{
    const std::string text = drs::harness::statsJsonFull(stats).dump();
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (const char ch : text) {
        hash ^= static_cast<unsigned char>(ch);
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

std::string
describeCase(const FuzzCase &c)
{
    char buffer[256];
    std::snprintf(buffer, sizeof(buffer),
                  "seed=0x%016" PRIx64
                  " scene=%s scale=%.2f bounce=%zu rays=%zu arch=%s "
                  "smx=%d threads=%d sample=%" PRIu64 "/%zu",
                  c.seed, drs::scene::sceneName(c.scene).c_str(),
                  static_cast<double>(c.sceneScale), c.bounceIndex,
                  c.maxRays, drs::harness::archName(c.arch).c_str(),
                  c.run.gpu.numSmx, c.smxThreadsParallel,
                  c.sampleInterval, c.sampleCapacity);
    return buffer;
}

/** Run one fuzz case; returns true on success, prints failures. */
bool
runCase(const FuzzCase &c, drs::harness::PreparedSceneCache &cache)
{
    try {
        drs::harness::ExperimentScale scale;
        scale.raysPerBounce = 4096;
        scale.sceneScale = c.sceneScale;
        scale.width = 128;
        scale.height = 96;
        scale.samplesPerPixel = 1;
        scale.maxDepth = 4;
        const drs::harness::PreparedScene &prepared =
            cache.get(c.scene, scale);

        const auto &bounces = prepared.trace.bounces;
        std::size_t index = c.bounceIndex;
        if (index >= bounces.size())
            index = bounces.size() - 1;
        std::span<const drs::geom::Ray> rays(bounces[index].rays);
        if (rays.empty())
            rays = std::span<const drs::geom::Ray>(bounces[0].rays);
        if (rays.size() > c.maxRays)
            rays = rays.first(c.maxRays);

        drs::harness::RunConfig config = c.run;
        config.smxThreads = 1;
        const drs::simt::SimStats sequential =
            runBatch(c.arch, *prepared.tracer, rays, config);

        config.smxThreads = c.smxThreadsParallel;
        const drs::simt::SimStats parallel =
            runBatch(c.arch, *prepared.tracer, rays, config);
        if (!(sequential == parallel)) {
            const std::lock_guard<std::mutex> lock(g_print_mutex);
            std::fprintf(stderr,
                         "FAIL %s: SimStats differ between smxThreads=1 "
                         "and smxThreads=%d\n",
                         describeCase(c).c_str(), c.smxThreadsParallel);
            return false;
        }

        config.smxThreads = 1;
        config.check = 0;
        const drs::simt::SimStats unchecked =
            runBatch(c.arch, *prepared.tracer, rays, config);
        if (!(sequential == unchecked)) {
            const std::lock_guard<std::mutex> lock(g_print_mutex);
            std::fprintf(stderr,
                         "FAIL %s: DRS_CHECK=1 altered SimStats\n",
                         describeCase(c).c_str());
            return false;
        }

        // Profiling must be a pure observer at any window size, and the
        // slot ledger it produces must conserve.
        config.sample.enabled = true;
        config.sample.interval = c.sampleInterval;
        config.sample.capacity = c.sampleCapacity;
        drs::harness::RunObservations observations;
        config.observationsOut = &observations;
        const drs::simt::SimStats sampled =
            runBatch(c.arch, *prepared.tracer, rays, config);
        if (!(unchecked == sampled)) {
            const std::lock_guard<std::mutex> lock(g_print_mutex);
            std::fprintf(stderr, "FAIL %s: sampling altered SimStats\n",
                         describeCase(c).c_str());
            return false;
        }
        if (!observations.attribution || !observations.sampler) {
            const std::lock_guard<std::mutex> lock(g_print_mutex);
            std::fprintf(stderr,
                         "FAIL %s: sampling produced no observations\n",
                         describeCase(c).c_str());
            return false;
        }
        // Throws std::logic_error (caught below) on violation.
        observations.attribution->merged().verifyConservation();
        {
            const std::lock_guard<std::mutex> lock(g_print_mutex);
            std::printf("digest seed=0x%016" PRIx64 " stats=0x%016" PRIx64
                        "\n",
                        c.seed, statsDigest(sequential));
            std::fflush(stdout);
        }
        return true;
    } catch (const std::exception &e) {
        const std::lock_guard<std::mutex> lock(g_print_mutex);
        std::fprintf(stderr, "FAIL %s: %s\n", describeCase(c).c_str(),
                     e.what());
        return false;
    }
}

int
usage()
{
    std::fprintf(stderr, "usage: fuzz_sim [--configs N] [--seed MASTER] "
                         "[--jobs N] [--replay SEED]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    int configs = 50;
    int jobs = 1;
    std::uint64_t master_seed = 0x5eedULL;
    bool replay = false;
    std::uint64_t replay_seed = 0;

    constexpr int kMaxConfigs = 1'000'000;
    constexpr int kMaxJobs = 1024;
    constexpr std::uint64_t kAnySeed = ~std::uint64_t{0};
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage();
        const char *value = argv[++i];
        bool ok = false;
        if (arg == "--configs") {
            ok = drs::exec::parseNumber(value, 1, kMaxConfigs, configs);
        } else if (arg == "--seed") {
            ok = drs::exec::parseNumber(value, 0, kAnySeed, master_seed, 0);
        } else if (arg == "--jobs") {
            ok = drs::exec::parseNumber(value, 1, kMaxJobs, jobs);
        } else if (arg == "--replay") {
            replay = true;
            ok = drs::exec::parseNumber(value, 0, kAnySeed, replay_seed, 0);
        }
        if (!ok) {
            std::fprintf(stderr, "fuzz_sim: bad argument %s '%s'\n",
                         arg.c_str(), value);
            return usage();
        }
    }

    // Derive and print every sub-seed up front, before anything runs: a
    // crash mid-fuzz must not cost the seeds needed to replay it.
    std::vector<std::uint64_t> seeds;
    if (replay) {
        seeds.push_back(replay_seed);
    } else {
        drs::geom::Pcg32 master(master_seed);
        for (int i = 0; i < configs; ++i)
            seeds.push_back((static_cast<std::uint64_t>(master.nextUInt())
                             << 32) |
                            master.nextUInt());
    }
    std::printf("fuzz_sim: %zu configs (master seed 0x%016" PRIx64
                ", jobs %d)\n",
                seeds.size(), master_seed, jobs);
    for (std::size_t i = 0; i < seeds.size(); ++i)
        std::printf("  config %zu: %s\n", i,
                    describeCase(deriveCase(seeds[i])).c_str());
    std::fflush(stdout);

    drs::harness::PreparedSceneCache cache;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> failures{0};

    auto worker = [&] {
        for (;;) {
            const std::size_t i = next.fetch_add(1);
            if (i >= seeds.size())
                return;
            if (!runCase(deriveCase(seeds[i]), cache))
                failures.fetch_add(1);
        }
    };

    const std::size_t threads_wanted =
        std::min(static_cast<std::size_t>(jobs), seeds.size());
    if (threads_wanted <= 1) {
        worker();
    } else {
        std::vector<std::thread> threads;
        for (std::size_t t = 0; t < threads_wanted; ++t)
            threads.emplace_back(worker);
        for (auto &thread : threads)
            thread.join();
    }

    if (failures.load() != 0) {
        std::fprintf(stderr, "fuzz_sim: %zu of %zu configs FAILED\n",
                     failures.load(), seeds.size());
        return 1;
    }
    std::printf("fuzz_sim: all %zu configs passed\n", seeds.size());
    return 0;
}
