/**
 * @file
 * Host-time benchmark of the DRS simulator. Drives the program only
 * through its public entry points (harness::prepareScene, SweepRunner,
 * runBatch, fleet::FleetCoordinator, scene, bvh, render, check), times
 * those calls from outside, and checks every job's SimStats against a
 * stored FNV-1a digest on every run. See README.md for the workloads,
 * metrics and modes; run.py builds this binary and wraps its result.
 *
 *   perfbench --phase setup|sweep|traced --workload NAME --seed N
 *             [--rep N] --digests FILE [--workers N] [--trace-out FILE]
 *             [--record FILE] [--inject digest|drop|quarantine|hit]
 *
 * One process measures one sample: "setup" prepares the workload's
 * scenes once, "sweep" makes one cold sweep call, "traced" makes the
 * traced run. The last stdout line is "PERFBENCH_RESULT <json>" with
 * the sample's metrics, the jobs attempted and failed, and run info.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "check/check.h"
#include "check/reference.h"
#include "fleet/fleet.h"
#include "harness/arch_plugin.h"
#include "harness/harness.h"
#include "harness/report.h"
#include "harness/sweep.h"
#include "obs/json.h"
#include "render/path_tracer.h"
#include "scene/scenes.h"

extern char **environ;

namespace {

using namespace drs;
using Clock = std::chrono::steady_clock;
using obs::Json;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

// ---------------------------------------------------------------------------
// Environment isolation

/**
 * Unset every DRS_* variable. The program reads ~20 of them (scale,
 * DRS_CHECK, fault seeds, fleet chaos, trace/sample/log sinks); any one
 * left set would change what a run measures.
 */
std::vector<std::string>
clearDrsEnvironment()
{
    std::vector<std::string> names;
    for (char **entry = environ; *entry != nullptr; ++entry) {
        const std::string text = *entry;
        if (text.rfind("DRS_", 0) == 0)
            names.push_back(text.substr(0, text.find('=')));
    }
    for (const std::string &name : names)
        ::unsetenv(name.c_str());
    std::sort(names.begin(), names.end());
    return names;
}

// ---------------------------------------------------------------------------
// Workloads

struct Workload
{
    std::string name;
    harness::ExperimentScale scale;
    std::vector<scene::SceneId> scenes;
    std::vector<harness::Arch> archs;
    int firstBounce = 1;
    int lastBounce = 4;
    bool fleet = false;
};

Workload
makeWorkload(const std::string &name)
{
    Workload w;
    w.name = name;
    // The in-process workloads keep their grids' scene scales but trace
    // a 320x240 film at 1 spp and simulate 16K rays per bounce on 2 SMX
    // (8K rays per SMX), so one cold sweep takes seconds instead of
    // minutes. The seed never changes these.
    w.scale.raysPerBounce = 16384;
    w.scale.numSmx = 2;
    w.scale.width = 320;
    w.scale.height = 240;
    w.scale.samplesPerPixel = 1;
    if (name == "fig11-lineup") {
        // Figure 11's grid at scene scale 0.25; every BVH fits in L2.
        w.scenes = scene::allSceneIds();
        w.archs = {harness::Arch::Aila, harness::Arch::Dmk,
                   harness::Arch::Tbc, harness::Arch::Drs};
    } else if (name == "survey-incoherent") {
        // Full-size sponza/plants: plants' BVH overflows the modelled
        // L2, and secondary bounces are incoherent. No DRS hardware.
        w.scale.sceneScale = 1.0f;
        w.scenes = {scene::SceneId::Sponza, scene::SceneId::Plants};
        w.archs = {harness::Arch::Aila, harness::Arch("sort"),
                   harness::Arch("cutcode"), harness::Arch("ser"),
                   harness::Arch("pathpred")};
        w.firstBounce = 2;
    } else if (name == "ci-fleet") {
        // BENCH_baseline's CI scale through the multi-process fleet:
        // capture and per-worker scene builds dominate, not simulation.
        w.scale = harness::ExperimentScale{};
        w.scale.raysPerBounce = 2048;
        w.scale.sceneScale = 0.05f;
        w.scale.numSmx = 2;
        w.scenes = scene::allSceneIds();
        w.archs = harness::ArchRegistry::instance().archs();
        w.fleet = true;
    } else {
        throw std::invalid_argument("unknown workload \"" + name +
                                    "\" (fig11-lineup, survey-incoherent, "
                                    "ci-fleet)");
    }
    return w;
}

harness::RunConfig
makeRunConfig(const Workload &w)
{
    harness::RunConfig config;
    config.gpu.numSmx = w.scale.numSmx;
    config.smxThreads = 1;
    config.check = 0;
    return config;
}

/** One grid cell with its identity key (stable under injection). */
struct GridJob
{
    harness::SweepJob job;
    std::string key;
};

/**
 * The workload's job grid in scene-major order (scene, arch, bounce, as
 * the paper benches add them), permuted by (@p seed, @p rep): it
 * shuffles the architectures inside each scene block. Scenes stay in
 * the paper's order, because which scene is prepared first moves a
 * cold sweep's wall time by up to a scene's capture. Bounces of one
 * architecture stay in order. Each repetition of a run gets its own
 * order, so a run's median spans several schedules. Outputs are the
 * same for every order.
 */
std::vector<GridJob>
makeGrid(const Workload &w, std::uint64_t seed, std::uint64_t rep)
{
    std::seed_seq seq{seed, rep};
    std::mt19937_64 rng(seq);
    auto shuffle = [&rng](auto &items) {
        for (std::size_t i = items.size(); i > 1; --i) {
            const std::size_t j = static_cast<std::size_t>(rng() % i);
            std::swap(items[i - 1], items[j]);
        }
    };
    std::vector<GridJob> grid;
    for (const scene::SceneId id : w.scenes) {
        std::vector<harness::Arch> archs = w.archs;
        shuffle(archs);
        for (const harness::Arch &arch : archs)
            for (int b = w.firstBounce; b <= w.lastBounce; ++b) {
                GridJob cell;
                cell.job.scene = id;
                cell.job.arch = arch;
                cell.job.config = makeRunConfig(w);
                cell.job.bounce = b;
                cell.key = harness::SweepRunner::jobKey(cell.job);
                grid.push_back(std::move(cell));
            }
    }
    return grid;
}

/** Scale + config stored beside each digest. */
Json
jobConfigJson(const harness::SweepJob &job)
{
    Json c = Json::object();
    c["scene"] = scene::sceneName(job.scene);
    c["arch"] = job.arch.name();
    c["bounce"] = job.bounce;
    c["max_rays"] = static_cast<std::uint64_t>(job.maxRays);
    c["num_smx"] = job.config.gpu.numSmx;
    c["smx_threads"] = job.config.smxThreads;
    c["check"] = job.config.check;
    c["max_cycles"] = static_cast<std::uint64_t>(job.config.maxCycles);
    return c;
}

// ---------------------------------------------------------------------------
// Digests

/** FNV-1a over the lossless SimStats JSON, as tools/fuzz_sim computes it. */
std::uint64_t
statsDigest(const simt::SimStats &stats)
{
    const std::string text = harness::statsJsonFull(stats).dump();
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (const char ch : text) {
        hash ^= static_cast<unsigned char>(ch);
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

std::string
hex(std::uint64_t v)
{
    char buffer[24];
    std::snprintf(buffer, sizeof buffer, "0x%016" PRIx64, v);
    return buffer;
}

struct StoredDigest
{
    std::string digest;
    Json scale;
    Json config;
};

std::map<std::string, StoredDigest>
loadDigests(const std::string &path, const std::string &workload)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read digests " + path);
    std::stringstream text;
    text << in.rdbuf();
    std::string error;
    const auto doc = Json::parse(text.str(), &error);
    if (!doc)
        throw std::runtime_error(path + ": " + error);
    const Json *name = doc->find("workload");
    const Json *jobs = doc->find("jobs");
    if (!name || !name->isString() || name->asString() != workload ||
        !jobs || !jobs->isArray())
        throw std::runtime_error(path + ": not a digest file of workload " +
                                 workload);
    std::map<std::string, StoredDigest> stored;
    for (const Json &entry : jobs->asArray()) {
        const Json *key = entry.find("key");
        const Json *digest = entry.find("digest");
        const Json *scale = entry.find("scale");
        const Json *config = entry.find("config");
        if (!key || !key->isString() || !digest || !digest->isString() ||
            !scale || !config)
            throw std::runtime_error(path + ": malformed job entry");
        stored[key->asString()] = {digest->asString(), *scale, *config};
    }
    return stored;
}

/** Per-run correctness tally; every problem names its job key. */
struct Verdict
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> problems;

    void fail(const std::string &problem)
    {
        ++failed;
        problems.push_back(problem);
    }
};

class DigestBook
{
  public:
    DigestBook(const Workload &w, std::map<std::string, StoredDigest> stored)
        : scale_(harness::scaleJson(w.scale)), stored_(std::move(stored))
    {
    }

    /** Check one job outcome; a problem fails it in @p verdict. */
    void check(const GridJob &cell, const harness::SweepResult *result,
               Verdict &verdict) const
    {
        ++verdict.attempted;
        const std::string &key = cell.key;
        const auto it = stored_.find(key);
        if (it == stored_.end())
            return verdict.fail(key + ": no stored digest");
        if (!(it->second.scale == scale_) ||
            !(it->second.config == jobConfigJson(cell.job)))
            return verdict.fail(key + ": stored digest was recorded at "
                                      "another scale/config");
        if (result == nullptr)
            return verdict.fail(key + ": job dropped (no result)");
        if (result->failed)
            return verdict.fail(key + ": quarantined: " + result->error);
        if (!result->ran)
            return verdict.fail(key + ": not run");
        const std::string got = hex(statsDigest(result->stats));
        if (got != it->second.digest)
            verdict.fail(key + ": digest " + got + " != stored " +
                         it->second.digest);
    }

    /** Corrupt one stored digest (self-test of the check). */
    void corrupt(const std::string &key)
    {
        std::string &digest = stored_.at(key).digest;
        digest.back() = digest.back() == '0' ? '1' : '0';
    }

  private:
    Json scale_;
    std::map<std::string, StoredDigest> stored_;
};

// ---------------------------------------------------------------------------
// Spans (traced run only): recorded in memory, written at the end.

class SpanLog
{
  public:
    explicit SpanLog(std::string run_id)
        : runId_(std::move(run_id)), origin_(Clock::now())
    {
    }

    /** Open a span under the innermost open one. @return its id. */
    int open(const std::string &name)
    {
        Span span;
        span.id = static_cast<int>(spans_.size());
        span.parent = stack_.empty() ? -1 : stack_.back();
        span.name = name;
        span.start = Clock::now();
        spans_.push_back(std::move(span));
        stack_.push_back(spans_.back().id);
        return spans_.back().id;
    }

    /** Close span @p id (must be innermost). @return its seconds. */
    double close(int id)
    {
        if (stack_.empty() || stack_.back() != id)
            throw std::logic_error("SpanLog: unbalanced close");
        stack_.pop_back();
        spans_[id].end = Clock::now();
        return secondsBetween(spans_[id].start, spans_[id].end);
    }

    Json &attrs(int id) { return spans_[id].attrs; }

    /** Summed seconds of the direct children of @p id named @p names. */
    double childSeconds(int id, const std::vector<std::string> &names) const
    {
        double total = 0.0;
        for (const Span &s : spans_)
            if (s.parent == id &&
                std::find(names.begin(), names.end(), s.name) != names.end())
                total += secondsBetween(s.start, s.end);
        return total;
    }

    bool write(const std::string &path) const
    {
        Json doc = Json::object();
        doc["run_id"] = runId_;
        Json &list = doc["spans"];
        list = Json::array();
        for (const Span &s : spans_) {
            Json &j = list.push(Json::object());
            j["id"] = s.id;
            j["parent"] = s.parent;
            j["run_id"] = runId_;
            j["name"] = s.name;
            j["start_s"] = secondsBetween(origin_, s.start);
            j["end_s"] = secondsBetween(origin_, s.end);
            if (!s.attrs.isNull())
                j["attrs"] = s.attrs;
        }
        std::ofstream out(path);
        out << doc.dump(1) << "\n";
        return static_cast<bool>(out);
    }

  private:
    struct Span
    {
        int id = 0;
        int parent = -1;
        std::string name;
        Clock::time_point start{};
        Clock::time_point end{};
        Json attrs;
    };

    std::string runId_;
    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

// ---------------------------------------------------------------------------
// Host resources

double
cpuSeconds()
{
    double total = 0.0;
    for (const int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
        rusage usage{};
        ::getrusage(who, &usage);
        total += static_cast<double>(usage.ru_utime.tv_sec) +
                 static_cast<double>(usage.ru_stime.tv_sec) +
                 1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                            usage.ru_stime.tv_usec);
    }
    return total;
}

/** Peak RSS of this process or of its largest reaped child, in MiB. */
double
peakRssMib()
{
    long peak = 0;
    for (const int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
        rusage usage{};
        ::getrusage(who, &usage);
        peak = std::max(peak, usage.ru_maxrss);
    }
    return static_cast<double>(peak) / 1024.0;
}

// ---------------------------------------------------------------------------
// One sweep call, cold: a fresh runner or fleet, so lazy scene
// preparation is part of it, exactly as the benches start it.

struct SweepOutcome
{
    std::vector<harness::SweepResult> results; // indexed like the grid
    std::vector<char> present;                 // 0 = dropped by injection
    double wallSeconds = 0.0;
    double cpuSeconds = 0.0;
    std::size_t sceneBuilds = 0;
    fleet::FleetSummary fleet{};
};

SweepOutcome
runSweep(const Workload &w, const std::vector<GridJob> &grid, int workers,
         const std::string &inject)
{
    SweepOutcome out;
    std::vector<harness::SweepJob> jobs;
    std::vector<std::size_t> gridIndex;
    for (std::size_t i = 0; i < grid.size(); ++i) {
        if (inject == "drop" && i == 0)
            continue;
        harness::SweepJob job = grid[i].job;
        // An unregistered architecture fails every attempt, so the job
        // exhausts its retries and is quarantined.
        if (inject == "quarantine" && i == 0)
            job.arch = harness::Arch("perfbench-unregistered");
        jobs.push_back(std::move(job));
        gridIndex.push_back(i);
    }

    harness::SweepOptions sweepOptions; // no faults, journal or progress
    std::vector<harness::SweepResult> results;
    std::fflush(stdout); // fleet workers fork from here
    const double cpu0 = cpuSeconds();
    const auto t0 = Clock::now();
    if (w.fleet) {
        fleet::FleetOptions fleetOptions; // no chaos, no trace path
        fleetOptions.workers = workers;
        fleet::FleetCoordinator coordinator(w.scale, sweepOptions,
                                            fleetOptions);
        results = coordinator.run(std::move(jobs));
        out.fleet = coordinator.summary();
    } else {
        harness::SweepRunner runner(w.scale, workers, sweepOptions);
        for (const harness::SweepJob &job : jobs)
            runner.add(job);
        results = runner.run();
        out.sceneBuilds = runner.cacheMisses();
    }
    out.wallSeconds = secondsBetween(t0, Clock::now());
    out.cpuSeconds = cpuSeconds() - cpu0;

    out.results.resize(grid.size());
    out.present.assign(grid.size(), 0);
    for (std::size_t k = 0; k < results.size() && k < gridIndex.size(); ++k) {
        out.results[gridIndex[k]] = std::move(results[k]);
        out.present[gridIndex[k]] = 1;
    }
    return out;
}

/** Σ over jobs of cycles × SMX count. */
double
smxCycles(const std::vector<harness::SweepResult> &results, int num_smx)
{
    double total = 0.0;
    for (const auto &r : results)
        if (r.ran)
            total += static_cast<double>(r.stats.cycles) * num_smx;
    return total;
}

double
jobSecondsSum(const std::vector<harness::SweepResult> &results)
{
    double total = 0.0;
    for (const auto &r : results)
        total += r.seconds;
    return total;
}

void
checkSweep(const DigestBook &book, const std::vector<GridJob> &grid,
           const SweepOutcome &sweep, Verdict &verdict)
{
    for (std::size_t i = 0; i < grid.size(); ++i)
        book.check(grid[i], sweep.present[i] ? &sweep.results[i] : nullptr,
                   verdict);
}

// ---------------------------------------------------------------------------
// Model outputs beside the paper (fig11-lineup): reported, never gated.

void
printPaperComparison(const Workload &w, const std::vector<GridJob> &grid,
                     const SweepOutcome &sweep)
{
    const double clock_ghz = harness::RunConfig{}.gpu.clockGhz;
    auto capture = [&](scene::SceneId id, const harness::Arch &arch) {
        std::vector<std::size_t> indices;
        for (std::size_t i = 0; i < grid.size(); ++i)
            if (grid[i].job.scene == id && grid[i].job.arch == arch &&
                sweep.present[i])
                indices.push_back(i);
        return harness::collectCapture(sweep.results, indices);
    };
    const harness::Arch compared[] = {harness::Arch::Drs, harness::Arch::Dmk,
                                      harness::Arch::Tbc};
    const double paperSpeedup[] = {1.79, 1.06, 1.18};
    double logSum[3] = {0, 0, 0};
    double effSum[2] = {0, 0};
    std::printf("model vs paper (Fig. 11, B1-B4; reported, not gated):\n");
    std::printf("  %-11s %8s %8s %8s %9s %9s\n", "scene", "drs", "dmk", "tbc",
                "eff aila", "eff drs");
    for (const scene::SceneId id : w.scenes) {
        const auto aila = capture(id, harness::Arch::Aila);
        const double base = aila.overallMrays(clock_ghz);
        double speedup[3] = {0, 0, 0};
        for (int a = 0; a < 3; ++a) {
            speedup[a] =
                base > 0 ? capture(id, compared[a]).overallMrays(clock_ghz) /
                               base
                         : 0.0;
            logSum[a] += std::log(speedup[a] > 0 ? speedup[a] : 1.0);
        }
        const double effAila = aila.overall.histogram.simdEfficiency();
        const double effDrs =
            capture(id, harness::Arch::Drs).overall.histogram.simdEfficiency();
        effSum[0] += effAila;
        effSum[1] += effDrs;
        std::printf("  %-11s %7.2fx %7.2fx %7.2fx %8.2f%% %8.2f%%\n",
                    scene::sceneName(id).c_str(), speedup[0], speedup[1],
                    speedup[2], 100 * effAila, 100 * effDrs);
    }
    const double n = static_cast<double>(w.scenes.size());
    const char *names[] = {"DRS", "DMK", "TBC"};
    for (int a = 0; a < 3; ++a) {
        const double model = std::exp(logSum[a] / n);
        std::printf("  %s speedup over Aila: model %.2fx (geomean), paper "
                    "%.2fx, difference %+.2fx\n",
                    names[a], model, paperSpeedup[a],
                    model - paperSpeedup[a]);
    }
    std::printf("  SIMD efficiency Aila -> DRS: model %.2f%% -> %.2f%%, "
                "paper 41.06%% -> 81.04%%, difference %+.2f / %+.2f points\n",
                100 * effSum[0] / n, 100 * effSum[1] / n,
                100 * effSum[0] / n - 41.06, 100 * effSum[1] / n - 81.04);
    std::printf("  The model is not validated against hardware: these are "
                "simulated figures at a reduced scale.\n");
}

// ---------------------------------------------------------------------------
// Metrics

struct Metrics
{
    Json values = Json::object();

    void add(const std::string &name, double value, const char *unit)
    {
        Json &m = values[name];
        m = Json::object();
        m["value"] = value;
        m["unit"] = unit;
    }
};

struct Args
{
    std::string workload;
    std::string phase;
    std::uint64_t seed = 0;
    std::uint64_t rep = 0;
    std::string digests;
    std::string traceOut;
    std::string record;
    int workers = 0;
    std::string inject; // "", digest, drop, quarantine or hit
};

/**
 * Two sweep threads or fleet workers (one on a single-core host). On
 * four, a sweep's wall time depends on the job order: one order of
 * survey-incoherent took 40% longer than the others at equal CPU time.
 */
int
defaultWorkers()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return static_cast<int>(std::clamp(hw, 1u, 2u));
}

// ---------------------------------------------------------------------------
// Timed phases. run.py starts one process per sample, so no sample
// inherits another's allocator state, threads or scene data.

/** The workload's scenes through prepareScene, one after another. */
void
setupPhase(const Workload &w, Metrics &metrics)
{
    const auto t0 = Clock::now();
    for (const scene::SceneId id : w.scenes)
        (void)harness::prepareScene(id, w.scale);
    metrics.add("setup_s", secondsBetween(t0, Clock::now()), "s");
}

/**
 * One cold sweep call in grid order (seed, rep), every job checked
 * against its stored digest.
 */
void
sweepPhase(const Workload &w, const Args &args, const DigestBook &book,
           Verdict &verdict, Metrics &metrics)
{
    const std::vector<GridJob> grid = makeGrid(w, args.seed, args.rep);
    const SweepOutcome sweep = runSweep(w, grid, args.workers, args.inject);
    checkSweep(book, grid, sweep, verdict);
    if (args.rep == 0 && w.name == "fig11-lineup")
        printPaperComparison(w, grid, sweep);
    const double jobSeconds = jobSecondsSum(sweep.results);
    metrics.add("wall_s", sweep.wallSeconds, "s");
    metrics.add("cpu_s", sweep.cpuSeconds, "s");
    metrics.add("sim_mcycles_per_s",
                jobSeconds > 0 ? smxCycles(sweep.results, w.scale.numSmx) /
                                     jobSeconds / 1e6
                               : 0.0,
                "Mcycles/s");
    metrics.add("peak_rss_mib", peakRssMib(), "MiB");
}

// ---------------------------------------------------------------------------
// Traced run: per-layer metrics, spans, and the reference cross-check.

/**
 * Write the recorded digests, refusing when anything failed: stored
 * digests must come from a run whose every job ran and agreed with the
 * reference interpreter.
 */
bool
recordDigests(const std::string &path, const Workload &w,
              const std::vector<GridJob> &grid,
              const std::vector<std::string> &digests,
              const Verdict &verdict, std::uint64_t mismatches)
{
    if (verdict.failed != 0 || mismatches != 0) {
        std::fprintf(stderr,
                     "perfbench: refusing to record digests: %" PRIu64
                     " failed jobs, %" PRIu64 " reference mismatches\n",
                     verdict.failed, mismatches);
        return false;
    }
    std::vector<std::size_t> order(grid.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  return grid[a].key < grid[b].key;
              });
    Json doc = Json::object();
    doc["workload"] = w.name;
    Json &jobs = doc["jobs"];
    jobs = Json::array();
    for (const std::size_t i : order) {
        Json &entry = jobs.push(Json::object());
        entry["key"] = grid[i].key;
        entry["digest"] = digests[i];
        entry["scale"] = harness::scaleJson(w.scale);
        entry["config"] = jobConfigJson(grid[i].job);
    }
    std::ofstream out(path);
    out << doc.dump(1) << "\n";
    if (!out) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
        return false;
    }
    std::printf("[perfbench] recorded %zu digests to %s\n", grid.size(),
                path.c_str());
    return true;
}

bool
tracedRun(const Workload &w, const Args &args, const DigestBook *book,
          Verdict &verdict, Metrics &metrics)
{
    const int workers = args.workers;
    char runId[96];
    std::snprintf(runId, sizeof runId, "%s-%" PRIu64 "-%d", w.name.c_str(),
                  args.seed, static_cast<int>(::getpid()));
    SpanLog spans(runId);
    const std::vector<GridJob> grid = makeGrid(w, args.seed, 0);
    const int root = spans.open("perfbench.run");

    // The timed run's sweep call, once, inside one span. It goes first,
    // so it starts from the same clean process a timed sample does (fleet
    // workers would otherwise inherit the traced set-up's scenes).
    const int sweepSpan = spans.open(w.fleet ? "fleet.run" : "harness.sweep");
    const SweepOutcome sweep = runSweep(w, grid, workers, args.inject);
    spans.close(sweepSpan);
    if (book)
        checkSweep(*book, grid, sweep, verdict);
    if (w.name == "fig11-lineup")
        printPaperComparison(w, grid, sweep);

    // Set-up, split into the three steps prepareScene performs. The
    // capture runs uncapped and is then cut to raysPerBounce, which is
    // exactly what capture(raysPerBounce) stores (the wavefront always
    // continues with every live path), so the rays it traced are known.
    double makeS = 0, buildS = 0, captureS = 0;
    std::uint64_t nodes = 0, traced = 0, kept = 0;
    std::map<scene::SceneId, harness::PreparedScene> scenes;
    const int setupSpan = spans.open("setup");
    for (const scene::SceneId id : w.scenes) {
        harness::PreparedScene &p = scenes[id];
        int s = spans.open("scene.make");
        p.scenePtr = std::make_unique<scene::Scene>(
            scene::makeScene(id, w.scale.sceneScale));
        spans.attrs(s)["scene"] = scene::sceneName(id);
        makeS += spans.close(s);

        render::RenderConfig rc;
        rc.width = w.scale.width;
        rc.height = w.scale.height;
        rc.samplesPerPixel = w.scale.samplesPerPixel;
        rc.maxDepth = w.scale.maxDepth;
        s = spans.open("bvh.build");
        p.tracer = std::make_unique<render::PathTracer>(*p.scenePtr, rc);
        spans.attrs(s)["nodes"] =
            static_cast<std::uint64_t>(p.tracer->bvh().nodeCount());
        buildS += spans.close(s);
        nodes += p.tracer->bvh().nodeCount();

        s = spans.open("render.capture");
        p.trace = p.tracer->capture(0);
        for (auto &bounce : p.trace.bounces) {
            traced += bounce.rays.size();
            if (bounce.rays.size() > w.scale.raysPerBounce)
                bounce.rays.resize(w.scale.raysPerBounce);
            kept += bounce.rays.size();
        }
        captureS += spans.close(s);
    }
    const double setupS = spans.close(setupSpan);

    // Every job again, one at a time, each cross-checked against the
    // reference interpreter.
    std::map<std::string, double> archNs, archCycles;
    std::vector<std::string> digests(grid.size());
    std::uint64_t mismatches = 0, raysVerified = 0;
    double verifyS = 0;
    const auto &registry = harness::ArchRegistry::instance();
    const int passSpan = spans.open("jobs");
    for (std::size_t i = 0; i < grid.size(); ++i) {
        const harness::SweepJob &job = grid[i].job;
        const harness::PreparedScene &p = scenes.at(job.scene);
        std::span<const geom::Ray> rays;
        for (const auto &bounce : p.trace.bounces)
            if (bounce.bounce == job.bounce)
                rays = bounce.rays;
        harness::SweepResult result;
        std::vector<geom::Hit> hits;
        harness::RunConfig config = job.config;
        config.hitsOut = &hits;

        int s = spans.open("harness.runBatch");
        try {
            if (rays.empty())
                throw std::runtime_error("bounce has no rays");
            result.stats = harness::runBatch(job.arch, *p.tracer, rays, config);
            result.ran = true;
        } catch (const std::exception &e) {
            result.failed = true;
            result.error = e.what();
        }
        const double ns = spans.close(s) * 1e9;
        Json &a = spans.attrs(s);
        a["arch"] = job.arch.name();
        a["scene"] = scene::sceneName(job.scene);
        a["bounce"] = job.bounce;
        a["rays"] = static_cast<std::uint64_t>(rays.size());
        a["cycles"] = static_cast<std::uint64_t>(result.stats.cycles);
        archNs[job.arch.name()] += ns;
        archCycles[job.arch.name()] +=
            static_cast<double>(result.stats.cycles) * w.scale.numSmx;
        digests[i] = hex(statsDigest(result.stats));
        if (book) {
            book->check(grid[i], &result, verdict);
        } else {
            ++verdict.attempted;
            if (!result.ran)
                verdict.fail(grid[i].key + ": " + result.error);
        }
        if (!result.ran)
            continue;

        if (args.inject == "hit" && i == 0 && !hits.empty())
            hits[0].t = std::nextafter(hits[0].t, 1e30f);
        s = spans.open("check.verifyBatch");
        try {
            check::verifyBatch(p.tracer->bvh(), p.tracer->sceneTriangles(),
                               rays, result.stats, hits,
                               registry.get(job.arch).checkInputs(config));
            raysVerified += rays.size();
        } catch (const std::exception &e) {
            ++mismatches;
            verdict.fail(grid[i].key + ": reference mismatch: " + e.what());
        }
        verifyS += spans.close(s);
    }
    const double passS = spans.close(passSpan);
    spans.close(root);

    // Sweep-layer and fleet-layer numbers the program already returns.
    const int numSmx = w.scale.numSmx;
    const double jobS = jobSecondsSum(sweep.results);
    metrics.add("harness.sweep.wall_s", sweep.wallSeconds, "s");
    metrics.add("harness.sweep.job_s_sum", jobS, "s");
    metrics.add("harness.sweep.utilization",
                jobS / (workers * sweep.wallSeconds), "ratio");
    metrics.add("harness.sweep.scene_builds",
                static_cast<double>(sweep.sceneBuilds), "count");
    const fleet::FleetTelemetry &t = sweep.fleet.telemetry;
    const double workerCpu = t.userCpuSeconds + t.sysCpuSeconds;
    metrics.add("fleet.worker_cpu_s", workerCpu, "s");
    metrics.add("fleet.job_s_sum", t.jobSeconds, "s");
    metrics.add("fleet.overhead_ratio",
                t.jobSeconds > 0 ? workerCpu / t.jobSeconds : 0.0, "ratio");
    metrics.add("fleet.peak_worker_rss_mib",
                static_cast<double>(t.peakRssKb) / 1024.0, "MiB");
    metrics.add("fleet.redispatched", sweep.fleet.redispatched, "count");
    metrics.add("fleet.worker_deaths", sweep.fleet.workerDeaths, "count");
    metrics.add("fleet.heartbeat_lag_ms",
                static_cast<double>(t.maxHeartbeatLagMicros) / 1000.0, "ms");

    // Modelled work (pinned by the digests): denominators for host cost.
    simt::SimStats total;
    for (const auto &r : sweep.results)
        if (r.ran)
            total.merge(r.stats);
    metrics.add("simt.smx_cycles", smxCycles(sweep.results, numSmx),
                "count");
    metrics.add("simt.warp_instrs",
                static_cast<double>(total.histogram.instructions()), "count");
    metrics.add("simt.simd_efficiency", total.histogram.simdEfficiency(),
                "ratio");
    metrics.add("simt.l1t.hit_rate", total.l1Texture.hitRate(), "ratio");
    metrics.add("simt.l2.accesses", static_cast<double>(total.l2.accesses),
                "count");
    metrics.add("simt.l2.hit_rate", total.l2.hitRate(), "ratio");
    metrics.add("core.ray_swaps",
                static_cast<double>(total.raySwapsCompleted), "count");
    metrics.add("core.rdctrl_stall_rate", total.rdctrlStallRate(), "ratio");
    metrics.add("baselines.dmk.spawn_conflict_cycles",
                static_cast<double>(total.spawnBankConflictCycles), "count");

    // Set-up layers.
    metrics.add("scene.make_s", makeS, "s");
    metrics.add("bvh.build_s", buildS, "s");
    metrics.add("bvh.nodes", static_cast<double>(nodes), "count");
    metrics.add("render.capture_s", captureS, "s");
    metrics.add("render.capture_rays_traced", static_cast<double>(traced),
                "count");
    metrics.add("render.capture_rays_kept", static_cast<double>(kept),
                "count");
    metrics.add("render.capture_keep_ratio",
                traced ? static_cast<double>(kept) / traced : 0.0, "ratio");

    // Host cost per simulated SMX-cycle of one runBatch call, per arch.
    for (const harness::Arch &arch : registry.archs()) {
        const double cycles = archCycles[arch.name()];
        metrics.add("harness." + arch.name() + ".ns_per_smx_cycle",
                    cycles > 0 ? archNs[arch.name()] / cycles : 0.0,
                    "ns/cycle");
    }
    metrics.add("check.verify_s", verifyS, "s");
    metrics.add("check.rays_verified", static_cast<double>(raysVerified),
                "count");
    metrics.add("check.mismatches", static_cast<double>(mismatches), "count");

    // Span coverage of the two phases (the trace must explain them).
    const double setupCovered =
        spans.childSeconds(setupSpan,
                           {"scene.make", "bvh.build", "render.capture"}) /
        setupS;
    const double passCovered =
        spans.childSeconds(passSpan,
                           {"harness.runBatch", "check.verifyBatch"}) /
        passS;
    std::printf("[perfbench] span coverage: setup %.2f%%, per-job pass "
                "%.2f%%; traced sweep %.3f s\n",
                100 * setupCovered, 100 * passCovered, sweep.wallSeconds);
    if (!args.traceOut.empty()) {
        if (spans.write(args.traceOut))
            std::printf("[perfbench] spans: %s\n", args.traceOut.c_str());
        else
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         args.traceOut.c_str());
    }

    if (!args.record.empty()) {
        // The sweep and the one-at-a-time pass must agree job for job.
        for (std::size_t i = 0; i < grid.size(); ++i)
            if (!sweep.present[i] || !sweep.results[i].ran ||
                hex(statsDigest(sweep.results[i].stats)) != digests[i])
                verdict.fail(grid[i].key +
                             ": sweep and per-job pass disagree");
        return recordDigests(args.record, w, grid, digests, verdict,
                             mismatches);
    }
    return true;
}

[[noreturn]] void
usage(const std::string &problem)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --phase setup|sweep|traced "
                 "--workload NAME --seed N [--rep N]\n"
                 "                 --digests FILE [--workers N] "
                 "[--trace-out FILE] [--record FILE]\n"
                 "                 [--inject digest|drop|quarantine|hit]\n",
                 problem.c_str());
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    auto number = [](const std::string &flag, const char *text) {
        char *end = nullptr;
        const double v = std::strtod(text, &end);
        if (end == text || *end != '\0' || !(v >= 0))
            usage("bad value for " + flag + ": " + text);
        return v;
    };
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const char *value = argv[++i];
        if (flag == "--workload")
            args.workload = value;
        else if (flag == "--seed")
            args.seed = static_cast<std::uint64_t>(number(flag, value));
        else if (flag == "--rep")
            args.rep = static_cast<std::uint64_t>(number(flag, value));
        else if (flag == "--phase")
            args.phase = value;
        else if (flag == "--digests")
            args.digests = value;
        else if (flag == "--trace-out")
            args.traceOut = value;
        else if (flag == "--record")
            args.record = value;
        else if (flag == "--workers")
            args.workers = static_cast<int>(number(flag, value));
        else if (flag == "--inject")
            args.inject = value;
        else
            usage("unknown argument " + flag);
    }
    if (args.workload.empty())
        usage("--workload is required");
    if (args.phase != "setup" && args.phase != "sweep" &&
        args.phase != "traced")
        usage("--phase takes setup, sweep or traced");
    if (args.workers <= 0)
        args.workers = defaultWorkers();
    const std::string &k = args.inject;
    if (!k.empty() && k != "digest" && k != "drop" && k != "quarantine" &&
        k != "hit")
        usage("unknown --inject kind " + k);
    if (k == "hit" && args.phase != "traced")
        usage("--inject hit needs --phase traced (the reference check)");
    if (!args.record.empty() && (args.phase != "traced" || !k.empty()))
        usage("--record needs --phase traced and no --inject");
    if (args.phase != "setup" && args.record.empty() && args.digests.empty())
        usage("--digests is required");
    return args;
}

} // namespace

int
main(int argc, char **argv)
{
    // Before the first call into the program.
    const std::vector<std::string> cleared = clearDrsEnvironment();
    const Args args = parseArgs(argc, argv);
    try {
        const Workload w = makeWorkload(args.workload);
        std::printf("[perfbench] %s: workload %s, seed %" PRIu64
                    ", rep %" PRIu64 ", %d %s, %zu scenes x %zu archs x "
                    "B%d-B%d, cleared %zu DRS_* variables\n",
                    args.phase.c_str(), w.name.c_str(), args.seed, args.rep,
                    args.workers,
                    w.fleet ? "fleet workers" : "sweep threads",
                    w.scenes.size(), w.archs.size(), w.firstBounce,
                    w.lastBounce, cleared.size());

        std::unique_ptr<DigestBook> book;
        if (args.phase != "setup" && args.record.empty()) {
            book = std::make_unique<DigestBook>(
                w, loadDigests(args.digests, w.name));
            if (args.inject == "digest")
                book->corrupt(makeGrid(w, 0, 0).front().key);
        }

        Verdict verdict;
        Metrics metrics;
        bool ok = true;
        if (args.phase == "setup")
            setupPhase(w, metrics);
        else if (args.phase == "sweep")
            sweepPhase(w, args, *book, verdict, metrics);
        else
            ok = tracedRun(w, args, book.get(), verdict, metrics);

        for (std::size_t i = 0; i < verdict.problems.size() && i < 20; ++i)
            std::fprintf(stderr, "perfbench: FAILED %s\n",
                         verdict.problems[i].c_str());

        Json info = Json::object();
        info["workload"] = w.name;
        info["seed"] = args.seed;
        info["workers"] = args.workers;
        info["scale"] = harness::scaleJson(w.scale);
        info["jobs_per_sweep"] = static_cast<std::uint64_t>(
            w.scenes.size() * w.archs.size() *
            static_cast<std::size_t>(w.lastBounce - w.firstBounce + 1));
        info["inject"] = args.inject;
        info["build_type"] = PERFBENCH_BUILD_TYPE;
        info["cxx_flags"] = PERFBENCH_CXX_FLAGS;
        Json &names = info["cleared_env"];
        names = Json::array();
        for (const std::string &name : cleared)
            names.push(name);

        Json result = Json::object();
        result["attempted"] = verdict.attempted;
        result["failed"] = verdict.failed;
        result["metrics"] = metrics.values;
        result["info"] = std::move(info);
        std::fflush(stdout);
        std::printf("PERFBENCH_RESULT %s\n", result.dump().c_str());
        std::fflush(stdout);
        return ok ? 0 : 3;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
