/**
 * @file
 * `drs tracecat`: fleet trace stitcher. A fleet run under DRS_TRACE
 * leaves one Chrome trace shard per (worker, job) — obs::TraceCollector
 * files named <trace>.w<worker>.j<job> — plus the coordinator's own
 * job-lifecycle shard <trace>.coord (dispatch→result spans,
 * kill/respawn/redispatch instants). Each shard is internally
 * consistent but uses its own pid namespace (SMX index, or 0 for the
 * coordinator), so loading them together would splice unrelated tracks.
 *
 * This subcommand merges shards into one Perfetto-loadable document:
 *
 *   - every shard's pids are shifted onto a disjoint range, so no two
 *     shards share a track;
 *   - every process_name metadata record is prefixed with its shard's
 *     basename, so the UI shows "sweep.trc.w1.j3: SMX 0" next to
 *     "sweep.trc.coord: fleet coordinator";
 *   - "otherData.dropped_events" is summed across shards (the merged
 *     trace still passes tests/check_trace.py);
 *   - a torn shard — the expected debris of a SIGKILLed worker dying
 *     mid-write — is skipped with a warning, never a hard error.
 *
 * Timestamps are NOT rebased: worker shards tick in core cycles, the
 * coordinator in wall-clock microseconds (recorded per shard in its
 * own timestamp_unit). The merge is for side-by-side inspection, not
 * cross-shard time alignment.
 *
 * Usage: drs tracecat -o MERGED.json SHARD.json...
 *
 * Exit status: 0 = merged (>= 1 readable shard), 1 = every shard was
 * unreadable, 2 = usage / cannot write the output.
 */

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "drs.h"
#include "obs/json.h"

namespace drs::tools {

namespace {

int
usage()
{
    std::fprintf(stderr, "usage: drs tracecat -o MERGED.json SHARD.json...\n");
    return 2;
}

std::string
basenameOf(const std::string &path)
{
    const std::size_t slash = path.find_last_of('/');
    return slash == std::string::npos ? path : path.substr(slash + 1);
}

} // namespace

int
tracecatMain(int argc, char **argv)
{
    std::string outPath;
    std::vector<std::string> inputs;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "-o" || arg == "--out") {
            if (i + 1 >= argc)
                return usage();
            outPath = argv[++i];
        } else {
            inputs.push_back(arg);
        }
    }
    if (outPath.empty() || inputs.empty())
        return usage();

    obs::Json merged = obs::Json::object();
    obs::Json &events = merged["traceEvents"];
    events = obs::Json::array();

    std::uint64_t pidBase = 0;
    std::uint64_t droppedTotal = 0;
    std::size_t shardsMerged = 0;
    std::size_t shardsSkipped = 0;
    std::size_t eventCount = 0;

    for (const std::string &path : inputs) {
        const JsonFile file = loadJsonFile(path);
        if (!file.opened) {
            std::fprintf(stderr,
                         "drs tracecat: skipping %s (cannot open)\n",
                         path.c_str());
            ++shardsSkipped;
            continue;
        }
        const std::optional<obs::Json> &shard = file.doc;
        if (!shard || !shard->isObject()) {
            // Torn shard: a worker SIGKILLed mid-write. Expected under
            // chaos; the job was redispatched, its trace is just lost.
            std::fprintf(stderr, "drs tracecat: skipping torn shard %s (%s)\n",
                         path.c_str(),
                         file.error.empty() ? "not an object"
                                            : file.error.c_str());
            ++shardsSkipped;
            continue;
        }
        const obs::Json *shardEvents = shard->find("traceEvents");
        if (shardEvents == nullptr || !shardEvents->isArray()) {
            std::fprintf(stderr,
                         "drs tracecat: skipping %s (no traceEvents array)\n",
                         path.c_str());
            ++shardsSkipped;
            continue;
        }
        if (const obs::Json *other = shard->find("otherData"))
            if (const obs::Json *dropped = other->find("dropped_events");
                dropped && dropped->isNumber())
                droppedTotal += dropped->asUint();

        const std::string label = basenameOf(path);
        std::uint64_t maxPid = 0;
        for (const obs::Json &event : shardEvents->asArray()) {
            if (!event.isObject())
                continue;
            obs::Json copy = event;
            std::uint64_t pid = 0;
            if (const obs::Json *p = event.find("pid");
                p && p->isNumber())
                pid = p->asUint();
            if (pid > maxPid)
                maxPid = pid;
            copy["pid"] = obs::Json(pidBase + pid);
            // Qualify process names with the shard so merged tracks
            // stay attributable ("...w1.j3: SMX 0" vs "...coord: ...").
            if (const obs::Json *name = event.find("name");
                name && name->isString() &&
                name->asString() == "process_name")
                if (const obs::Json *args = event.find("args"))
                    if (const obs::Json *pname = args->find("name");
                        pname && pname->isString())
                        copy["args"]["name"] = obs::Json(
                            label + ": " + pname->asString());
            events.push(std::move(copy));
            ++eventCount;
        }
        pidBase += maxPid + 1;
        ++shardsMerged;
    }

    if (shardsMerged == 0) {
        std::fprintf(stderr, "drs tracecat: no readable shards\n");
        return 1;
    }

    merged["displayTimeUnit"] = obs::Json("ns");
    obs::Json &other = merged["otherData"];
    other = obs::Json::object();
    other["timestamp_unit"] = obs::Json("per shard (see sources)");
    other["dropped_events"] = obs::Json(droppedTotal);
    other["shards_merged"] =
        obs::Json(static_cast<std::uint64_t>(shardsMerged));
    other["shards_skipped"] =
        obs::Json(static_cast<std::uint64_t>(shardsSkipped));

    std::ofstream out(outPath, std::ios::binary | std::ios::trunc);
    if (!out) {
        std::fprintf(stderr, "drs tracecat: cannot open %s for writing\n",
                     outPath.c_str());
        return 2;
    }
    merged.dump(out);
    out << "\n";
    out.flush();
    if (!out) {
        std::fprintf(stderr, "drs tracecat: write to %s failed\n",
                     outPath.c_str());
        return 2;
    }

    std::printf("merged %zu shard%s (%zu skipped): %zu events, "
                "%llu dropped -> %s\n",
                shardsMerged, shardsMerged == 1 ? "" : "s", shardsSkipped,
                eventCount, static_cast<unsigned long long>(droppedTotal),
                outPath.c_str());
    return 0;
}

} // namespace drs::tools
