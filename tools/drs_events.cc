/**
 * @file
 * `drs events`: analyzer for the structured JSONL logs written by
 * obs::EventLog (DRS_LOG=<path>). A fleet run appends every record —
 * coordinator and workers share the fd across fork(), each line is one
 * atomic write — so one file holds the interleaved story of a run.
 * This subcommand turns it back into something readable:
 *
 *   - per-(subsystem, event) counts, with severities, so "how many
 *     heartbeat kills" is one glance, not one grep;
 *   - a supervision timeline of the fleet's lifecycle events (worker
 *     deaths, respawns, heartbeat kills, redispatches, quarantines,
 *     chaos/crash injections) in timestamp order;
 *   - the slowest jobs, by pairing each job's last fleet.dispatch with
 *     its fleet.job_done (both Debug events — run with
 *     DRS_LOG_LEVEL=debug to capture them);
 *   - suppressed-record totals from the rate limiter's log.rate_limited
 *     summaries, so "the log is complete" is checkable.
 *
 * With --count SUBSYSTEM.EVENT it prints only the total count of
 * that event across all files — the chaos harness uses this to
 * cross-check the log against summary.fleet counters.
 *
 * A torn tail line (crash mid-append) is tolerated and counted;
 * malformed lines elsewhere fail the run (readJsonl).
 *
 * Usage: drs events [--count SUBSYSTEM.EVENT] LOG.jsonl...
 *
 * Exit status: 0 = analyzed, 1 = corrupt log (malformed line before the
 * tail), 2 = usage / IO error.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "drs.h"
#include "obs/json.h"

namespace drs::tools {

namespace {

int
usage()
{
    std::fprintf(stderr,
                 "usage: drs events [--count SUBSYSTEM.EVENT] LOG.jsonl...\n");
    return 2;
}

struct Record
{
    std::uint64_t tsMicros = 0;
    std::uint64_t pid = 0;
    std::string level;
    std::string subsystem;
    std::string event;
    obs::Json data;
};

/** Flatten a record's data object into "k=v k=v" for one-line output. */
std::string
dataText(const obs::Json &data)
{
    if (!data.isObject())
        return "";
    std::string text;
    for (const auto &[key, value] : data.asObject()) {
        if (!text.empty())
            text += " ";
        text += key + "=";
        std::string v = value.isString() ? value.asString() : value.dump();
        std::replace(v.begin(), v.end(), '\n', ' ');
        if (v.size() > 60)
            v = v.substr(0, 57) + "...";
        text += v;
    }
    return text;
}

/** Fleet lifecycle events worth a timeline line. */
bool
isSupervisionEvent(const Record &r)
{
    static const char *kEvents[] = {
        "worker_death", "respawn",        "heartbeat_kill", "redispatch",
        "quarantine",   "crash_injection", "degraded",      "cancelled",
        "hang",         "kill"};
    if (r.subsystem != "fleet" && r.subsystem != "chaos" &&
        r.subsystem != "sweep")
        return false;
    for (const char *event : kEvents)
        if (r.event == event)
            return true;
    return false;
}

} // namespace

int
eventsMain(int argc, char **argv)
{
    std::string countKey;
    std::vector<std::string> paths;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--count") {
            if (i + 1 >= argc)
                return usage();
            countKey = argv[++i];
        } else {
            paths.push_back(arg);
        }
    }
    if (paths.empty())
        return usage();

    std::vector<Record> records;
    std::uint64_t suppressed = 0;
    bool ok = true;
    for (const std::string &path : paths) {
        std::ifstream in(path);
        if (!in) {
            std::fprintf(stderr, "drs events: cannot open %s\n",
                         path.c_str());
            return 2;
        }
        const auto readRecord = [&](const std::string &line, std::size_t) {
            const auto parsed = obs::Json::parse(line);
            if (!parsed || !parsed->isObject())
                return false;
            Record record;
            auto uintField = [&](const char *key) -> std::uint64_t {
                const obs::Json *v = parsed->find(key);
                return v && v->isNumber() ? v->asUint() : 0;
            };
            auto stringField = [&](const char *key) -> std::string {
                const obs::Json *v = parsed->find(key);
                return v && v->isString() ? v->asString() : "";
            };
            record.tsMicros = uintField("ts_us");
            record.pid = uintField("pid");
            record.level = stringField("level");
            record.subsystem = stringField("subsystem");
            record.event = stringField("event");
            if (record.subsystem.empty() || record.event.empty())
                return false;
            if (const obs::Json *data = parsed->find("data"))
                record.data = *data;
            if (record.subsystem == "log" &&
                record.event == "rate_limited")
                if (const obs::Json *n = record.data.find("suppressed");
                    n && n->isNumber())
                    suppressed += n->asUint();
            records.push_back(std::move(record));
            return true;
        };
        const auto pastTail = [&](std::size_t lineNumber) {
            std::fprintf(stderr,
                         "drs events: %s:%zu follows a malformed line — "
                         "log corrupt beyond a crash tail\n",
                         path.c_str(), lineNumber);
            ok = false;
        };
        const std::size_t torn = readJsonl(in, readRecord, pastTail);
        if (torn > 1) {
            std::fprintf(stderr,
                         "drs events: %s has %zu malformed lines (at most "
                         "one crash tail is expected)\n",
                         path.c_str(), torn);
            ok = false;
        }
    }

    if (!countKey.empty()) {
        const std::size_t dot = countKey.find('.');
        if (dot == std::string::npos || dot == 0 ||
            dot + 1 >= countKey.size())
            return usage();
        const std::string subsystem = countKey.substr(0, dot);
        const std::string event = countKey.substr(dot + 1);
        std::uint64_t count = 0;
        for (const Record &r : records)
            if (r.subsystem == subsystem && r.event == event)
                ++count;
        std::printf("%llu\n", static_cast<unsigned long long>(count));
        return ok ? 0 : 1;
    }

    std::stable_sort(records.begin(), records.end(),
                     [](const Record &a, const Record &b) {
                         return a.tsMicros < b.tsMicros;
                     });
    const std::uint64_t epoch = records.empty() ? 0 : records[0].tsMicros;

    // Per-(subsystem, event) counts, insertion-free ordered map.
    std::map<std::pair<std::string, std::string>,
             std::pair<std::uint64_t, std::string>>
        counts;
    for (const Record &r : records) {
        auto &slot = counts[{r.subsystem, r.event}];
        ++slot.first;
        slot.second = r.level;
    }
    std::printf("== event counts (%zu records) ==\n", records.size());
    for (const auto &[key, value] : counts)
        std::printf("%8llu  %-5s  %s.%s\n",
                    static_cast<unsigned long long>(value.first),
                    value.second.c_str(), key.first.c_str(),
                    key.second.c_str());
    if (suppressed > 0)
        std::printf("%8llu  (suppressed by the rate limiter — counts above "
                    "are incomplete)\n",
                    static_cast<unsigned long long>(suppressed));

    std::printf("\n== supervision timeline ==\n");
    std::size_t timelineLines = 0;
    for (const Record &r : records) {
        if (!isSupervisionEvent(r))
            continue;
        std::printf("+%9.3fs  [%llu] %s.%s %s\n",
                    static_cast<double>(r.tsMicros - epoch) / 1e6,
                    static_cast<unsigned long long>(r.pid),
                    r.subsystem.c_str(), r.event.c_str(),
                    dataText(r.data).c_str());
        ++timelineLines;
    }
    if (timelineLines == 0)
        std::printf("(no supervision events — a clean run)\n");

    // Slowest jobs: pair each job's last dispatch with its job_done.
    struct JobTiming
    {
        std::uint64_t dispatchTs = 0;
        double seconds = -1.0;
    };
    std::map<std::uint64_t, JobTiming> timings;
    for (const Record &r : records) {
        if (r.subsystem != "fleet")
            continue;
        const obs::Json *job = r.data.find("job");
        if (job == nullptr || !job->isNumber())
            continue;
        if (r.event == "dispatch")
            timings[job->asUint()].dispatchTs = r.tsMicros;
        else if (r.event == "job_done") {
            JobTiming &t = timings[job->asUint()];
            if (t.dispatchTs != 0 && r.tsMicros >= t.dispatchTs)
                t.seconds =
                    static_cast<double>(r.tsMicros - t.dispatchTs) / 1e6;
        }
    }
    std::vector<std::pair<std::uint64_t, double>> slowest;
    for (const auto &[job, timing] : timings)
        if (timing.seconds >= 0.0)
            slowest.emplace_back(job, timing.seconds);
    if (!slowest.empty()) {
        std::sort(slowest.begin(), slowest.end(),
                  [](const auto &a, const auto &b) {
                      return a.second > b.second;
                  });
        if (slowest.size() > 10)
            slowest.resize(10);
        std::printf("\n== slowest jobs (dispatch -> done) ==\n");
        for (const auto &[job, seconds] : slowest)
            std::printf("%9.3fs  job %llu\n", seconds,
                        static_cast<unsigned long long>(job));
    }
    return ok ? 0 : 1;
}

} // namespace drs::tools
