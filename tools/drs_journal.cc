/**
 * @file
 * `drs journal`: sweep-journal inspector and verifier. The sweep runner
 * and the fleet coordinator both persist one fsync'd JSONL record per
 * finished job (harness::sweepResultToJson); this subcommand audits
 * such a journal:
 *
 *   - every line must parse as a well-formed record, under the torn-tail
 *     rule (readJsonl): a single torn line at the end of the file is
 *     the expected debris of a crash mid-append, torn lines anywhere
 *     else are an error;
 *   - no job index may appear twice — neither as an exact (job, key)
 *     duplicate (some job was double-reported, which the fleet's
 *     drain-before-redispatch logic exists to prevent) nor as the same
 *     index under two different keys (two sweeps interleaved into one
 *     journal); both are hard failures;
 *   - with --expect N, jobs 0..N-1 must all be present: nothing lost.
 *
 * Besides the verdict line it prints a per-job summary table
 * (attempts, wall-clock seconds, outcome) so a chaotic run's retry
 * behaviour can be read at a glance.
 *
 * Usage: drs journal JOURNAL [--expect N]
 *
 * Exit status: 0 = journal verifies, 1 = verification failed,
 * 2 = usage / IO error. The chaos harness (tests/check_fleet_chaos.sh)
 * runs this after a kill → --resume cycle to prove the recovery
 * invariant: every job exactly once.
 */

#include <algorithm>
#include <climits>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <utility>

#include "drs.h"
#include "exec/env.h"
#include "harness/sweep.h"
#include "obs/json.h"

namespace drs::tools {

namespace {

int
usage()
{
    std::fprintf(stderr, "usage: drs journal JOURNAL [--expect N]\n");
    return 2;
}

} // namespace

int
journalMain(int argc, char **argv)
{
    std::string path;
    long long expect = -1;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--expect") {
            if (i + 1 >= argc ||
                !exec::parseNumber(argv[++i], 0, LLONG_MAX, expect))
                return usage();
        } else if (path.empty()) {
            path = arg;
        } else {
            return usage();
        }
    }
    if (path.empty())
        return usage();

    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "drs journal: cannot open %s\n", path.c_str());
        return 2;
    }

    // (job, key) -> line number of the first record, for duplicate
    // diagnostics.
    std::map<std::pair<std::uint64_t, std::string>, std::size_t> seen;
    // job index -> key and first record, for the summary table and the
    // same-index-different-key corruption check.
    std::map<std::uint64_t, std::pair<std::string, harness::SweepResult>>
        byIndex;
    std::size_t records = 0;
    std::size_t failed = 0;
    std::size_t ran = 0;
    bool ok = true;
    const auto readRecord = [&](const std::string &line,
                                std::size_t lineNumber) {
        std::string parseError;
        const auto entry = obs::Json::parse(line, &parseError);
        std::uint64_t index = 0;
        std::string key;
        harness::SweepResult result;
        const std::string reason =
            entry ? harness::sweepResultFromJson(*entry, &index, &key,
                                                 &result)
                  : parseError;
        if (!reason.empty())
            return false;
        ++records;
        ran += result.ran ? 1 : 0;
        failed += result.failed ? 1 : 0;
        const auto id = std::make_pair(index, key);
        const auto [it, inserted] = seen.emplace(id, lineNumber);
        if (!inserted) {
            std::fprintf(stderr,
                         "drs journal: job %llu (%s) double-reported: "
                         "lines %zu and %zu\n",
                         static_cast<unsigned long long>(index), key.c_str(),
                         it->second, lineNumber);
            ok = false;
        }
        const auto [jt, fresh] =
            byIndex.emplace(index, std::make_pair(key, std::move(result)));
        if (!fresh && jt->second.first != key) {
            std::fprintf(stderr,
                         "drs journal: job %llu reported under two keys "
                         "(%s and %s) — journals interleaved?\n",
                         static_cast<unsigned long long>(index),
                         jt->second.first.c_str(), key.c_str());
            ok = false;
        }
        return true;
    };
    // A torn line that is NOT the last line means the journal was
    // appended past corruption — the writers never do that.
    const auto pastTail = [&](std::size_t lineNumber) {
        std::fprintf(stderr,
                     "drs journal: line %zu follows a torn line — "
                     "journal corrupt beyond a crash tail\n",
                     lineNumber);
        ok = false;
    };
    const std::size_t torn = readJsonl(in, readRecord, pastTail);
    if (torn > 1) {
        std::fprintf(stderr, "drs journal: %zu torn lines (at most one — a "
                             "crash tail — is expected)\n",
                     torn);
        ok = false;
    }
    if (expect >= 0) {
        for (std::uint64_t i = 0; i < static_cast<std::uint64_t>(expect); ++i) {
            if (byIndex.count(i) == 0) {
                std::fprintf(stderr,
                             "drs journal: job %llu missing (expected jobs "
                             "0..%lld)\n",
                             static_cast<unsigned long long>(i), expect - 1);
                ok = false;
            }
        }
        if (records != static_cast<std::size_t>(expect)) {
            std::fprintf(stderr,
                         "drs journal: %zu records, expected exactly %lld\n",
                         records, expect);
            ok = false;
        }
    }
    if (!byIndex.empty()) {
        std::size_t keyWidth = 3;
        for (const auto &[index, record] : byIndex)
            keyWidth = std::max(keyWidth, record.first.size());
        std::printf("%6s  %-*s  %8s  %9s  %s\n", "job",
                    static_cast<int>(keyWidth), "key", "attempts",
                    "seconds", "outcome");
        for (const auto &[index, record] : byIndex) {
            const auto &[key, result] = record;
            const char *outcome = result.failed ? "quarantined"
                                  : result.ran  ? "ok"
                                                : "skipped";
            std::printf("%6llu  %-*s  %8d  %9.3f  %s%s\n",
                        static_cast<unsigned long long>(index),
                        static_cast<int>(keyWidth), key.c_str(),
                        result.attempts, result.seconds, outcome,
                        result.attempts > 1 && !result.failed
                            ? " (retried)"
                            : "");
        }
    }
    std::printf("journal %s: %zu records (%zu ran, %zu failed), %zu torn "
                "tail line%s, %zu distinct jobs — %s\n",
                path.c_str(), records, ran, failed, torn,
                torn == 1 ? "" : "s", seen.size(),
                ok ? "OK" : "FAILED");
    return ok ? 0 : 1;
}

} // namespace drs::tools
