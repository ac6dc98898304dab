#include "obs/report.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>

#include <fcntl.h>
#include <unistd.h>

namespace drs::obs {

BenchReport::BenchReport(std::string bench_name)
{
    document_["bench"] = Json(std::move(bench_name));
    document_["schema_version"] = Json(kBenchSchemaVersion);
    document_["degraded"] = Json(false);
    document_["scale"] = Json::object();
    document_["options"] = Json::object();
    document_["wall_seconds"] = Json(0.0);
    document_["results"] = Json::array();
    document_["summary"] = Json::object();
}

Json &
BenchReport::addResult()
{
    return document_["results"].push(Json::object());
}

void
BenchReport::setWallSeconds(double seconds)
{
    document_["wall_seconds"] = Json(seconds);
}

void
BenchReport::setDegraded(bool degraded)
{
    document_["degraded"] = Json(degraded);
}

bool
BenchReport::writeFile(const std::string &path, std::string *error) const
{
    // Atomic publication: write + fsync a sibling temp file, then
    // rename over the target. A crash (or DRS_CRASH_AFTER / SIGKILL
    // chaos) mid-write leaves either the old report or the new one —
    // never a torn half-document.
    std::ostringstream buffer;
    document_.dump(buffer, 2);
    buffer << "\n";
    const std::string text = buffer.str();

    const std::string tmp_path =
        path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
    const int fd =
        ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) {
        if (error)
            *error = "cannot open " + tmp_path +
                     " for writing: " + std::strerror(errno);
        return false;
    }
    std::size_t written = 0;
    while (written < text.size()) {
        const ssize_t n =
            ::write(fd, text.data() + written, text.size() - written);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (error)
                *error = "write to " + tmp_path +
                         " failed: " + std::strerror(errno);
            ::close(fd);
            std::remove(tmp_path.c_str());
            return false;
        }
        written += static_cast<std::size_t>(n);
    }
    const bool synced = ::fsync(fd) == 0;
    ::close(fd);
    if (!synced) {
        if (error)
            *error = "fsync of " + tmp_path +
                     " failed: " + std::strerror(errno);
        std::remove(tmp_path.c_str());
        return false;
    }
    if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
        if (error)
            *error = "rename " + tmp_path + " -> " + path +
                     " failed: " + std::strerror(errno);
        std::remove(tmp_path.c_str());
        return false;
    }
    return true;
}

namespace {

bool
isUnitInterval(const Json &v)
{
    return v.isNumber() && v.asDouble() >= 0.0 && v.asDouble() <= 1.0;
}

bool
isNonNegativeNumber(const Json &v)
{
    return v.isNumber() && v.asDouble() >= 0.0;
}

/** First path under @p where holding a NaN or infinite number, or "". */
std::string
findNonFinite(const Json &value, const std::string &where)
{
    if (value.isNumber())
        return std::isfinite(value.asDouble()) ? "" : where;
    if (value.isObject())
        for (const auto &[key, item] : value.asObject())
            if (std::string found = findNonFinite(item, where + "." + key);
                !found.empty())
                return found;
    if (value.isArray())
        for (std::size_t i = 0; i < value.asArray().size(); ++i)
            if (std::string found =
                    findNonFinite(value.asArray()[i],
                                  where + "[" + std::to_string(i) + "]");
                !found.empty())
                return found;
    return "";
}

/** Validate an optional per-row "attribution" profiler section. */
std::string
validateAttribution(const Json &section, const std::string &where)
{
    if (!section.isObject())
        return where + " must be an object";
    for (const char *field : {"slots_per_cycle", "cycles", "total_slots"}) {
        const Json *v = section.find(field);
        if (!v || !isNonNegativeNumber(*v))
            return where + "." + field +
                   " must be a non-negative number";
    }
    const Json *buckets = section.find("buckets");
    if (!buckets || !buckets->isObject())
        return where + ".buckets must be an object";
    for (const auto &[name, bucket] : buckets->asObject()) {
        if (!bucket.isObject())
            return where + ".buckets." + name + " must be an object";
        for (const auto &[phase, value] : bucket.asObject())
            if (!isNonNegativeNumber(value))
                return where + ".buckets." + name + "." + phase +
                       " must be a non-negative number";
    }
    // The conservation invariant survives serialization too.
    double total = 0.0;
    for (const auto &[name, bucket] : buckets->asObject())
        if (const Json *v = bucket.find("total"))
            total += v->asDouble();
    const double total_slots = section.find("total_slots")->asDouble();
    if (total != total_slots)
        return where + ": bucket totals sum to " + Json(total).dump() +
               ", not total_slots " + Json(total_slots).dump();
    if (total_slots != section.find("slots_per_cycle")->asDouble() *
                           section.find("cycles")->asDouble())
        return where + ": total_slots != slots_per_cycle x cycles "
                       "(conservation violated)";
    if (const Json *blocks = section.find("blocks")) {
        if (!blocks->isArray())
            return where + ".blocks must be an array";
        for (const Json &block : blocks->asArray()) {
            if (!block.isObject())
                return where + ".blocks entries must be objects";
            const Json *name = block.find("name");
            if (!name || !name->isString())
                return where + ".blocks entries need a \"name\" string";
            for (const char *field : {"issues", "active_threads"})
                if (const Json *v = block.find(field);
                    v && !isNonNegativeNumber(*v))
                    return where + ".blocks." + field +
                           " must be a non-negative number";
        }
    }
    return "";
}

/** Validate an optional per-row "timeline" profiler section. */
std::string
validateTimeline(const Json &section, const std::string &where)
{
    if (!section.isObject())
        return where + " must be an object";
    for (const char *field : {"interval", "base_interval"}) {
        const Json *v = section.find(field);
        if (!v || !isNonNegativeNumber(*v))
            return where + "." + field +
                   " must be a non-negative number";
    }
    const Json *frames = section.find("frames");
    if (!frames || !frames->isArray())
        return where + ".frames must be an array";
    double last_begin = -1.0;
    for (std::size_t i = 0; i < frames->asArray().size(); ++i) {
        const Json &frame = frames->asArray()[i];
        const std::string at =
            where + ".frames[" + std::to_string(i) + "]";
        if (!frame.isObject())
            return at + " must be an object";
        for (const char *field : {"begin", "end", "instructions",
                                  "active_threads", "rays_completed"})
            if (const Json *v = frame.find(field);
                !v || !isNonNegativeNumber(*v))
                return at + "." + field +
                       " must be a non-negative number";
        if (frame.find("begin")->asDouble() > frame.find("end")->asDouble())
            return at + " has begin > end";
        if (frame.find("begin")->asDouble() <= last_begin)
            return at + " windows must be strictly ordered by begin";
        last_begin = frame.find("begin")->asDouble();
        if (const Json *eff = frame.find("simd_efficiency");
            !eff || !isUnitInterval(*eff))
            return at + ".simd_efficiency must be a number in [0, 1]";
        const Json *slots = frame.find("slots");
        if (!slots || !slots->isObject())
            return at + ".slots must be an object";
        for (const auto &[name, value] : slots->asObject())
            if (!isNonNegativeNumber(value))
                return at + ".slots." + name +
                       " must be a non-negative number";
    }
    return "";
}

/** Validate an optional per-row "trace" ring-counter section (v4). */
std::string
validateTrace(const Json &section, const std::string &where)
{
    if (!section.isObject())
        return where + " must be an object";
    for (const char *field : {"recorded", "ring_dropped"}) {
        const Json *v = section.find(field);
        if (!v || !isNonNegativeNumber(*v))
            return where + "." + field +
                   " must be a non-negative number";
    }
    return "";
}

/** Validate the fleet benches' "summary.fleet" aggregate (v4). */
std::string
validateFleetSummary(const Json &fleet)
{
    if (!fleet.isObject())
        return "summary.fleet must be an object";
    static const char *kCounters[] = {
        "workers",      "spawned",      "respawned",     "worker_deaths",
        "heartbeat_kills", "redispatched", "quarantined", "degraded_jobs"};
    for (const char *field : kCounters) {
        const Json *v = fleet.find(field);
        if (!v || !isNonNegativeNumber(*v))
            return std::string("summary.fleet.") + field +
                   " must be a non-negative number";
    }
    if (fleet.find("respawned")->asDouble() > fleet.find("spawned")->asDouble())
        return "summary.fleet: respawned exceeds spawned";
    if (const Json *cancelled = fleet.find("cancelled");
        !cancelled || !cancelled->isBool())
        return "summary.fleet.cancelled must be a boolean";
    const Json *telemetry = fleet.find("telemetry");
    if (!telemetry || !telemetry->isObject())
        return "summary.fleet.telemetry must be an object";
    static const char *kTelemetry[] = {
        "frames",       "jobs_reported",    "cycles",
        "rays_traced",  "job_seconds",      "user_cpu_seconds",
        "sys_cpu_seconds", "peak_rss_kb",   "max_heartbeat_lag_us"};
    for (const char *field : kTelemetry) {
        const Json *v = telemetry->find(field);
        if (!v || !isNonNegativeNumber(*v))
            return std::string("summary.fleet.telemetry.") + field +
                   " must be a non-negative number";
    }
    if (telemetry->find("jobs_reported")->asDouble() >
        telemetry->find("frames")->asDouble())
        return "summary.fleet.telemetry: jobs_reported exceeds frames";
    return "";
}

/** Validate the well-known metric fields of one result row. */
std::string
validateRow(const Json &row, std::size_t index)
{
    const auto at = [&](const char *what) {
        return std::string("results[") + std::to_string(index) + "]." + what;
    };
    if (!row.isObject())
        return std::string("results[") + std::to_string(index) +
               "] is not an object";
    static const char *kStrings[] = {"scene", "arch", "bounce", "config",
                                     "error"};
    for (const char *field : kStrings)
        if (const Json *v = row.find(field); v && !v->isString())
            return at(field) + " must be a string";
    static const char *kBools[] = {"failed", "from_journal"};
    for (const char *field : kBools)
        if (const Json *v = row.find(field); v && !v->isBool())
            return at(field) + " must be a boolean";
    static const char *kUnit[] = {"simd_efficiency", "l1d_hit_rate",
                                  "l1t_hit_rate", "l2_hit_rate",
                                  "rdctrl_stall_rate", "spawn_fraction",
                                  "shuffle_rf_fraction"};
    for (const char *field : kUnit)
        if (const Json *v = row.find(field); v && !isUnitInterval(*v))
            return at(field) + " must be a number in [0, 1]";
    static const char *kNonNegative[] = {"cycles", "rays_traced",
                                         "mrays_per_s", "speedup_vs_aila",
                                         "wall_seconds", "ray_swaps",
                                         "mean_swap_cycles", "attempts",
                                         "fault_seed"};
    for (const char *field : kNonNegative)
        if (const Json *v = row.find(field); v && !isNonNegativeNumber(*v))
            return at(field) + " must be a non-negative number";
    if (const Json *counters = row.find("counters")) {
        if (!counters->isObject())
            return at("counters") + " must be an object";
        for (const auto &[name, value] : counters->asObject())
            if (!isNonNegativeNumber(value))
                return at("counters.") + name +
                       " must be a non-negative number";
    }
    if (const Json *attribution = row.find("attribution"))
        if (std::string reason =
                validateAttribution(*attribution, at("attribution"));
            !reason.empty())
            return reason;
    if (const Json *timeline = row.find("timeline"))
        if (std::string reason =
                validateTimeline(*timeline, at("timeline"));
            !reason.empty())
            return reason;
    if (const Json *trace = row.find("trace"))
        if (std::string reason = validateTrace(*trace, at("trace"));
            !reason.empty())
            return reason;
    return "";
}

} // namespace

std::string
validateBenchReport(const Json &document)
{
    if (!document.isObject())
        return "document is not an object";

    const Json *bench = document.find("bench");
    if (!bench || !bench->isString() || bench->asString().empty())
        return "missing or empty \"bench\" string";

    const Json *version = document.find("schema_version");
    if (!version || !version->isNumber())
        return "missing \"schema_version\"";
    if (version->asUint() != static_cast<std::uint64_t>(kBenchSchemaVersion))
        return "unsupported schema_version " + version->dump() +
               " (this build reads version " +
               std::to_string(kBenchSchemaVersion) + ")";

    const Json *degraded = document.find("degraded");
    if (!degraded || !degraded->isBool())
        return "missing \"degraded\" boolean";

    for (const char *field : {"scale", "options", "summary"}) {
        const Json *v = document.find(field);
        if (!v || !v->isObject())
            return std::string("missing \"") + field + "\" object";
    }

    const Json *wall = document.find("wall_seconds");
    if (!wall || !isNonNegativeNumber(*wall))
        return "missing or negative \"wall_seconds\"";

    const Json *results = document.find("results");
    if (!results || !results->isArray())
        return "missing \"results\" array";
    for (std::size_t i = 0; i < results->asArray().size(); ++i)
        if (std::string reason = validateRow(results->asArray()[i], i);
            !reason.empty())
            return reason;

    // The writer would print a NaN or infinity as null: catch it here.
    const Json &summary = *document.find("summary");
    if (std::string where = findNonFinite(summary, "summary"); !where.empty())
        return where + " is not a finite number";
    if (const Json *fleet = summary.find("fleet"))
        if (std::string reason = validateFleetSummary(*fleet);
            !reason.empty())
            return reason;

    return "";
}

} // namespace drs::obs
