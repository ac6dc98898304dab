#include "render/ray_trace.h"

#include <istream>
#include <ostream>
#include <stdexcept>

namespace drs::render {

namespace {

constexpr std::uint32_t kMagic = 0x44525354; // "DRST"
constexpr std::uint32_t kVersion = 1;

template <typename T>
void
writePod(std::ostream &os, const T &v)
{
    os.write(reinterpret_cast<const char *>(&v), sizeof(T));
}

template <typename T>
T
readPod(std::istream &is)
{
    T v;
    is.read(reinterpret_cast<char *>(&v), sizeof(T));
    if (!is)
        throw std::runtime_error("truncated ray trace stream");
    return v;
}

} // namespace

std::size_t
RayTrace::totalRays() const
{
    std::size_t n = 0;
    for (const auto &b : bounces)
        n += b.size();
    return n;
}

const BounceRays &
RayTrace::bounce(int b) const
{
    for (const auto &br : bounces)
        if (br.bounce == b)
            return br;
    throw std::out_of_range("trace has no bounce " + std::to_string(b));
}

void
save(const RayTrace &trace, std::ostream &os)
{
    writePod(os, kMagic);
    writePod(os, kVersion);
    writePod(os, static_cast<std::uint32_t>(trace.sceneName.size()));
    os.write(trace.sceneName.data(),
             static_cast<std::streamsize>(trace.sceneName.size()));
    writePod(os, static_cast<std::uint32_t>(trace.bounces.size()));
    for (const auto &b : trace.bounces) {
        writePod(os, static_cast<std::int32_t>(b.bounce));
        writePod(os, static_cast<std::uint64_t>(b.rays.size()));
        for (const auto &r : b.rays) {
            writePod(os, r.origin);
            writePod(os, r.tMin);
            writePod(os, r.direction);
            writePod(os, r.tMax);
        }
    }
}

RayTrace
load(std::istream &is)
{
    if (readPod<std::uint32_t>(is) != kMagic)
        throw std::runtime_error("not a ray trace stream (bad magic)");
    if (readPod<std::uint32_t>(is) != kVersion)
        throw std::runtime_error("unsupported ray trace version");

    // The counts below come off the stream unchecked, so nothing is sized
    // from them: storage grows as records arrive, and a count larger than
    // the stream ends in the truncation error.
    RayTrace trace;
    const auto name_len = readPod<std::uint32_t>(is);
    for (std::uint32_t i = 0; i < name_len; ++i)
        trace.sceneName.push_back(readPod<char>(is));

    const auto bounce_count = readPod<std::uint32_t>(is);
    for (std::uint32_t i = 0; i < bounce_count; ++i) {
        BounceRays b;
        b.bounce = readPod<std::int32_t>(is);
        const auto ray_count = readPod<std::uint64_t>(is);
        for (std::uint64_t j = 0; j < ray_count; ++j) {
            geom::Ray r;
            r.origin = readPod<geom::Vec3>(is);
            r.tMin = readPod<float>(is);
            r.direction = readPod<geom::Vec3>(is);
            r.tMax = readPod<float>(is);
            b.rays.push_back(r);
        }
        trace.bounces.push_back(std::move(b));
    }
    return trace;
}

} // namespace drs::render
