#include "render/path_tracer.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <limits>
#include <mutex>

#include "bvh/builder.h"
#include "bvh/traverse.h"
#include "exec/parallel_for.h"
#include "geom/sampler.h"

namespace drs::render {

using geom::Hit;
using geom::Ray;
using geom::Vec2;
using geom::Vec3;

/** Per-path bookkeeping carried across bounces. */
struct PathTracer::PathState
{
    Vec3 throughput{1.0f, 1.0f, 1.0f};
    Vec3 radiance{0.0f, 0.0f, 0.0f};
    geom::HaltonSampler sampler;
};

PathTracer::PathTracer(const scene::Scene &scene, const RenderConfig &config)
    : scene_(scene), config_(config),
      bvh_(bvh::build(scene.triangles(), config.bvhConfig))
{
}

std::optional<Ray>
PathTracer::shade(PathState &path, const Ray &ray, const Hit &hit) const
{
    if (!hit.valid()) {
        // Escaped the scene: collect nothing (no environment light; the
        // scenes carry explicit emissive sky geometry instead).
        return std::nullopt;
    }

    const geom::Triangle &tri = scene_.triangles()[hit.triangle];
    const scene::Material &mat = scene_.materialOf(hit.triangle);

    if (mat.emissive()) {
        // Path hit a light source: terminate and collect.
        path.radiance += path.throughput * mat.emission;
        return std::nullopt;
    }

    Vec3 n = geom::normalize(tri.geometricNormal());
    if (geom::dot(n, ray.direction) > 0.0f)
        n = -n; // shade the side the ray arrived on

    const Vec3 hit_point = ray.at(hit.t);

    // Mixture lobe: mirror with probability `specularity`, else cosine-
    // weighted Lambertian. Secondary rays therefore range from perfectly
    // coherent (mirror) to fully randomized (diffuse), like the paper's
    // PBRT BSDF sampling.
    const float lobe = path.sampler.next1D();
    Vec3 new_dir;
    if (lobe < mat.specularity) {
        new_dir = geom::reflect(ray.direction, n);
        path.throughput = path.throughput * mat.albedo;
        path.sampler.next2D(); // keep dimension alignment across lobes
    } else {
        const Vec2 u = path.sampler.next2D();
        const Vec3 local = geom::cosineSampleHemisphere(u);
        new_dir = geom::OrthonormalBasis(n).toWorld(local);
        // Cosine-weighted sampling of a Lambertian cancels the cosine and
        // the 1/pi, leaving just the albedo.
        path.throughput = path.throughput * mat.albedo;
    }

    if (geom::lengthSquared(new_dir) == 0.0f)
        return std::nullopt;

    Ray next;
    next.origin = hit_point + n * 1e-4f;
    next.direction = geom::normalize(new_dir);
    next.tMin = 1e-4f;
    next.tMax = geom::kRayInfinity;
    return next;
}

Vec3
PathTracer::walk(int x, int y, int s, std::vector<BounceRays> *bounces,
                 std::size_t cap) const
{
    PathState path;
    path.sampler = geom::HaltonSampler(
        config_.seed + (static_cast<std::uint64_t>(y) * config_.width + x));
    path.sampler.startSample(static_cast<std::uint64_t>(s));

    const Vec2 jitter = path.sampler.next2D();
    std::optional<Ray> ray = scene_.camera().generateRay(
        (x + jitter.x) / config_.width, (y + jitter.y) / config_.height);
    for (int depth = 0; depth < config_.maxDepth && ray; ++depth) {
        if (bounces && (*bounces)[depth].size() < cap)
            (*bounces)[depth].rays.push_back(*ray);
        const Hit hit = bvh::intersect(bvh_, scene_.triangles(), *ray);
        ray = shade(path, *ray, hit);
    }
    return path.radiance;
}

Image
PathTracer::render() const
{
    Image image(config_.width, config_.height);
    for (int y = 0; y < config_.height; ++y)
        for (int x = 0; x < config_.width; ++x)
            for (int s = 0; s < config_.samplesPerPixel; ++s)
                image.addSample(x, y, walk(x, y, s));
    return image;
}

RayTrace
PathTracer::capture(std::size_t max_rays_per_bounce) const
{
    const std::size_t cap = max_rays_per_bounce
                                ? max_rays_per_bounce
                                : std::numeric_limits<std::size_t>::max();
    RayTrace trace;
    trace.sceneName = scene_.name();
    for (int bounce = 1; bounce <= config_.maxDepth; ++bounce)
        trace.bounces.push_back(BounceRays{bounce, {}});

    // A path that reaches bounce k reached every bounce before it, so no
    // bounce holds more rays than the one before: once the deepest is
    // full, every bounce is, and the rest of the film adds nothing.
    const auto film_done = [&] {
        return trace.bounces.empty() || trace.bounces.back().size() >= cap;
    };

    // Path p is sample p % spp of pixel p / spp in scan order. Chunk c
    // holds paths [c * kCaptureChunkPaths, (c + 1) * kCaptureChunkPaths).
    const auto width = static_cast<std::size_t>(std::max(config_.width, 0));
    const auto height = static_cast<std::size_t>(std::max(config_.height, 0));
    const auto spp =
        static_cast<std::size_t>(std::max(config_.samplesPerPixel, 0));
    const std::size_t paths = width * height * spp;
    const std::size_t chunks =
        (paths + kCaptureChunkPaths - 1) / kCaptureChunkPaths;
    static std::atomic<bool> warned{false};
    const std::size_t threads = std::clamp<std::size_t>(
        static_cast<std::size_t>(exec::defaultConcurrency(&warned)), 1,
        std::max<std::size_t>(chunks, 1));

    // Chunk c is walked into slot c % window, which is free again once
    // chunk c - window is merged. A path adds at most one ray to each
    // bounce, so the slots reserved here are never grown by a worker.
    const std::size_t window = 2 * threads;
    std::vector<std::vector<BounceRays>> slots(window, trace.bounces);
    for (auto &slot : slots)
        for (auto &b : slot)
            b.rays.reserve(std::min(kCaptureChunkPaths, cap));
    std::vector<char> walked(window, 0);

    std::mutex mutex; // guards everything below and the trace
    std::condition_variable freed;
    std::size_t next = 0;   // the next chunk to claim
    std::size_t merged = 0; // chunks appended to the trace
    bool stop = film_done();

    const auto walk_chunk = [&](std::size_t chunk) {
        std::vector<BounceRays> &bounces = slots[chunk % window];
        for (auto &b : bounces)
            b.rays.clear();
        const std::size_t end =
            std::min(paths, (chunk + 1) * kCaptureChunkPaths);
        for (std::size_t p = chunk * kCaptureChunkPaths; p < end; ++p) {
            const std::size_t pixel = p / spp;
            walk(static_cast<int>(pixel % width),
                 static_cast<int>(pixel / width), static_cast<int>(p % spp),
                 &bounces, cap);
        }
    };
    // Append the walked chunks that extend the merged prefix, in chunk
    // order and under the cap: the trace the serial scan would build.
    const auto merge_walked = [&] {
        while (merged < next && walked[merged % window]) {
            const std::vector<BounceRays> &slot = slots[merged % window];
            for (std::size_t k = 0; k < trace.bounces.size(); ++k) {
                std::vector<geom::Ray> &to = trace.bounces[k].rays;
                const std::vector<geom::Ray> &from = slot[k].rays;
                const std::size_t take =
                    std::min(from.size(), cap - to.size());
                to.insert(to.end(), from.begin(), from.begin() + take);
            }
            walked[merged % window] = 0;
            ++merged;
            stop = stop || film_done();
        }
    };

    // Claims go in ascending order and end once the merged prefix fills
    // the film. The chunks walked for nothing are those claimed after the
    // one that filled it: fewer than the window, and threads - 1 when
    // chunks take alike.
    exec::parallelFor(threads, static_cast<int>(threads), [&](std::size_t) {
        std::unique_lock lock(mutex);
        for (;;) {
            freed.wait(lock, [&] {
                return stop || next == chunks || next < merged + window;
            });
            if (stop || next == chunks)
                return;
            const std::size_t chunk = next++;
            lock.unlock();
            try {
                walk_chunk(chunk);
            } catch (...) {
                lock.lock(); // wake the others, or they wait for this chunk
                stop = true;
                freed.notify_all();
                throw;
            }
            lock.lock();
            walked[chunk % window] = 1;
            merge_walked();
            freed.notify_all();
        }
    });

    while (!trace.bounces.empty() && trace.bounces.back().empty())
        trace.bounces.pop_back();
    return trace;
}

CoherenceStats
PathTracer::analyzeCoherence(const std::vector<Ray> &rays) const
{
    CoherenceStats stats;
    if (rays.empty())
        return stats;

    Vec3 mean_dir;
    std::size_t terminated = 0;
    for (const auto &r : rays) {
        mean_dir += geom::normalize(r.direction);
        const Hit hit = bvh::intersect(bvh_, scene_.triangles(), r);
        if (!hit.valid() || scene_.materialOf(hit.triangle).emissive())
            ++terminated;
    }
    stats.directionCoherence =
        geom::length(mean_dir) / static_cast<double>(rays.size());
    stats.terminationRate =
        static_cast<double>(terminated) / static_cast<double>(rays.size());
    return stats;
}

} // namespace drs::render
