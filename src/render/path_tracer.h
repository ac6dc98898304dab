#pragma once

/**
 * @file
 * Path tracer. Walks each path of an image from the camera ray to the
 * last bounce. A capture appends each ray to the BounceRays batch of its
 * bounce, in scan order, which yields the per-bounce ray streams the
 * paper's experiments consume; it walks the film in chunks on several
 * threads and merges them in order, so the trace is the same on any
 * thread count.
 *
 * The light-transport model is intentionally simple (Lambertian BSDF with
 * a small specular mixture, emissive area lights, no next-event
 * estimation): the paper treats "shading and ray generation as a black
 * box" and only consumes the ray streams.
 */

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "bvh/builder.h"
#include "bvh/bvh.h"
#include "geom/ray.h"
#include "render/image.h"
#include "render/ray_trace.h"
#include "scene/scene.h"

namespace drs::render {

/** Path tracing parameters (paper defaults where applicable). */
struct RenderConfig
{
    int width = 160;              ///< paper: 640 (scaled by default)
    int height = 120;             ///< paper: 480
    int samplesPerPixel = 1;      ///< paper: 64
    int maxDepth = 8;             ///< paper: hard max path depth of 8
    std::uint64_t seed = 0x5eed;  ///< sampler rotation seed
    bvh::BuildConfig bvhConfig{}; ///< acceleration structure options
};

/** Coherence statistics of one ray batch (used by tests and analysis). */
struct CoherenceStats
{
    /** Mean pairwise-cosine proxy: |mean direction| in [0, 1]. */
    double directionCoherence = 0.0;
    /** Fraction of rays terminated by this bounce's trace. */
    double terminationRate = 0.0;
};

/**
 * A path tracer bound to one scene.
 *
 * Typical use: construct, then either render() a full image or capture()
 * a per-bounce ray trace for the simulator experiments.
 */
class PathTracer
{
  public:
    /**
     * Paths a capture walks as one unit of parallel work: few enough that
     * the chunks walked past the one that fills the film cost little,
     * enough that the lock each chunk takes once is noise beside it.
     */
    static constexpr std::size_t kCaptureChunkPaths = 256;

    PathTracer(const scene::Scene &scene, const RenderConfig &config = {});

    /** The acceleration structure built over the scene. */
    const bvh::Bvh &bvh() const { return bvh_; }

    /** The scene this tracer renders. */
    const scene::Scene &scene() const { return scene_; }

    /** The scene's triangle array (the BVH indexes into it). */
    const std::vector<geom::Triangle> &sceneTriangles() const
    {
        return scene_.triangles();
    }

    /**
     * Render a full image (host-side reference renderer).
     * @return accumulated framebuffer
     */
    Image render() const;

    /**
     * Capture the per-bounce ray streams of a full render.
     *
     * The paths, in scan order (y * width + x) * spp + s, are cut into
     * chunks of kCaptureChunkPaths. Up to exec::defaultConcurrency()
     * threads walk them and append them to the trace in chunk order, so
     * the result is the serial scan's, byte for byte, on any DRS_JOBS.
     *
     * @param max_rays_per_bounce optional cap: each bounce keeps the
     *        rays of the first this-many paths, in scan order, that reach
     *        it (the paper evaluates "two million rays for each bounce"),
     *        and paths stop once every bounce is full; 0 means unlimited.
     */
    RayTrace capture(std::size_t max_rays_per_bounce = 0) const;

    /** Direction/termination statistics of @p rays against this scene. */
    CoherenceStats analyzeCoherence(const std::vector<geom::Ray> &rays) const;

  private:
    struct PathState;

    /**
     * Walk the path of sample @p s of pixel (@p x, @p y): its camera ray,
     * then intersect and shade up to maxDepth times. With @p bounces, each
     * ray is appended to its bounce while that bounce holds fewer than
     * @p cap rays.
     * @return the radiance the path collected
     */
    geom::Vec3 walk(int x, int y, int s,
                    std::vector<BounceRays> *bounces = nullptr,
                    std::size_t cap = 0) const;

    /** Shade a hit and produce the continuation ray, if the path survives. */
    std::optional<geom::Ray> shade(PathState &path, const geom::Ray &ray,
                                   const geom::Hit &hit) const;

    const scene::Scene &scene_;
    RenderConfig config_;
    bvh::Bvh bvh_;
};

} // namespace drs::render
