/**
 * @file
 * Tests for the scene generators, camera, path tracer, ray-trace capture
 * and serialization — the "PBRT black box" substitute.
 */

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "bvh/builder.h"
#include "render/path_tracer.h"
#include "render/ray_trace.h"
#include "scene/camera.h"
#include "scene/scenes.h"

namespace drs {
namespace {

using geom::Ray;
using geom::Vec3;

// ---------------------------------------------------------------- Scene

TEST(Scene, NamesRoundTrip)
{
    for (scene::SceneId id : scene::allSceneIds())
        EXPECT_EQ(scene::sceneFromName(scene::sceneName(id)), id);
    EXPECT_THROW(scene::sceneFromName("nope"), std::invalid_argument);
}

TEST(Scene, AllBenchmarkScenesHaveLightsAndGeometry)
{
    for (scene::SceneId id : scene::allSceneIds()) {
        const scene::Scene s = scene::makeScene(id, 0.2f);
        EXPECT_GT(s.triangleCount(), 100u) << scene::sceneName(id);
        EXPECT_FALSE(s.emissiveTriangles().empty()) << scene::sceneName(id);
        EXPECT_FALSE(s.bounds().empty());
    }
}

TEST(Scene, ScaleControlsTessellation)
{
    const auto small = scene::makeScene(scene::SceneId::Fairy, 0.1f);
    const auto large = scene::makeScene(scene::SceneId::Fairy, 0.5f);
    EXPECT_GT(large.triangleCount(), small.triangleCount() * 2);
}

TEST(Scene, PlantsIsDensest)
{
    // The paper's plants scene has by far the most triangles.
    const float scale = 0.2f;
    const auto plants = scene::makeScene(scene::SceneId::Plants, scale);
    for (scene::SceneId id :
         {scene::SceneId::Conference, scene::SceneId::Fairy}) {
        EXPECT_GT(plants.triangleCount(),
                  scene::makeScene(id, scale).triangleCount());
    }
}

TEST(Scene, MaterialLookupValidated)
{
    const scene::Scene s = scene::makeTestScene();
    EXPECT_NO_THROW(s.materialOf(0));
    // Bad material indices are rejected at construction.
    std::vector<geom::Triangle> tris = {
        {{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, 5}};
    EXPECT_THROW(scene::Scene("bad", tris, {scene::Material{}},
                              scene::Camera{}),
                 std::out_of_range);
}

TEST(Camera, RaysSpanTheFrustum)
{
    scene::Camera cam({0, 0, 0}, {0, 0, -1}, {0, 1, 0}, 90.0f, 1.0f);
    const Ray center = cam.generateRay(0.5f, 0.5f);
    EXPECT_NEAR(center.direction.z, -1.0f, 1e-5f);
    const Ray corner = cam.generateRay(0.0f, 0.0f);
    EXPECT_LT(corner.direction.x, 0.0f);
    EXPECT_LT(corner.direction.y, 0.0f);
    // 90 degree vertical fov: the top edge is at 45 degrees.
    const Ray top = cam.generateRay(0.5f, 1.0f);
    EXPECT_NEAR(top.direction.y / -top.direction.z, 1.0f, 1e-4f);
}

// ----------------------------------------------------------- PathTracer

render::RenderConfig
smallConfig()
{
    render::RenderConfig config;
    config.width = 40;
    config.height = 30;
    config.samplesPerPixel = 1;
    return config;
}

std::string
traceBytes(const render::RayTrace &trace)
{
    std::ostringstream os;
    render::save(trace, os);
    return os.str();
}

std::string
imageBytes(const render::Image &image)
{
    std::string bytes;
    for (int y = 0; y < image.height(); ++y)
        for (int x = 0; x < image.width(); ++x) {
            const Vec3 p = image.pixel(x, y);
            for (const float c : {p.x, p.y, p.z})
                bytes.append(reinterpret_cast<const char *>(&c), sizeof c);
        }
    return bytes;
}

std::uint64_t
fnv1a(const std::string &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

TEST(PathTracer, RenderProducesLight)
{
    const scene::Scene s = scene::makeTestScene();
    render::PathTracer tracer(s, smallConfig());
    const render::Image image = tracer.render();
    EXPECT_GT(image.meanLuminance(), 0.001);
}

TEST(PathTracer, CaptureBouncesShrinkMonotonically)
{
    const scene::Scene s = scene::makeTestScene();
    render::PathTracer tracer(s, smallConfig());
    const render::RayTrace trace = tracer.capture();
    ASSERT_GE(trace.bounces.size(), 2u);
    EXPECT_EQ(trace.bounces[0].bounce, 1);
    EXPECT_EQ(trace.bounces[0].rays.size(), 40u * 30u);
    for (std::size_t i = 1; i < trace.bounces.size(); ++i)
        EXPECT_LE(trace.bounces[i].size(), trace.bounces[i - 1].size());
}

TEST(PathTracer, CaptureRespectsRayCap)
{
    // capture(N) must be capture(0) cut to N rays per bounce, byte for
    // byte: with N = 1, with N = 100, and with an N that fills the
    // shallow bounces but leaves the deeper ones short.
    render::RenderConfig config;
    config.width = 64;
    config.height = 48;
    config.samplesPerPixel = 1;
    for (scene::SceneId id : scene::allSceneIds()) {
        SCOPED_TRACE(scene::sceneName(id));
        const scene::Scene s = scene::makeScene(id, 0.05f);
        const render::PathTracer tracer(s, config);
        const render::RayTrace full = tracer.capture(0);
        ASSERT_GE(full.bounces.size(), 3u);
        const std::size_t shallow = full.bounces[1].size();
        ASSERT_LT(full.bounces.back().size(), shallow);

        for (const std::size_t cap : {std::size_t{1}, std::size_t{100},
                                      shallow}) {
            render::RayTrace expected = full;
            for (auto &b : expected.bounces)
                if (b.rays.size() > cap)
                    b.rays.resize(cap);
            const render::RayTrace capped = tracer.capture(cap);
            for (const auto &b : capped.bounces)
                EXPECT_LE(b.size(), cap);
            EXPECT_TRUE(traceBytes(capped) == traceBytes(expected))
                << "capture(" << cap << ") is not capture(0) truncated";
        }
    }
}

TEST(PathTracer, CaptureIsTheSameOnAnyThreadCount)
{
    // capture() walks chunks of paths on DRS_JOBS threads and merges
    // them in order: every cap, film and sample count must give the
    // DRS_JOBS=1 bytes on 2, 3 and 8 threads. A run of the suite under
    // DRS_JOBS keeps it afterwards.
    const char *outer = std::getenv("DRS_JOBS");
    const std::string saved = outer != nullptr ? outer : "";
    const auto capture_on = [](const render::PathTracer &tracer,
                               const char *jobs, std::size_t cap) {
        setenv("DRS_JOBS", jobs, 1);
        return traceBytes(tracer.capture(cap));
    };

    constexpr std::size_t kChunk = render::PathTracer::kCaptureChunkPaths;
    struct Film
    {
        int width, height, spp;
    };
    // 64x48 is whole chunks; 61x47 ends in a partial one.
    static_assert(64 * 48 % kChunk == 0 && 61 * 47 % kChunk != 0);
    const Film films[] = {{64, 48, 1}, {64, 48, 2}, {61, 47, 1}};
    for (scene::SceneId id : scene::allSceneIds()) {
        const scene::Scene s = scene::makeScene(id, 0.05f);
        for (const Film &film : films) {
            SCOPED_TRACE(std::string(scene::sceneName(id)) + " " +
                         std::to_string(film.width) + "x" +
                         std::to_string(film.height) + " spp " +
                         std::to_string(film.spp));
            render::RenderConfig config;
            config.width = film.width;
            config.height = film.height;
            config.samplesPerPixel = film.spp;
            const render::PathTracer tracer(s, config);
            const std::size_t paths =
                std::size_t(film.width) * film.height * film.spp;
            ASSERT_GT(paths, 5 * kChunk);
            for (const std::size_t cap :
                 {std::size_t{0}, std::size_t{1}, std::size_t{100},
                  2 * kChunk + kChunk / 2, paths + 1}) {
                const std::string serial = capture_on(tracer, "1", cap);
                for (const char *jobs : {"2", "3", "8"})
                    EXPECT_TRUE(capture_on(tracer, jobs, cap) == serial)
                        << "capture(" << cap << ") on DRS_JOBS=" << jobs;
            }
        }
    }

    // Every capture reads DRS_JOBS; a malformed value warns at most once.
    const scene::Scene test_scene = scene::makeTestScene();
    const render::PathTracer tracer(test_scene, smallConfig());
    const std::string serial = capture_on(tracer, "1", 0);
    testing::internal::CaptureStderr();
    for (int i = 0; i < 3; ++i)
        EXPECT_TRUE(capture_on(tracer, "banana", 0) == serial);
    const std::string printed = testing::internal::GetCapturedStderr();
    const std::string warning = "malformed DRS_JOBS='banana'";
    const std::size_t first = printed.find(warning);
    EXPECT_TRUE(first == std::string::npos ||
                printed.find(warning, first + 1) == std::string::npos)
        << printed;

    if (outer != nullptr)
        setenv("DRS_JOBS", saved.c_str(), 1);
    else
        unsetenv("DRS_JOBS");
}

TEST(PathTracer, CaptureAndRenderMatchGoldenDigests)
{
    // Every bench traces the rays capture() returns, and render() walks
    // the same paths: these digests pin both.
    const scene::Scene s = scene::makeTestScene();
    render::PathTracer tracer(s, smallConfig());
    EXPECT_EQ(fnv1a(traceBytes(tracer.capture(0))), 0x9d778026e0853147ull);
    EXPECT_EQ(fnv1a(imageBytes(tracer.render())), 0x00e7bbe2be6d95c8ull);
}

TEST(PathTracer, PrimaryRaysCoherentSecondaryNot)
{
    // The paper's core workload property: bounce-1 rays are coherent,
    // bounce-2+ rays are randomized by BSDF sampling.
    const scene::Scene s = scene::makeConferenceScene(0.15f);
    render::RenderConfig config = smallConfig();
    render::PathTracer tracer(s, config);
    const render::RayTrace trace = tracer.capture();
    ASSERT_GE(trace.bounces.size(), 2u);
    const auto primary = tracer.analyzeCoherence(trace.bounce(1).rays);
    const auto secondary = tracer.analyzeCoherence(trace.bounce(2).rays);
    EXPECT_GT(primary.directionCoherence, 0.7);
    EXPECT_LT(secondary.directionCoherence,
              primary.directionCoherence * 0.7);
}

TEST(PathTracer, DeterministicAcrossRuns)
{
    const scene::Scene s = scene::makeTestScene();
    render::PathTracer a(s, smallConfig());
    render::PathTracer b(s, smallConfig());
    const auto ta = a.capture(50);
    const auto tb = b.capture(50);
    ASSERT_EQ(ta.bounces.size(), tb.bounces.size());
    for (std::size_t i = 0; i < ta.bounces.size(); ++i) {
        ASSERT_EQ(ta.bounces[i].size(), tb.bounces[i].size());
        for (std::size_t j = 0; j < ta.bounces[i].size(); ++j) {
            EXPECT_EQ(ta.bounces[i].rays[j].origin,
                      tb.bounces[i].rays[j].origin);
            EXPECT_EQ(ta.bounces[i].rays[j].direction,
                      tb.bounces[i].rays[j].direction);
        }
    }
}

TEST(PathTracer, MaxDepthBoundsBounces)
{
    const scene::Scene s = scene::makeTestScene();
    render::RenderConfig config = smallConfig();
    config.maxDepth = 3;
    render::PathTracer tracer(s, config);
    EXPECT_LE(tracer.capture().bounces.size(), 3u);
}

// ------------------------------------------------------------ RayTrace

TEST(RayTrace, SerializationRoundTrip)
{
    render::RayTrace trace;
    trace.sceneName = "roundtrip";
    render::BounceRays b1;
    b1.bounce = 1;
    b1.rays.push_back(Ray{{1, 2, 3}, 0.5f, {0, 1, 0}, 99.0f});
    b1.rays.push_back(Ray{{-1, 0, 4}, 0.0f, {0, 0, -1}, 5.0f});
    trace.bounces.push_back(b1);

    std::stringstream stream;
    render::save(trace, stream);
    const render::RayTrace loaded = render::load(stream);
    EXPECT_EQ(loaded.sceneName, "roundtrip");
    ASSERT_EQ(loaded.bounces.size(), 1u);
    ASSERT_EQ(loaded.bounce(1).size(), 2u);
    EXPECT_EQ(loaded.bounce(1).rays[0].origin, Vec3(1, 2, 3));
    EXPECT_EQ(loaded.bounce(1).rays[1].tMax, 5.0f);
    EXPECT_EQ(loaded.totalRays(), 2u);
}

TEST(RayTrace, LoadRejectsGarbage)
{
    std::stringstream stream("not a trace at all");
    EXPECT_THROW(render::load(stream), std::runtime_error);
}

TEST(RayTrace, LoadRejectsTruncated)
{
    render::RayTrace trace;
    trace.sceneName = "t";
    render::BounceRays b;
    b.bounce = 1;
    b.rays.resize(10);
    trace.bounces.push_back(b);
    std::stringstream stream;
    render::save(trace, stream);
    std::string bytes = stream.str();
    bytes.resize(bytes.size() / 2);
    std::stringstream cut(bytes);
    EXPECT_THROW(render::load(cut), std::runtime_error);
}

TEST(RayTrace, LoadRejectsLyingCounts)
{
    // One bounce of one ray in a scene named "t": the name length sits at
    // byte 8 of the stream, the bounce count at 13, the ray count at 21.
    render::RayTrace trace;
    trace.sceneName = "t";
    trace.bounces.push_back(render::BounceRays{1, {Ray{}}});
    std::stringstream stream;
    render::save(trace, stream);
    const std::string bytes = stream.str();
    ASSERT_EQ(bytes.size(), 29u + sizeof(Ray));

    // A count far beyond what the stream holds must run the reader out
    // of records, not size an allocation.
    const auto load_error = [&](std::size_t offset, auto count) {
        std::string lying = bytes;
        std::memcpy(lying.data() + offset, &count, sizeof count);
        std::istringstream is(lying);
        try {
            render::load(is);
        } catch (const std::exception &e) {
            return std::string(e.what());
        }
        return std::string("no exception");
    };
    const std::string truncated = "truncated ray trace stream";
    EXPECT_EQ(load_error(21, std::uint64_t{1} << 40), truncated);
    EXPECT_EQ(load_error(21, std::uint64_t{1} << 58), truncated);
    EXPECT_EQ(load_error(13, std::uint32_t{0xffffffff}), truncated);
    EXPECT_EQ(load_error(8, std::uint32_t{0xffffffff}), truncated);
}

TEST(RayTrace, MissingBounceThrows)
{
    render::RayTrace trace;
    EXPECT_THROW(trace.bounce(3), std::out_of_range);
}

// --------------------------------------------------------------- Image

TEST(Image, AccumulatesAndAverages)
{
    render::Image image(4, 4);
    image.addSample(1, 2, {1.0f, 0.0f, 0.0f});
    image.addSample(1, 2, {0.0f, 1.0f, 0.0f});
    const Vec3 p = image.pixel(1, 2);
    EXPECT_FLOAT_EQ(p.x, 0.5f);
    EXPECT_FLOAT_EQ(p.y, 0.5f);
    EXPECT_FLOAT_EQ(p.z, 0.0f);
    EXPECT_EQ(image.pixel(0, 0), Vec3());
}

TEST(Image, WritesPpm)
{
    render::Image image(8, 6);
    for (int y = 0; y < 6; ++y)
        for (int x = 0; x < 8; ++x)
            image.addSample(x, y, {0.5f, 0.25f, 0.125f});
    const std::string path = "/tmp/drs_test_image.ppm";
    ASSERT_TRUE(image.writePpm(path));
    std::ifstream is(path, std::ios::binary);
    std::string header;
    is >> header;
    EXPECT_EQ(header, "P6");
}

} // namespace
} // namespace drs
