/**
 * @file
 * Render any benchmark scene to a PPM image with the host path tracer —
 * the visual counterpart of the paper's Figure 7 and a smoke test that
 * the procedural scenes look like scenes.
 *
 * Usage: render_scene [scene] [output.ppm] [width] [height] [spp]
 */

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <string>

#include "harness/harness.h"
#include "render/path_tracer.h"
#include "scene/scenes.h"

int
main(int argc, char **argv)
{
    using namespace drs;

    const std::string scene_name = argc > 1 ? argv[1] : "conference";
    const std::string output =
        argc > 2 ? argv[2] : (scene_name + ".ppm");

    render::RenderConfig config;
    config.width = argc > 3 ? std::atoi(argv[3]) : 320;
    config.height = argc > 4 ? std::atoi(argv[4]) : 240;
    config.samplesPerPixel = argc > 5 ? std::atoi(argv[5]) : 8;

    const float scale = std::max(
        0.01f, harness::ExperimentScale::fromEnvironment().sceneScale);

    std::cout << "Rendering '" << scene_name << "' at " << config.width
              << "x" << config.height << ", " << config.samplesPerPixel
              << " spp...\n";

    const scene::Scene scene =
        scene_name == "test"
            ? scene::makeTestScene()
            : scene::makeScene(scene::sceneFromName(scene_name), scale);
    std::cout << "  " << scene.triangleCount() << " triangles, "
              << scene.emissiveTriangles().size() << " emissive\n";

    render::PathTracer tracer(scene, config);
    const render::Image image = tracer.render();
    if (!image.writePpm(output)) {
        std::cerr << "failed to write " << output << "\n";
        return 1;
    }
    std::cout << "  mean luminance " << image.meanLuminance() << "\n";
    std::cout << "Wrote " << output << "\n";
    return 0;
}
