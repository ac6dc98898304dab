#pragma once

/**
 * @file
 * Ray and hit-record types shared by the CPU reference tracer, the
 * path tracer and the simulated traversal kernels.
 */

#include <cstdint>
#include <limits>

#include "geom/vec.h"

namespace drs::geom {

/** Sentinel triangle index meaning "no intersection found". */
inline constexpr std::int32_t kNoHit = -1;

/** Infinity used as the initial ray extent. */
inline constexpr float kRayInfinity = std::numeric_limits<float>::infinity();

/**
 * A ray with a parametric validity interval [tMin, tMax].
 *
 * The traversal kernels treat tMax as the "hit length" live variable the
 * paper stores in registers: it shrinks as closer hits are found.
 */
struct Ray
{
    Vec3 origin;
    float tMin = 1e-4f;
    Vec3 direction;
    float tMax = kRayInfinity;

    /** Point at parameter @p t along the ray. */
    Vec3 at(float t) const { return origin + direction * t; }
};

/** Result of tracing one ray: closest triangle, distance and barycentrics. */
struct Hit
{
    std::int32_t triangle = kNoHit;
    float t = kRayInfinity;
    float u = 0.0f;
    float v = 0.0f;

    bool valid() const { return triangle != kNoHit; }
};

} // namespace drs::geom
