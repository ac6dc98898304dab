#pragma once

/**
 * @file
 * The one parser of numeric DRS_* environment knobs.
 */

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <type_traits>

namespace drs::exec {

/**
 * Read the numeric knob @p name into @p out. std::uint64_t knobs parse
 * with strtoull in @p base (0 also takes 0x / 0 prefixes; a leading '-'
 * wraps, so it is out of range unless @p max is the type's maximum),
 * double knobs with strtod. An unset variable returns false quietly; a
 * value that is not one whole number, overflows, is NaN or lies outside
 * [min, max] prints "warning: ignoring malformed NAME='VALUE'" to
 * stderr and returns false. @p out changes only on success.
 */
template <typename T>
bool
envKnob(const char *name, std::type_identity_t<T> min,
        std::type_identity_t<T> max, T &out, int base = 10)
{
    static_assert(std::is_same_v<T, std::uint64_t> ||
                  std::is_same_v<T, double>);
    const char *text = std::getenv(name);
    if (text == nullptr)
        return false;
    char *end = nullptr;
    errno = 0;
    T value{};
    if constexpr (std::is_same_v<T, double>)
        value = std::strtod(text, &end);
    else
        value = std::strtoull(text, &end, base);
    if (errno != 0 || end == text || *end != '\0' ||
        !(value >= min && value <= max)) {
        std::fprintf(stderr, "warning: ignoring malformed %s='%s'\n", name,
                     text);
        return false;
    }
    out = value;
    return true;
}

} // namespace drs::exec
