#pragma once

/**
 * @file
 * The one reader of DRS_* environment variables, and the one parser of
 * the numbers they and the bench flags carry. README.md lists every
 * knob with its type, range and default.
 */

#include <atomic>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <type_traits>

namespace drs::exec {

/**
 * Largest duration knob, in seconds: std::chrono holds durations as
 * 64-bit nanosecond counts, which 1e9 s (~32 years) keeps far from
 * overflow.
 */
inline constexpr double kMaxKnobSeconds = 1e9;

/**
 * Parse @p text as one T in [min, max]; @p out changes only on success.
 * Integers (bool as 0 or 1) parse with strtoll, or strtoull for
 * unsigned types, in @p base (0 also takes 0x / 0 prefixes): fractions
 * and exponents are malformed, and an unsigned T takes no '-'. float
 * and double parse with strtof / strtod. Surrounding whitespace is
 * accepted; an empty text, trailing garbage, overflow, NaN or a value
 * outside [min, max] is not.
 */
template <typename T>
bool
parseNumber(const char *text, std::type_identity_t<T> min,
            std::type_identity_t<T> max, T &out, int base = 10)
{
    static_assert(std::is_arithmetic_v<T>);
    while (std::isspace(static_cast<unsigned char>(*text)))
        ++text;
    char *end = nullptr;
    errno = 0;
    T value{};
    bool inRange = false;
    if constexpr (std::is_floating_point_v<T>) {
        value = std::is_same_v<T, float> ? std::strtof(text, &end)
                                         : std::strtod(text, &end);
        inRange = value >= min && value <= max; // false for NaN
    } else if constexpr (std::is_signed_v<T>) {
        const long long parsed = std::strtoll(text, &end, base);
        inRange = parsed >= min && parsed <= max;
        value = static_cast<T>(parsed);
    } else {
        if (*text == '-') // strtoull would wrap it
            return false;
        const unsigned long long parsed = std::strtoull(text, &end, base);
        inRange = parsed >= min && parsed <= max;
        value = static_cast<T>(parsed);
    }
    if (errno != 0 || end == text || !inRange)
        return false;
    while (std::isspace(static_cast<unsigned char>(*end)))
        ++end;
    if (*end != '\0')
        return false;
    out = value;
    return true;
}

/** Print "warning: ignoring malformed NAME='TEXT'" to stderr. */
inline void
warnMalformed(const char *name, const char *text)
{
    std::fprintf(stderr, "warning: ignoring malformed %s='%s'\n", name, text);
}

/**
 * parseNumber() for the value @p text of the knob or flag @p name. A
 * malformed value warns (warnMalformed) and returns false; with
 * @p warnedOnce only the call that first sets it warns, so a knob read
 * once per job warns once per process.
 */
template <typename T>
bool
parseKnob(const char *name, const char *text, std::type_identity_t<T> min,
          std::type_identity_t<T> max, T &out, int base = 10,
          std::atomic<bool> *warnedOnce = nullptr)
{
    if (parseNumber(text, min, max, out, base))
        return true;
    if (warnedOnce == nullptr || !warnedOnce->exchange(true))
        warnMalformed(name, text);
    return false;
}

/** parseKnob() on the environment variable @p name; unset is quiet. */
template <typename T>
bool
envKnob(const char *name, std::type_identity_t<T> min,
        std::type_identity_t<T> max, T &out, int base = 10,
        std::atomic<bool> *warnedOnce = nullptr)
{
    const char *text = std::getenv(name);
    return text != nullptr &&
           parseKnob(name, text, min, max, out, base, warnedOnce);
}

/**
 * Read the text knob @p name into @p out. Unset returns false quietly;
 * an empty value warns and returns false.
 */
inline bool
envKnob(const char *name, std::string &out)
{
    const char *text = std::getenv(name);
    if (text == nullptr)
        return false;
    if (*text == '\0') {
        warnMalformed(name, text);
        return false;
    }
    out = text;
    return true;
}

} // namespace drs::exec
