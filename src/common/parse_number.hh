/**
 * @file
 * Strict number parsing for command-line option values.
 */

#ifndef FLEXI_COMMON_PARSE_NUMBER_HH
#define FLEXI_COMMON_PARSE_NUMBER_HH

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <optional>
#include <type_traits>

namespace flexi
{

/**
 * Parse @p text as an integer of type @p T in [@p min, @p max]
 * (by default the whole range of T). The text must start with a
 * digit and be entirely consumed by strtoull's base-0 syntax (decimal,
 * 0x hex, leading-0 octal): no sign, no surrounding whitespace, no
 * trailing junk. Returns nullopt for anything else, including values
 * beyond uint64_t and values that do not fit T, so a caller can never
 * see a clamped, wrapped or narrowed result.
 */
template <typename T>
std::optional<T>
parseUnsigned(const char *text, T min = 0,
              T max = std::numeric_limits<T>::max())
{
    static_assert(std::is_unsigned_v<T>);
    if (!std::isdigit(static_cast<unsigned char>(*text)))
        return std::nullopt;
    errno = 0;
    char *end = nullptr;
    unsigned long long n = std::strtoull(text, &end, 0);
    if (errno == ERANGE || *end != '\0' || n < min || n > max)
        return std::nullopt;
    return static_cast<T>(n);
}

/**
 * Parse @p text as a finite real number in [@p min, @p max]. The text
 * must be entirely consumed by strtod's syntax with no leading
 * whitespace; infinities, NaNs, values that overflow or underflow a
 * double and values outside the range all return nullopt.
 */
inline std::optional<double>
parseReal(const char *text, double min, double max)
{
    if (std::isspace(static_cast<unsigned char>(*text)))
        return std::nullopt;
    errno = 0;
    char *end = nullptr;
    double x = std::strtod(text, &end);
    if (end == text || *end != '\0' || errno == ERANGE ||
        !std::isfinite(x) || x < min || x > max)
        return std::nullopt;
    return x;
}

} // namespace flexi

#endif // FLEXI_COMMON_PARSE_NUMBER_HH
