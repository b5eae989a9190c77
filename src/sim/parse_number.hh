/**
 * @file
 * Strict parsing of numeric command-line values.
 *
 * Shared by pfsim, trace_summary, the bench harnesses and the
 * examples, so a malformed number fails the same way everywhere: exit
 * status 1 and a message naming the flag and the rejected input,
 * instead of atoi/atof's silent zero or truncation.
 */

#ifndef PF_SIM_PARSE_NUMBER_HH
#define PF_SIM_PARSE_NUMBER_HH

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <string>
#include <system_error>
#include <type_traits>

namespace pageforge
{

/**
 * Parse the value of a NAME=VALUE argument as a T, or exit 1 naming
 * the input on stderr, prefixed by @p prog. The whole value must
 * parse: no sign, no trailing text, finite, and nonzero when
 * @p positive.
 */
template <class T>
T
parseNumber(const char *prog, const std::string &arg, bool positive = false)
{
    std::size_t eq = arg.find('=');
    std::string text = arg.substr(eq + 1);
    T value{};
    const char *end = text.data() + text.size();
    auto [stop, err] = std::from_chars(text.data(), end, value);
    bool ok = err == std::errc() && stop == end && text[0] != '-';
    if constexpr (std::is_floating_point_v<T>)
        ok = ok && std::isfinite(value);
    if (positive && value == T(0))
        ok = false;
    if (!ok) {
        std::cerr << prog << ": bad " << arg.substr(0, eq) << " value '"
                  << text << "': expected a "
                  << (positive ? "positive " : "non-negative ")
                  << (std::is_integral_v<T> ? "integer" : "number")
                  << "\n";
        std::exit(1);
    }
    return value;
}

} // namespace pageforge

#endif // PF_SIM_PARSE_NUMBER_HH
