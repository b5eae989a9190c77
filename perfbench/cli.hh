/**
 * @file
 * Strict command line of the cell runner. Every value is checked in
 * full: a seed or count with trailing garbage, a sign, or an
 * out-of-range value is an error, never a silent default.
 */

#ifndef PERFBENCH_CLI_HH
#define PERFBENCH_CLI_HH

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench
{

/** A malformed command line; what() says which argument and why. */
struct UsageError : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/** Longest measuring budget accepted, in seconds. */
constexpr std::uint64_t maxSeconds = 150;

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    std::uint64_t seconds = 0;
    bool trace = false;
};

/**
 * Parse a decimal integer in [@p min, @p max]: digits only, no sign,
 * no whitespace, nothing after the last digit.
 * @throw UsageError naming @p flag
 */
std::uint64_t parseUnsigned(std::string_view flag, std::string_view text,
                            std::uint64_t min, std::uint64_t max);

/**
 * Parse `--workload=NAME --seed=N --seconds=N --trace=0|1`. All four
 * are required, each at most once; the workload must exist and the
 * seconds must be in [1, maxSeconds].
 * @throw UsageError
 */
Options parseArgs(const std::vector<std::string> &args);

} // namespace perfbench

#endif // PERFBENCH_CLI_HH
