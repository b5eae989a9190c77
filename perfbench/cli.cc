#include "cli.hh"

#include <charconv>
#include <limits>

#include "cell_driver.hh"

namespace perfbench
{

std::uint64_t
parseUnsigned(std::string_view flag, std::string_view text,
              std::uint64_t min, std::uint64_t max)
{
    std::uint64_t value = 0;
    const char *end = text.data() + text.size();
    auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (text.empty() || ec != std::errc() || ptr != end)
        throw UsageError(std::string(flag) + ": '" + std::string(text) +
                         "' is not a non-negative decimal integer");
    if (value < min || value > max)
        throw UsageError(std::string(flag) + ": " + std::to_string(value) +
                         " is outside [" + std::to_string(min) + ", " +
                         std::to_string(max) + "]");
    return value;
}

Options
parseArgs(const std::vector<std::string> &args)
{
    Options opts;
    bool have_workload = false, have_seed = false, have_seconds = false,
         have_trace = false;
    auto take = [](bool &seen, std::string_view flag) {
        if (seen)
            throw UsageError(std::string(flag) + " given twice");
        seen = true;
    };
    for (const std::string &arg : args) {
        std::size_t eq = arg.find('=');
        std::string_view flag(arg.data(),
                              eq == std::string::npos ? arg.size() : eq);
        if (eq == std::string::npos)
            throw UsageError("expected --flag=value, got '" + arg + "'");
        std::string_view value(arg.data() + eq + 1, arg.size() - eq - 1);
        if (flag == "--workload") {
            take(have_workload, flag);
            if (!findWorkload(value))
                throw UsageError("--workload: unknown workload '" +
                                 std::string(value) + "'");
            opts.workload = value;
        } else if (flag == "--seed") {
            take(have_seed, flag);
            opts.seed = parseUnsigned(
                flag, value, 0, std::numeric_limits<std::uint64_t>::max());
        } else if (flag == "--seconds") {
            take(have_seconds, flag);
            opts.seconds = parseUnsigned(flag, value, 1, maxSeconds);
        } else if (flag == "--trace") {
            take(have_trace, flag);
            opts.trace = parseUnsigned(flag, value, 0, 1) == 1;
        } else {
            throw UsageError("unknown flag '" + std::string(flag) + "'");
        }
    }
    if (!have_workload || !have_seed || !have_seconds || !have_trace)
        throw UsageError(
            "--workload, --seed, --seconds and --trace are all required");
    return opts;
}

} // namespace perfbench
