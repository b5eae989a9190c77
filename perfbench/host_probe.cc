#include "host_probe.hh"

#include <chrono>
#include <unordered_map>

namespace perfbench
{

ProbeRun
probeHost()
{
    constexpr unsigned ops = 60000;

    using Clock = std::chrono::steady_clock;
    const auto start = Clock::now();
    std::unordered_map<std::uint64_t, std::uint64_t> table;
    std::uint64_t x = 5;
    for (unsigned i = 0; i < ops; ++i) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        table[x >> 40] += i;
        if (i % 3 == 0)
            table.erase((x >> 20) & 0xffffff);
    }
    ProbeRun run;
    run.entries = table.size();
    table = {};
    run.seconds = std::chrono::duration<double>(Clock::now() - start)
                      .count();
    return run;
}

} // namespace perfbench
