/**
 * @file
 * Cell runner of the fixed-work benchmark (driven by run.py).
 *
 *   perfbench_cells --workload=NAME --seed=N --seconds=N --trace=0|1
 *
 * Repeats the workload's fixed cell set for about --seconds and
 * prints one JSON object per cell per repetition, then one line with
 * the process's peak resident set. Each cell line carries the time of
 * the host speed probe around the cell (host_probe.hh). With --trace=1
 * repetitions alternate untraced and traced (host profiler on), so the
 * traced run's cost can be read against an untraced run of the same
 * process.
 */

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "cell_driver.hh"
#include "cli.hh"
#include "host_probe.hh"

using namespace perfbench;

namespace
{

/** Repetitions an untraced run makes at least, for its medians. */
constexpr unsigned minUntracedReps = 3;

/**
 * Lanes of every cell of a --trace=1 run, so that on multi-MC cells
 * the lane telemetry measures the threaded lane pool. --trace=0 runs
 * one lane, where the pool's wake-ups cannot spread wall_s. Results
 * are identical at any lane count, and a 1-MC cell has no lanes.
 */
constexpr unsigned tracedLanes = 2;

std::string
jsonString(const std::string &text)
{
    std::string out = "\"";
    for (char ch : text) {
        if (ch == '"' || ch == '\\') {
            out += '\\';
            out += ch;
        } else if (static_cast<unsigned char>(ch) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
            out += buf;
        } else {
            out += ch;
        }
    }
    return out + "\"";
}

void
printCell(unsigned rep, bool traced, const CellRun &run, double probeS)
{
    const Counters &c = run.counters;
    const Digest &d = run.digest;
    std::printf("{\"rep\":%u,\"traced\":%s,\"app\":%s,\"ok\":%s,"
                "\"error\":%s,\"wall_s\":%.9f,\"probe_s\":%.9f,"
                "\"phases\":{",
                rep, traced ? "true" : "false",
                jsonString(run.app).c_str(), run.ok ? "true" : "false",
                jsonString(run.error).c_str(), run.wallS, probeS);
    for (unsigned p = 0; p < numPhases; ++p)
        std::printf("%s\"%s\":%.9f", p ? "," : "",
                    phaseMetric(static_cast<Phase>(p)), run.phaseS[p]);
    std::printf("},\"digest\":%s,\"counters\":{",
                jsonString(d.str()).c_str());
    const std::pair<const char *, std::uint64_t> counters[] = {
        {"events", d.simEvents},
        {"window_events", c.windowEvents},
        {"l1_accesses", c.l1Accesses},
        {"l3_accesses", c.l3Accesses},
        {"l3_app_accesses", c.l3AppAccesses},
        {"l3_app_misses", c.l3AppMisses},
        {"dram_reads", d.dramReads},
        {"dram_writes", d.dramWrites},
        {"row_hits", c.rowHits},
        {"row_misses", c.rowMisses},
        {"ecc_encodes", c.eccEncodes},
        {"merges", d.merges},
        {"cow_breaks", d.cowBreaks},
        {"frames_saved", c.framesSaved},
        {"frames_used", d.framesUsed},
        {"mapped_pages", d.mappedPages},
        {"ksm_pages_scanned", c.ksmPagesScanned},
        {"ksm_merges", c.ksmMerges},
        {"jhash_false_matches", c.jhashFalseMatches},
        {"jhash_comparisons", c.jhashComparisons},
        {"core_pages_scanned", c.corePagesScanned},
        {"core_merges", c.coreMerges},
        {"core_batches", c.coreBatches},
        {"core_refills", c.coreRefills},
        {"core_os_checks", c.coreOsChecks},
        {"ecc_false_matches", c.eccFalseMatches},
        {"ecc_comparisons", c.eccComparisons},
        {"handoffs", c.handoffs},
        {"clones", d.clones},
        {"shutdowns", d.shutdowns},
        {"frames_freed", c.framesFreed},
    };
    bool first = true;
    for (const auto &[name, value] : counters) {
        std::printf("%s\"%s\":%llu", first ? "" : ",", name,
                    static_cast<unsigned long long>(value));
        first = false;
    }
    std::printf("},\"p95_sojourn_ms\":%.17g,\"sites\":{",
                d.p95SojournMs);
    for (unsigned s = 0; s < pageforge::prof::numSites; ++s) {
        std::printf("%s\"%s\":[", s ? "," : "",
                    pageforge::prof::siteName(
                        static_cast<pageforge::prof::Site>(s)));
        for (unsigned p = 0; p < numPhases; ++p)
            std::printf("%s[%llu,%llu]", p ? "," : "",
                        static_cast<unsigned long long>(
                            run.sites[p][s].calls),
                        static_cast<unsigned long long>(
                            run.sites[p][s].ns));
        std::printf("]");
    }
    std::printf("},\"lanes\":{\"quanta\":%llu,\"phase1_ns\":%llu,"
                "\"drain_ns\":%llu,\"phase2_ns\":%llu,"
                "\"phase2_efficiency\":%.17g}}\n",
                static_cast<unsigned long long>(run.lanes.quanta),
                static_cast<unsigned long long>(run.lanes.phase1Ns),
                static_cast<unsigned long long>(run.lanes.drainNs),
                static_cast<unsigned long long>(run.lanes.phase2Ns),
                run.lanes.phase2Efficiency);
    std::fflush(stdout);
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    try {
        opts = parseArgs(std::vector<std::string>(argv + 1, argv + argc));
    } catch (const UsageError &e) {
        std::fprintf(stderr,
                     "perfbench_cells: %s\nusage: perfbench_cells "
                     "--workload=NAME --seed=N --seconds=N --trace=0|1\n",
                     e.what());
        return 2;
    }

    std::vector<CellSpec> cells =
        cellsOf(*findWorkload(opts.workload), opts.seed);
    if (opts.trace)
        for (CellSpec &cell : cells)
            cell.sysTemplate.lanes = tracedLanes;
    using Clock = std::chrono::steady_clock;
    const auto start = Clock::now();
    auto elapsed = [&] {
        return std::chrono::duration<double>(Clock::now() - start)
            .count();
    };

    // Untraced: repeat the cell set while at least half of another
    // repetition fits the budget, so a run lasts about --seconds on
    // average. Traced: repeat (untraced, traced) pairs the same way.
    // Every cell is printed with the host's speed around it: the mean
    // of the probe runs just before and just after it.
    const unsigned group = opts.trace ? 2 : 1;
    const unsigned min_reps = opts.trace ? 2 : minUntracedReps;
    unsigned rep = 0;
    double probe_before = probeHost().seconds;
    for (;;) {
        double group_start = elapsed();
        for (unsigned g = 0; g < group; ++g, ++rep) {
            bool traced = opts.trace && g == 1;
            for (const CellSpec &cell : cells) {
                CellRun run = runCell(cell, traced);
                double probe_after = probeHost().seconds;
                printCell(rep, traced, run,
                          (probe_before + probe_after) / 2);
                probe_before = probe_after;
            }
        }
        double group_s = elapsed() - group_start;
        double limit = rep < min_reps
            ? static_cast<double>(maxSeconds)
            : static_cast<double>(opts.seconds);
        if (elapsed() + group_s / 2 > limit)
            break;
    }

    struct rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    std::printf("{\"peak_rss_kb\":%ld}\n", usage.ru_maxrss);
    return 0;
}
