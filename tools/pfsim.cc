/**
 * @file
 * pfsim: command-line driver for single simulations and parallel
 * experiment campaigns.
 *
 * Single mode runs one (application, configuration) experiment through
 * the same measure() step as campaign cells, with the window pinned to
 * --window-ms, and prints every field of the result plus, optionally,
 * the full hierarchical statistics dump of the machine — the way gem5
 * prints stats.txt:
 *
 *   pfsim --app=silo --mode=pageforge --scale=0.2 --window-ms=200
 *         [--seed=42] [--dump-stats] [--placement=sticky|rr|random|pinned]
 *
 * Campaign mode fans the whole (app x mode x seed) evaluation matrix
 * out across worker threads and prints one summary row per cell:
 *
 *   pfsim --campaign [--jobs=8] [--seeds=3] [--json=FILE]
 *         [--apps=silo,moses] [--modes=baseline,ksm] [--queries=1500]
 *
 * Both modes write the same campaign JSON (one cell in single mode);
 * tools/check_campaign.py asserts on it.
 */

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "prof/profiler.hh"
#include "sim/host.hh"
#include "sim/parse_number.hh"
#include "sim/simd.hh"
#include "stats/table.hh"
#include "system/campaign.hh"
#include "trace/trace_sink.hh"

using namespace pageforge;

namespace
{

struct Options
{
    std::string app = "masstree";
    DedupMode mode = DedupMode::PageForge;
    double windowMs = 200.0;
    bool dumpStats = false;
    bool forceScalar = false;
    std::string jsonPath;

    CampaignSpec spec; //!< experiment and sysTemplate serve both modes

    // ---- observability ----
    bool trace = false;
    std::string tracePath = "trace.json";
    bool profile = false;
    std::string profilePath;            //!< empty = stdout
    std::string traceFilter;            //!< empty = every component
    std::string metricsCsvPath;

    // ---- campaign mode ----
    bool campaign = false;
    bool perfReport = false;
    std::string perfReportPath = "BENCH_simspeed.json";
    double baselineSeconds = 0.0;
};

std::vector<std::string>
splitList(const std::string &csv)
{
    std::vector<std::string> items;
    std::stringstream ss(csv);
    std::string item;
    while (std::getline(ss, item, ','))
        if (!item.empty())
            items.push_back(item);
    return items;
}

[[noreturn]] void
usage(const char *prog)
{
    std::cerr
        << "usage: " << prog << " [options]\n"
        << "  --app=NAME          img_dnn|masstree|moses|silo|sphinx\n"
        << "  --mode=MODE         baseline|ksm|pageforge\n"
        << "  --scale=X           memory-image scale (default 0.2)\n"
        << "  --window-ms=N       measurement window (default 200)\n"
        << "  --settle-ms=N       settling time (default 30)\n"
        << "  --warmup-passes=N   dedup fast-forward passes (default 6)\n"
        << "  --seed=S            experiment seed (default 42)\n"
        << "  --num-mcs=N         memory controllers / channels "
           "(default 1);\n"
        << "                      frames interleave frame %% N, one\n"
        << "                      PageForge module per controller\n"
        << "  --vms=N             fleet size: N VMs on N cores\n"
        << "                      (default: the paper's 10)\n"
        << "  --placement=P       ksmd placement: sticky|rr|random|pinned\n"
        << "  --churn=POLICY      VM churn: none|poisson|burst|rotate\n"
        << "  --churn-rate=X      arrivals and departures per second\n"
        << "  --template-app=A    app profile for churned VMs "
           "(default: --app)\n"
        << "  --dump-stats        print the full component stats dump\n"
        << "  --force-scalar      pin the scalar page-compare kernels\n"
        << "                      (same effect as PF_FORCE_SCALAR=1);\n"
        << "                      results are bit-identical either way\n"
        << "  --json=FILE         write the result as campaign JSON (one\n"
        << "                      cell); see tools/check_campaign.py\n"
        << "  Numbers are unsigned, finite, with no trailing text; counts,\n"
        << "  scales, windows and intervals must be positive.\n"
        << "fault injection:\n"
        << "  --faults=SPEC       enable fault injection; SPEC is k=v\n"
        << "                      pairs: rate (bit flips/GB/s),\n"
        << "                      double, stuck, minikey (fractions),\n"
        << "                      scantable, race (probabilities),\n"
        << "                      mcwedge, brownout (events/s),\n"
        << "                      brownout_ms, brownout_mult,\n"
        << "                      handoff_loss, handoff_corrupt,\n"
        << "                      handoff_spike, spike_mult, seed. e.g.\n"
        << "                      --faults=rate=50,double=0.2,race=0.01\n"
        << "                      --faults=mcwedge=40,handoff_loss=0.05\n"
        << "                      (a merge-oracle violation exits 1)\n"
        << "  --fault-seed=N      fault RNG stream seed (default 0)\n"
        << "  --audit-interval=N  audit every frame mapping every N ms\n"
        << "                      and fail fast on inconsistency\n"
        << "observability:\n"
        << "  --trace[=FILE]      write a Chrome/Perfetto trace of the\n"
        << "                      measured load (default trace.json)\n"
        << "  --trace-filter=C,C  components to trace and log: sim,\n"
        << "                      scan-table, ksm, dram-bw, cache,\n"
        << "                      lifecycle, fault\n"
        << "  --profile[=FILE]    enable the host-time self-profiler:\n"
        << "                      per-component wall-clock histograms\n"
        << "                      (table to stdout or FILE), lane\n"
        << "                      telemetry and host-time lane tracks\n"
        << "  --metrics-interval=T  sample metrics every T ticks (also\n"
        << "                      applies per cell in campaign mode)\n"
        << "  --metrics-csv=FILE  write the sampled series as CSV\n"
        << "campaign mode:\n"
        << "  --campaign          run the (app x mode x seed) matrix\n"
        << "  --jobs=N            worker threads (default: all cores)\n"
        << "  --seeds=K           seeds per cell (default 1)\n"
        << "  --apps=A,B,...      subset of apps (default: all five)\n"
        << "  --modes=M,N,...     subset of modes (default: all three)\n"
        << "  --queries=N         target queries per window (default "
           "1500)\n"
        << "  --perf-report[=F]   write a simulation-speed report "
           "(default BENCH_simspeed.json)\n"
        << "  --baseline-seconds=X  reference wall-clock for the "
           "report's speedup field\n";
    std::exit(1);
}

/** Parse a --mode/--modes name; false if unknown. */
bool
parseMode(const std::string &name, DedupMode &mode)
{
    if (name == "baseline")
        mode = DedupMode::None;
    else if (name == "ksm")
        mode = DedupMode::Ksm;
    else if (name == "pageforge")
        mode = DedupMode::PageForge;
    else
        return false;
    return true;
}

Options
parse(int argc, char **argv)
{
    Options opts;
    ExperimentConfig &exp = opts.spec.experiment;
    SystemConfig &sys = opts.spec.sysTemplate;
    exp.memScale = 0.2;
    exp.targetQueries = 1500;
    bool fault_seed_set = false;
    std::uint64_t fault_seed = 0;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&](const char *prefix) -> const char * {
            std::size_t len = std::strlen(prefix);
            return arg.rfind(prefix, 0) == 0 ? arg.c_str() + len
                                             : nullptr;
        };
        if (const char *v = value("--app=")) {
            opts.app = v;
        } else if (const char *v = value("--mode=")) {
            if (!parseMode(v, opts.mode))
                usage(argv[0]);
        } else if (value("--scale=")) {
            exp.memScale = parseNumber<double>("pfsim", arg, true);
        } else if (value("--window-ms=")) {
            opts.windowMs = parseNumber<double>("pfsim", arg, true);
        } else if (value("--settle-ms=")) {
            exp.settleTime = msToTicks(parseNumber<double>("pfsim", arg));
        } else if (value("--warmup-passes=")) {
            exp.warmupPasses = parseNumber<unsigned>("pfsim", arg);
        } else if (value("--seed=")) {
            exp.seed = parseNumber<std::uint64_t>("pfsim", arg);
        } else if (value("--num-mcs=")) {
            sys.numMcs = parseNumber<unsigned>("pfsim", arg, true);
        } else if (value("--vms=")) {
            sys.numVms = sys.numCores =
                parseNumber<unsigned>("pfsim", arg, true);
        } else if (const char *v = value("--placement=")) {
            std::string p = v;
            if (p == "sticky")
                sys.ksmPlacement = KsmPlacement::Sticky;
            else if (p == "rr")
                sys.ksmPlacement = KsmPlacement::RoundRobin;
            else if (p == "random")
                sys.ksmPlacement = KsmPlacement::Random;
            else if (p == "pinned")
                sys.ksmPlacement = KsmPlacement::Pinned;
            else
                usage(argv[0]);
        } else if (const char *v = value("--churn=")) {
            if (!parseChurnKind(v, exp.churn.kind))
                usage(argv[0]);
        } else if (value("--churn-rate=")) {
            double rate = parseNumber<double>("pfsim", arg);
            exp.churn.arrivalsPerSec = rate;
            exp.churn.departuresPerSec = rate;
        } else if (const char *v = value("--template-app=")) {
            exp.churn.templateApp = v;
        } else if (const char *v = value("--faults=")) {
            try {
                exp.faults = FaultConfig::parse(v);
            } catch (const std::invalid_argument &err) {
                std::cerr << "pfsim: bad --faults spec: " << err.what()
                          << "\n";
                usage(argv[0]);
            }
        } else if (value("--fault-seed=")) {
            fault_seed = parseNumber<std::uint64_t>("pfsim", arg);
            fault_seed_set = true;
        } else if (value("--audit-interval=")) {
            exp.auditInterval =
                msToTicks(parseNumber<double>("pfsim", arg, true));
        } else if (arg == "--dump-stats") {
            opts.dumpStats = true;
        } else if (arg == "--force-scalar") {
            opts.forceScalar = true;
        } else if (arg == "--trace") {
            opts.trace = true;
        } else if (const char *v = value("--trace=")) {
            opts.trace = true;
            opts.tracePath = v;
        } else if (arg == "--profile") {
            opts.profile = true;
        } else if (const char *v = value("--profile=")) {
            opts.profile = true;
            opts.profilePath = v;
        } else if (const char *v = value("--trace-filter=")) {
            opts.traceFilter = v;
        } else if (value("--metrics-interval=")) {
            exp.metricsInterval = parseNumber<std::uint64_t>("pfsim", arg);
        } else if (const char *v = value("--metrics-csv=")) {
            opts.metricsCsvPath = v;
        } else if (arg == "--campaign") {
            opts.campaign = true;
        } else if (value("--jobs=")) {
            opts.spec.jobs = parseNumber<unsigned>("pfsim", arg);
        } else if (value("--seeds=")) {
            opts.spec.numSeeds = parseNumber<unsigned>("pfsim", arg, true);
        } else if (const char *v = value("--json=")) {
            opts.jsonPath = v;
        } else if (const char *v = value("--apps=")) {
            opts.spec.apps = splitList(v);
        } else if (const char *v = value("--modes=")) {
            for (const std::string &m : splitList(v))
                if (!parseMode(m, opts.spec.modes.emplace_back()))
                    usage(argv[0]);
        } else if (value("--queries=")) {
            exp.targetQueries = parseNumber<std::uint64_t>("pfsim", arg, true);
        } else if (arg == "--perf-report") {
            opts.perfReport = true;
        } else if (const char *v = value("--perf-report=")) {
            opts.perfReport = true;
            opts.perfReportPath = v;
        } else if (value("--baseline-seconds=")) {
            opts.baselineSeconds = parseNumber<double>("pfsim", arg);
        } else {
            usage(argv[0]);
        }
    }
    // --fault-seed wins regardless of its position relative to
    // --faults (whose parse() resets the whole struct).
    if (fault_seed_set)
        exp.faults.seed = fault_seed;
    return opts;
}

/** Open @p path and hand the stream to @p write; 0 on success. */
template <class F>
int
writeFile(const std::string &path, F &&write)
{
    std::ofstream os(path);
    if (!os) {
        std::cerr << "cannot open " << path << " for writing\n";
        return 1;
    }
    write(os);
    std::cerr << "wrote " << path << "\n";
    return 0;
}

/** Print (or write) the self-profiler's host-time table. */
int
writeProfileOutput(const Options &opts)
{
    if (!opts.profile)
        return 0;
    if (!opts.profilePath.empty())
        return writeFile(opts.profilePath, prof::writeTable);
    std::cout << "\n---- host-time profile ----\n";
    prof::writeTable(std::cout);
    return 0;
}

/** Table text of the result field at @p path, or "-" if absent. */
std::string
fieldText(const ExperimentResult &r, const std::string &path)
{
    for (const ResultField &field : resultFields(r))
        if (field.path == path)
            return field.text();
    return "-";
}

/** Run the evaluation matrix in parallel and print a summary table. */
int
runCampaignMode(const Options &opts)
{
    // Event tracing is single-simulation only (the runner drops any
    // sink); per-cell metrics sampling composes fine with workers.
    CampaignSpec spec = opts.spec;
    if (opts.trace)
        std::cerr << "pfsim: --trace is ignored in campaign mode "
                     "(per-cell metrics still recorded)\n";
    spec.progress = [](const CellOutcome &outcome, std::size_t done,
                       std::size_t total) {
        std::fprintf(stderr, "[%zu/%zu] %s / %s (seed %llu): %s\n",
                     done, total, outcome.cell.app.c_str(),
                     dedupModeName(outcome.cell.mode),
                     static_cast<unsigned long long>(outcome.cell.seed),
                     outcome.ok ? "ok" : outcome.error.c_str());
    };

    CampaignReport report = runCampaign(spec);

    // Headline result fields, by schema key.
    std::vector<std::string> header = {"Application", "Mode", "Seed",
                                       "Status", "mean_sojourn_ms",
                                       "p95_sojourn_ms", "merges",
                                       "dup.frames_used"};
    TablePrinter table("pfsim campaign: " +
                       std::to_string(report.cells.size()) +
                       " cells, " + std::to_string(report.jobs) +
                       " jobs, " +
                       TablePrinter::fmt(report.wallSeconds, 1) + " s");
    table.setHeader(header);
    for (const CellOutcome &outcome : report.cells) {
        std::vector<std::string> row = {
            outcome.cell.app, dedupModeName(outcome.cell.mode),
            std::to_string(outcome.cell.seed),
            outcome.ok ? "ok" : "FAILED"};
        for (std::size_t c = row.size(); c < header.size(); ++c)
            row.push_back(outcome.ok ? fieldText(outcome.result, header[c])
                                     : "-");
        table.addRow(row);
    }
    table.print(std::cout);

    if (std::size_t failed = report.failures()) {
        std::cout << "\n" << failed << " cell(s) failed:\n";
        for (const CellOutcome &outcome : report.cells)
            if (!outcome.ok)
                std::cout << "  " << outcome.cell.app << " / "
                          << dedupModeName(outcome.cell.mode)
                          << " (seed " << outcome.cell.seed
                          << "): " << outcome.error << "\n";
    }

    int rc = 0;
    if (!opts.jsonPath.empty())
        rc |= writeFile(opts.jsonPath, [&](std::ostream &os) {
            writeCampaignJson(report, os);
        });
    if (opts.perfReport)
        rc |= writeFile(opts.perfReportPath, [&](std::ostream &os) {
            writePerfReport(report, os, opts.baselineSeconds);
        });
    rc |= writeProfileOutput(opts);
    return rc || report.failures() ? 1 : 0;
}

/** Run one experiment with a fixed window and print every field. */
int
runSingleMode(const Options &opts, std::uint32_t component_mask)
{
    std::ofstream trace_os;
    std::unique_ptr<TraceSink> sink;
    if (opts.trace) {
        trace_os.open(opts.tracePath);
        if (!trace_os) {
            std::cerr << "cannot open " << opts.tracePath
                      << " for writing\n";
            return 1;
        }
        sink = std::make_unique<TraceSink>(trace_os, component_mask);
    }

    ExperimentConfig cfg = opts.spec.experiment;
    cfg.minMeasure = cfg.maxMeasure = msToTicks(opts.windowMs);
    cfg.traceSink = sink.get();
    if (!opts.metricsCsvPath.empty() && cfg.metricsInterval == 0 &&
        !sink) {
        std::cerr << "pfsim: --metrics-csv needs --metrics-interval "
                     "or --trace\n";
        return 1;
    }

    const AppProfile &app = appByName(opts.app);
    SystemConfig machine =
        machineConfig(opts.mode, cfg, opts.spec.sysTemplate);
    try {
        cfg.validate(app);
        machine.validate();
    } catch (const ConfigError &err) {
        std::cerr << "pfsim: bad configuration: " << err.what() << "\n";
        return 1;
    }
    System system(machine, app);
    ExperimentResult result = measure(system, cfg);

    TablePrinter table("pfsim: " + opts.app + " / " +
                       dedupModeName(opts.mode));
    table.setHeader({"Field", "Value", "Unit"});
    for (const ResultField &field : resultFields(result))
        if (!field.path.empty())
            table.addRow({field.path, field.text(), field.unit});
    table.print(std::cout);

    // --json: the result as a one-cell campaign report.
    CellOutcome cell{{opts.app, opts.mode, cfg.seed}, true, "", result,
                     "", 0, hostPeakRssKb()};
    CampaignReport report{{cell}, result.hostSeconds, 1, machine.numMcs};
    if (!opts.jsonPath.empty() &&
        writeFile(opts.jsonPath, [&](std::ostream &os) {
            writeCampaignJson(report, os);
        }))
        return 1;

    if (opts.dumpStats) {
        std::cout << "\n---- component statistics ----\n";
        system.memory().stats().dump(std::cout);
        for (unsigned m = 0; m < system.numMcs(); ++m)
            system.memController(m).stats().dump(std::cout);
        system.hierarchy().stats().dump(std::cout);
        system.hierarchy().l3().stats().dump(std::cout);
        system.hierarchy().bus().stats().dump(std::cout);
        system.hypervisor().stats().dump(std::cout);
        for (unsigned c = 0; c < system.numCores(); ++c)
            system.core(c).stats().dump(std::cout);
        for (unsigned m = 0; m < system.numMcs(); ++m)
            if (system.pfModule(m))
                system.pfModule(m)->stats().dump(std::cout);
    }

    if (sink) {
        sink->finish();
        std::cerr << "wrote " << opts.tracePath << " ("
                  << sink->totalEvents() << " events)\n";
    }
    if (!opts.metricsCsvPath.empty() && system.metrics() &&
        writeFile(opts.metricsCsvPath, [&](std::ostream &os) {
            system.metrics()->series().writeCsv(os);
        }))
        return 1;
    if (int rc = writeProfileOutput(opts))
        return rc;
    if (std::uint64_t violations = result.faults.oracleViolations) {
        std::cerr << "pfsim: MERGE ORACLE VIOLATION: " << violations
                  << " merge(s) of differing pages\n";
        return 1;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts = parse(argc, argv);

    if (opts.forceScalar)
        simd::setLevel(simd::Level::Scalar);
    // Arm the profiler before any system exists so construction-time
    // wiring (host-lane tracks, executor telemetry) sees it enabled.
    if (opts.profile)
        prof::setEnabled(true);

    std::uint32_t component_mask = allComponentsMask;
    if (!opts.traceFilter.empty()) {
        try {
            component_mask = parseComponentList(opts.traceFilter);
        } catch (const std::invalid_argument &err) {
            std::cerr << "pfsim: " << err.what() << "\n";
            return 1;
        }
        // One vocabulary: the filter narrows tagged log output too.
        setLogComponentMask(component_mask);
    }

    if (opts.campaign)
        return runCampaignMode(opts);
    return runSingleMode(opts, component_mask);
}
