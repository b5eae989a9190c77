#include "cell_driver.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <memory>

#include "shard/cross_mc_router.hh"

namespace perfbench
{

using namespace pageforge;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

/** DRAM and MC counters summed over every channel. */
struct ChannelTotals
{
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t rowHits = 0;
    std::uint64_t rowMisses = 0;
    std::uint64_t eccEncodes = 0;
};

ChannelTotals
channelTotals(System &system)
{
    ChannelTotals t;
    for (unsigned m = 0; m < system.numMcs(); ++m) {
        MemController &mc = system.memController(m);
        t.reads += mc.dram().reads();
        t.writes += mc.dram().writes();
        t.rowHits += mc.dram().rowHits();
        t.rowMisses += mc.dram().rowMisses();
        t.eccEncodes += mc.eccEncodes();
    }
    return t;
}

using SiteArray = std::array<SiteTotal, prof::numSites>;

SiteArray
profilerTotals()
{
    SiteArray totals{};
    for (const prof::SiteStats &s : prof::snapshot())
        totals[static_cast<unsigned>(s.site)] = {s.count, s.totalNs};
    return totals;
}

/**
 * Host-time spans around the phases of one cell. A traced cell also
 * charges the profiler sites recorded during a phase to that phase.
 */
class PhaseClock
{
  public:
    PhaseClock(CellRun &run, bool traced)
        : _run(run), _traced(traced)
    {
    }

    template <typename Fn>
    auto
    time(Phase phase, Fn &&fn)
    {
        struct Stop
        {
            PhaseClock &clock;
            Phase phase;
            Clock::time_point start;
            ~Stop() { clock.charge(phase, start); }
        } stop{*this, phase, Clock::now()};
        return fn();
    }

  private:
    void
    charge(Phase phase, Clock::time_point start)
    {
        auto idx = static_cast<unsigned>(phase);
        _run.phaseS[idx] += secondsBetween(start, Clock::now());
        if (!_traced)
            return;
        SiteArray now = profilerTotals();
        for (unsigned s = 0; s < prof::numSites; ++s) {
            _run.sites[idx][s].calls += now[s].calls - _last[s].calls;
            _run.sites[idx][s].ns += now[s].ns - _last[s].ns;
        }
        _last = now;
    }

    CellRun &_run;
    bool _traced;
    SiteArray _last{};
};

/** Read the results and work counters at the end of the window. */
void
collect(System &system, const ChannelTotals &ch0,
        std::uint64_t merges0, std::uint64_t cow0,
        std::uint64_t handoffs0, const DupAnalysis &dup, CellRun &run)
{
    Digest &d = run.digest;
    Counters &c = run.counters;
    Hierarchy &hier = system.hierarchy();
    Hypervisor &hyper = system.hypervisor();

    d.framesUsed = dup.framesUsed;
    d.mappedPages = dup.mappedPages;
    d.framesIfFullyMerged = dup.framesIfFullyMerged;
    d.merges = hyper.merges() - merges0;
    d.cowBreaks = hyper.cowBreaks() - cow0;
    d.queries = system.latency().queries();
    d.meanSojournMs = ticksToMs(
        static_cast<Tick>(system.latency().geoMeanOfMeans()));
    d.p95SojournMs = ticksToMs(
        static_cast<Tick>(system.latency().geoMeanOfP95s()));
    d.l3MissRate = hier.l3MissRate();

    c.l3AppAccesses = hier.l3Accesses(Requester::App);
    c.l3AppMisses = hier.l3Misses(Requester::App);
    d.l3AppMissRate = c.l3AppAccesses
        ? static_cast<double>(c.l3AppMisses) /
            static_cast<double>(c.l3AppAccesses)
        : 0.0;
    for (unsigned r = 0; r < numRequesters; ++r)
        c.l3Accesses += hier.l3Accesses(static_cast<Requester>(r));
    for (unsigned core = 0; core < system.numCores(); ++core)
        c.l1Accesses += hier.l1(core).hits() + hier.l1(core).misses();

    ChannelTotals ch = channelTotals(system);
    d.dramReads = ch.reads - ch0.reads;
    d.dramWrites = ch.writes - ch0.writes;
    c.rowHits = ch.rowHits - ch0.rowHits;
    c.rowMisses = ch.rowMisses - ch0.rowMisses;
    c.eccEncodes = ch.eccEncodes - ch0.eccEncodes;

    c.framesSaved = dup.mappedPages - std::min(dup.mappedPages,
                                               dup.framesUsed);

    if (Ksmd *ksmd = system.ksmd()) {
        const MergeStats &ms = ksmd->mergeStats();
        d.pagesScanned = c.ksmPagesScanned = ms.pagesScanned;
        c.ksmMerges = ms.merges();
        c.jhashFalseMatches = ksmd->hashStats().jhashFalseMatches;
        c.jhashComparisons = ksmd->hashStats().comparisons();
    }
    if (PageForgeDriver *driver = system.pfDriver()) {
        const MergeStats &ms = driver->mergeStats();
        d.pagesScanned = c.corePagesScanned = ms.pagesScanned;
        c.coreMerges = ms.merges();
        c.coreRefills = driver->refills();
        c.coreOsChecks = driver->osChecks();
        c.eccFalseMatches = driver->hashStats().eccFalseMatches;
        c.eccComparisons = driver->hashStats().comparisons();
        for (unsigned m = 0; m < system.numMcs(); ++m)
            if (PageForgeModule *module = system.pfModule(m))
                c.coreBatches += module->batchesProcessed();
    }
    if (CrossMcRouter *router = system.crossMcRouter())
        c.handoffs = router->totalHandoffs() - handoffs0;
    if (LifecycleManager *lc = system.lifecycle()) {
        d.clones = lc->stats().clones;
        d.shutdowns = lc->stats().shutdowns;
        c.framesFreed = lc->stats().framesFreed;
    }
    d.simEvents = system.eventsDispatched();

    if (const LaneScheduler *sched = system.laneScheduler()) {
        const ExecTelemetry &tel = sched->telemetry();
        run.lanes.quanta = tel.quanta;
        run.lanes.phase1Ns = tel.phase1Ns;
        run.lanes.drainNs = tel.drainNs;
        run.lanes.phase2Ns = tel.phase2Ns;
        run.lanes.phase2Efficiency =
            tel.quanta ? tel.phase2Efficiency() : 0.0;
    }
}

/** The output checks; @return the first violation, or empty. */
std::string
checkOutputs(System &system, const Digest &d)
{
    FrameAuditReport audit = system.hypervisor().auditFrames();
    if (!audit.ok)
        return "frame audit failed: " + audit.problem;
    if (d.framesUsed < d.framesIfFullyMerged)
        return "frames used (" + std::to_string(d.framesUsed) +
            ") below the ideal-dedup bound (" +
            std::to_string(d.framesIfFullyMerged) + ")";
    if (d.queries == 0)
        return "no queries completed in the window";
    return {};
}

} // namespace

const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> all = [] {
        const std::vector<std::string> five = {
            "img_dnn", "masstree", "moses", "silo", "sphinx"};
        return std::vector<Workload>{
            {"baseline", five, DedupMode::None},
            {"ksm", five, DedupMode::Ksm},
            {"pageforge", five, DedupMode::PageForge},
            // Sphinx is left out: one 4-MC sphinx cell alone takes
            // longer than the other four together.
            {"pageforge-4mc-churn",
             {"img_dnn", "masstree", "moses", "silo"},
             DedupMode::PageForge, 0.25, 4, ChurnKind::Poisson},
        };
    }();
    return all;
}

const Workload *
findWorkload(std::string_view name)
{
    for (const Workload &w : workloads())
        if (w.name == name)
            return &w;
    return nullptr;
}

std::vector<CellSpec>
cellsOf(const Workload &workload, std::uint64_t seed)
{
    std::vector<CellSpec> cells;
    for (const std::string &app : workload.apps) {
        CellSpec cell;
        cell.app = appByName(app);
        cell.mode = workload.mode;
        cell.experiment.memScale = workload.memScale;
        cell.experiment.targetQueries = 400;
        cell.experiment.seed = seed;
        cell.experiment.churn.kind = workload.churn;
        cell.sysTemplate.numMcs = workload.numMcs;
        cells.push_back(cell);
    }
    return cells;
}

SystemConfig
systemConfigOf(const CellSpec &cell)
{
    const ExperimentConfig &cfg = cell.experiment;
    SystemConfig sys = cell.sysTemplate;
    sys.mode = cell.mode;
    sys.memScale = cfg.memScale;
    sys.seed = cfg.seed;
    sys.churn = cfg.churn;
    sys.lifecycle = cfg.lifecycle;
    sys.traceSink = cfg.traceSink;
    sys.metricsInterval = cfg.metricsInterval;
    sys.faults = cfg.faults;
    sys.auditInterval = cfg.auditInterval;

    SystemConfig defaults;
    if (cfg.scaleCaches && cfg.memScale < 1.0 &&
        sys.l3.sizeBytes == defaults.l3.sizeBytes &&
        sys.l2.sizeBytes == defaults.l2.sizeBytes) {
        auto scaled = [](std::uint32_t base, double factor,
                         std::uint32_t floor_bytes) {
            auto bytes = static_cast<std::uint32_t>(base * factor);
            return std::max(bytes, floor_bytes);
        };
        sys.l2.sizeBytes =
            scaled(defaults.l2.sizeBytes, cfg.memScale * 2.0, 64 * 1024);
        sys.l3.sizeBytes =
            scaled(defaults.l3.sizeBytes, cfg.memScale / 2.0, 1024 * 1024);
    }
    return sys;
}

const char *
phaseMetric(Phase phase)
{
    switch (phase) {
      case Phase::Construct: return "system.construct_s";
      case Phase::Deploy: return "system.deploy_s";
      case Phase::AnalyzeDup: return "hyper.analyze_dup_s";
      case Phase::Warmup: return "system.warmup_s";
      case Phase::Settle: return "system.settle_s";
      case Phase::Window: return "system.window_s";
    }
    return "?";
}

std::string
Digest::str() const
{
    char buf[640];
    std::snprintf(
        buf, sizeof(buf),
        "frames_used=%llu mapped_pages=%llu frames_ideal=%llu "
        "merges=%llu cow_breaks=%llu queries=%llu mean_ms=%.17g "
        "p95_ms=%.17g l3_miss=%.17g l3_app_miss=%.17g dram_reads=%llu "
        "dram_writes=%llu events=%llu pages_scanned=%llu clones=%llu "
        "shutdowns=%llu",
        static_cast<unsigned long long>(framesUsed),
        static_cast<unsigned long long>(mappedPages),
        static_cast<unsigned long long>(framesIfFullyMerged),
        static_cast<unsigned long long>(merges),
        static_cast<unsigned long long>(cowBreaks),
        static_cast<unsigned long long>(queries), meanSojournMs,
        p95SojournMs, l3MissRate, l3AppMissRate,
        static_cast<unsigned long long>(dramReads),
        static_cast<unsigned long long>(dramWrites),
        static_cast<unsigned long long>(simEvents),
        static_cast<unsigned long long>(pagesScanned),
        static_cast<unsigned long long>(clones),
        static_cast<unsigned long long>(shutdowns));
    return buf;
}

CellRun
runCell(const CellSpec &cell, bool traced)
{
    CellRun run;
    run.app = cell.app.name;
    if (traced) {
        prof::reset();
        prof::setEnabled(true);
    }
    PhaseClock clock(run, traced);
    Clock::time_point start = Clock::now();
    Clock::time_point checks_start = start;
    Clock::time_point checks_end = start;
    try {
        const ExperimentConfig &cfg = cell.experiment;
        cfg.validate(cell.app);
        SystemConfig sys_cfg = systemConfigOf(cell);

        auto system = clock.time(Phase::Construct, [&] {
            return std::make_unique<System>(sys_cfg, cell.app);
        });
        clock.time(Phase::Deploy, [&] { system->deploy(); });
        Hypervisor &hyper = system->hypervisor();
        auto analyze = [&] {
            return clock.time(Phase::AnalyzeDup,
                              [&] { return hyper.analyzeDuplication(); });
        };
        analyze();
        if (cell.mode != DedupMode::None)
            clock.time(Phase::Warmup,
                       [&] { system->warmupDedup(cfg.warmupPasses); });
        analyze();
        clock.time(Phase::Settle, [&] {
            system->startLoad();
            system->run(cfg.settleTime);
        });

        system->resetMeasurement();
        std::uint64_t merges0 = hyper.merges();
        std::uint64_t cow0 = hyper.cowBreaks();
        std::uint64_t events0 = system->eventsDispatched();
        std::uint64_t handoffs0 = system->crossMcRouter()
            ? system->crossMcRouter()->totalHandoffs()
            : 0;
        ChannelTotals ch0 = channelTotals(*system);
        Tick window = cfg.measureWindow(system->profile(), sys_cfg.numVms);
        clock.time(Phase::Window, [&] {
            if (system->lifecycle()) {
                // runExperiment samples the fleet eight times across
                // a churn window; the same run() slicing keeps the
                // cell identical to it.
                constexpr unsigned slices = 8;
                for (unsigned s = 0; s < slices; ++s)
                    system->run(window / slices);
                system->run(window - (window / slices) * slices);
            } else {
                system->run(window);
            }
        });
        std::uint64_t window_events =
            system->eventsDispatched() - events0;
        DupAnalysis dup = analyze();
        collect(*system, ch0, merges0, cow0, handoffs0, dup, run);
        run.counters.windowEvents = window_events;

        checks_start = Clock::now();
        run.error = checkOutputs(*system, run.digest);
        run.ok = run.error.empty();
        checks_end = Clock::now();
        system.reset();
    } catch (const std::exception &e) {
        run.ok = false;
        run.error = std::string("exception: ") + e.what();
    }
    if (traced)
        prof::setEnabled(false);
    run.wallS = secondsBetween(start, Clock::now()) -
        secondsBetween(checks_start, checks_end);
    return run;
}

} // namespace perfbench
