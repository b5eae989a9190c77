/**
 * @file
 * Fixed-work benchmark cells: each workload is a fixed set of
 * (application, mode, configuration) cells, and each cell is driven
 * through System's public phases exactly as runExperiment() drives it,
 * with a host-time span around every phase.
 *
 * Nothing here reaches inside src/: the phase spans are taken from
 * outside the calls, the work counters are read through the
 * components' public accessors, and the traced run only switches on
 * the simulator's existing host profiler and reads the lane
 * scheduler's existing telemetry.
 */

#ifndef PERFBENCH_CELL_DRIVER_HH
#define PERFBENCH_CELL_DRIVER_HH

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "prof/profiler.hh"
#include "system/experiment.hh"

namespace perfbench
{

/** A named, fixed set of cells. */
struct Workload
{
    std::string name;
    std::vector<std::string> apps;
    pageforge::DedupMode mode = pageforge::DedupMode::None;
    double memScale = 0.08;
    unsigned numMcs = 1;
    pageforge::ChurnKind churn = pageforge::ChurnKind::None;
};

/** Every workload, in the order the benchmark documents them. */
const std::vector<Workload> &workloads();

/** @return the workload called @p name, or nullptr. */
const Workload *findWorkload(std::string_view name);

/** The arguments runExperiment() would take for one cell. */
struct CellSpec
{
    pageforge::AppProfile app;
    pageforge::DedupMode mode = pageforge::DedupMode::None;
    pageforge::ExperimentConfig experiment;
    pageforge::SystemConfig sysTemplate;
};

/** The cells of @p workload for input seed @p seed. */
std::vector<CellSpec> cellsOf(const Workload &workload,
                              std::uint64_t seed);

/**
 * The machine configuration runExperiment() builds from its arguments,
 * including its L2/L3 scaling to the memory-image scale.
 */
pageforge::SystemConfig systemConfigOf(const CellSpec &cell);

/** Timed phases of a cell, in call order. */
enum class Phase : unsigned {
    Construct, ///< System(cfg, app)
    Deploy,    ///< System::deploy
    AnalyzeDup,///< Hypervisor::analyzeDuplication (three calls)
    Warmup,    ///< System::warmupDedup (dedup modes only)
    Settle,    ///< System::startLoad + run(settle)
    Window,    ///< run(window)
};

constexpr unsigned numPhases = 6;

/** Metric name of a phase span, e.g. "system.deploy_s". */
const char *phaseMetric(Phase phase);

/**
 * A cell's simulated results. Deterministic for a given seed, so two
 * runs of the same cell must agree on every field regardless of host
 * timing or tracing.
 */
struct Digest
{
    std::uint64_t framesUsed = 0;
    std::uint64_t mappedPages = 0;
    std::uint64_t framesIfFullyMerged = 0;
    std::uint64_t merges = 0;     //!< over the window
    std::uint64_t cowBreaks = 0;  //!< over the window
    std::uint64_t queries = 0;
    double meanSojournMs = 0.0;
    double p95SojournMs = 0.0;
    double l3MissRate = 0.0;
    double l3AppMissRate = 0.0;
    std::uint64_t dramReads = 0;  //!< over the window, all channels
    std::uint64_t dramWrites = 0; //!< over the window, all channels
    std::uint64_t simEvents = 0;  //!< over the whole cell
    std::uint64_t pagesScanned = 0;
    std::uint64_t clones = 0;
    std::uint64_t shutdowns = 0;

    /** One line of key=value pairs, doubles printed round-trip. */
    std::string str() const;
};

/**
 * Per-layer work counters of one cell beyond those in its Digest.
 * They cover the measurement window (after the settle), like the
 * paper's statistics.
 */
struct Counters
{
    std::uint64_t windowEvents = 0;
    std::uint64_t l1Accesses = 0;
    std::uint64_t l3Accesses = 0;
    std::uint64_t l3AppAccesses = 0;
    std::uint64_t l3AppMisses = 0;
    std::uint64_t rowHits = 0;
    std::uint64_t rowMisses = 0;
    std::uint64_t eccEncodes = 0;
    std::uint64_t framesSaved = 0;  //!< mapped pages - frames, at end
    std::uint64_t ksmPagesScanned = 0;
    std::uint64_t ksmMerges = 0;
    std::uint64_t jhashFalseMatches = 0;
    std::uint64_t jhashComparisons = 0;
    std::uint64_t corePagesScanned = 0;
    std::uint64_t coreMerges = 0;
    std::uint64_t coreBatches = 0;
    std::uint64_t coreRefills = 0;
    std::uint64_t coreOsChecks = 0;
    std::uint64_t eccFalseMatches = 0;
    std::uint64_t eccComparisons = 0;
    std::uint64_t handoffs = 0;
    std::uint64_t framesFreed = 0;
};

/** Host-profiler totals of one site. */
struct SiteTotal
{
    std::uint64_t calls = 0;
    std::uint64_t ns = 0;
};

/** Lane-executor telemetry of one cell (multi-MC traced cells only). */
struct LaneTotals
{
    std::uint64_t quanta = 0;
    std::uint64_t phase1Ns = 0;
    std::uint64_t drainNs = 0;
    std::uint64_t phase2Ns = 0;
    double phase2Efficiency = 0.0;
};

/** Everything one driven cell produced. */
struct CellRun
{
    std::string app;
    bool ok = false;
    std::string error; //!< exception text or failed output check

    /**
     * Host seconds of the cell: construction through the last result
     * read, plus the System's destruction. The output checks that run
     * in between are the benchmark's own work and are excluded.
     */
    double wallS = 0.0;
    std::array<double, numPhases> phaseS{}; //!< span per phase

    Digest digest;
    Counters counters;

    /** Profiler totals per site, per phase (traced runs only). */
    std::array<std::array<SiteTotal, pageforge::prof::numSites>,
               numPhases>
        sites{};
    LaneTotals lanes;
};

/**
 * Drive one cell through System's phases. A traced cell runs with the
 * host profiler on and snapshots it after every phase. Exceptions and
 * failed output checks are reported in the result, never thrown.
 */
CellRun runCell(const CellSpec &cell, bool traced);

} // namespace perfbench

#endif // PERFBENCH_CELL_DRIVER_HH
