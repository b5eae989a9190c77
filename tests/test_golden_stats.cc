/**
 * @file
 * Golden-statistics regression test: the determinism contract behind
 * the hot-path optimizations.
 *
 * Every performance change to the event kernel, memory arena, caches
 * or tree search must keep simulated statistics bit-identical for a
 * given seed. Two layers enforce that here:
 *
 *  1. Run the same cell twice and require field-exact equality
 *     (identicalResults: doubles compared bit-wise) — catches any
 *     nondeterminism within one build.
 *
 *  2. Pin a handful of integer statistics to golden literals —
 *     catches changes that are deterministic but silently alter
 *     simulated behaviour (the failure mode "it still converges, the
 *     numbers just moved"). If one of these fails after an
 *     intentional model change, re-record the literals in the same
 *     commit and say why; if it fails after a performance-only
 *     change, the change is wrong.
 */

#include <gtest/gtest.h>

#include "cache/hierarchy.hh"
#include "sim/rng.hh"
#include "system/campaign.hh"
#include "system/config.hh"
#include "system/experiment.hh"

namespace pageforge
{
namespace
{

/** Small fixed cell: full pipeline, sub-second runtime. */
ExperimentResult
runGoldenCell(DedupMode mode)
{
    ExperimentConfig cfg;
    cfg.memScale = 0.03;
    cfg.warmupPasses = 2;
    cfg.settleTime = msToTicks(2);
    cfg.targetQueries = 50;
    cfg.minMeasure = msToTicks(10);
    cfg.maxMeasure = msToTicks(20);
    cfg.seed = 42;

    SystemConfig sys;
    sys.numCores = 2;
    sys.numVms = 2;
    sys.l1 = CacheConfig{"l1", 4 * 1024, 2, 2, 4};
    sys.l2 = CacheConfig{"l2", 16 * 1024, 4, 6, 8};
    sys.l3 = CacheConfig{"l3", 128 * 1024, 16, 20, 16};

    return runExperiment(appByName("silo"), mode, cfg, sys);
}

TEST(GoldenStats, SameSeedIsBitIdentical)
{
    for (DedupMode mode :
         {DedupMode::None, DedupMode::Ksm, DedupMode::PageForge}) {
        ExperimentResult first = runGoldenCell(mode);
        ExperimentResult second = runGoldenCell(mode);
        EXPECT_TRUE(identicalResults(first, second))
            << "mode " << dedupModeName(mode);
    }
}

TEST(GoldenStats, KsmCellMatchesGoldenSnapshot)
{
    ExperimentResult r = runGoldenCell(DedupMode::Ksm);
    EXPECT_EQ(r.queries, 45u);
    EXPECT_EQ(r.merges, 0u);
    EXPECT_EQ(r.cowBreaks, 16u);
    EXPECT_EQ(r.dup.framesUsed, 153u);
    EXPECT_EQ(r.dupWarm.framesUsed, 136u);
    EXPECT_EQ(r.hashStats.jhashMatches, 33u);
    EXPECT_EQ(r.simEvents, 129u);
    EXPECT_EQ(r.pagesScanned, 167u);
}

TEST(GoldenStats, PageForgeCellMatchesGoldenSnapshot)
{
    ExperimentResult r = runGoldenCell(DedupMode::PageForge);
    EXPECT_EQ(r.queries, 56u);
    EXPECT_EQ(r.merges, 0u);
    EXPECT_EQ(r.cowBreaks, 22u);
    EXPECT_EQ(r.dup.framesUsed, 151u);
    EXPECT_EQ(r.pfRefills, 724u);
    EXPECT_EQ(r.pfPagesScanned, 447u);
    EXPECT_EQ(r.simEvents, 3086u);
    EXPECT_EQ(r.pagesScanned, 447u);
}

/** Hierarchy counters pinned by the cache-hierarchy snapshots. */
struct HierarchyCounts
{
    std::uint64_t l1Hits = 0;
    std::uint64_t l1Misses = 0;
    std::uint64_t l2Hits = 0;
    std::uint64_t l2Misses = 0;
    std::uint64_t l3Hits = 0;
    std::uint64_t l3Misses = 0;
    std::uint64_t upgrades = 0;
    std::uint64_t c2cTransfers = 0;
    std::uint64_t writebacksToMem = 0;
    double l3MissRate = 0.0;
};

/**
 * Drive a fixed random access stream through a hierarchy at the
 * Table 2 geometry (32 KB L1, 256 KB L2, 32 MB 20-way L3) and read
 * back its counters. The stream mixes a private hot set per core (L1
 * and L2 hits), a small shared region read and written by every core
 * (upgrades, cache-to-cache transfers) and a conflict region whose
 * lines all map to a few L3 sets (L3 misses, evictions and dirty
 * writebacks), plus memory-controller snoops. Each access's latency
 * feeds the next issue tick, so a latency change can move the
 * counters too (through MSHR coalescing).
 */
HierarchyCounts
runHierarchyStream(unsigned cores)
{
    const SystemConfig table2;
    const std::uint64_t l3_sets = table2.l3.numSets();
    constexpr std::uint64_t privateLines = 1024; // 64 KB per core
    constexpr std::uint64_t sharedLines = 256;
    constexpr std::uint64_t conflictSets = 32;
    constexpr std::uint64_t conflictDepth = 64; // > 20 ways per set

    // Private regions first, then the shared one; conflict line k of
    // set s is conflict_base + s + k * l3_sets.
    const std::uint64_t shared_base = cores * privateLines;
    const std::uint64_t conflict_base =
        (shared_base + sharedLines + l3_sets - 1) / l3_sets * l3_sets;
    const std::uint64_t total_lines =
        conflict_base + conflictDepth * l3_sets;

    EventQueue eq;
    PhysicalMemory mem(total_lines / linesPerPage + 1);
    MemController mc("mc0", eq, mem, DramConfig{});
    Hierarchy hier("chip", eq, cores, table2.l1, table2.l2, table2.l3,
                   table2.bus, mc);

    Rng rng(2017);
    Tick now = 0;
    for (int op = 0; op < 200'000; ++op) {
        CoreId core = static_cast<CoreId>(rng.nextBounded(cores));
        std::uint64_t region = rng.nextBounded(100);
        std::uint64_t line;
        Requester req = Requester::App;
        if (region < 55) {
            line = core * privateLines + rng.nextBounded(privateLines);
        } else if (region < 75) {
            line = shared_base + rng.nextBounded(sharedLines);
        } else {
            line = conflict_base + rng.nextBounded(conflictSets) +
                rng.nextBounded(conflictDepth) * l3_sets;
            if (region >= 95)
                req = Requester::Ksm;
        }
        Addr addr = line * lineSize;
        if (rng.chance(0.02)) {
            now = std::max(now, hier.snoopForMc(addr, now).done);
            continue;
        }
        bool write = rng.chance(0.25);
        AccessResult r = hier.access(core, addr, write, now, req);
        now += 1 + r.latency / 4;
    }

    HierarchyCounts c;
    for (unsigned core = 0; core < cores; ++core) {
        c.l1Hits += hier.l1(core).hits();
        c.l1Misses += hier.l1(core).misses();
        c.l2Hits += hier.l2(core).hits();
        c.l2Misses += hier.l2(core).misses();
    }
    c.l3Hits = hier.l3().hits();
    c.l3Misses = hier.l3().misses();
    const StatGroup &stats = hier.stats();
    c.upgrades = static_cast<std::uint64_t>(stats.value("upgrades"));
    c.c2cTransfers =
        static_cast<std::uint64_t>(stats.value("c2c_transfers"));
    c.writebacksToMem =
        static_cast<std::uint64_t>(stats.value("writebacks_to_mem"));
    c.l3MissRate = hier.l3MissRate();
    return c;
}

TEST(GoldenStats, HierarchyTenCoresMatchesGoldenSnapshot)
{
    HierarchyCounts c = runHierarchyStream(10);
    EXPECT_EQ(c.l1Hits, 43140u);
    EXPECT_EQ(c.l1Misses, 152798u);
    EXPECT_EQ(c.l2Hits, 78766u);
    EXPECT_EQ(c.l2Misses, 74032u);
    EXPECT_EQ(c.l3Hits, 25540u);
    EXPECT_EQ(c.l3Misses, 27694u);
    EXPECT_EQ(c.upgrades, 5455u);
    EXPECT_EQ(c.c2cTransfers, 20798u);
    EXPECT_EQ(c.writebacksToMem, 9760u);
    EXPECT_EQ(c.l3MissRate, 0.52023143104031255);
}

// More cores than the holder mask has per-core bits: the mask is a
// superset there, and the counters must not notice.
TEST(GoldenStats, HierarchyTwentyCoresMatchesGoldenSnapshot)
{
    HierarchyCounts c = runHierarchyStream(20);
    EXPECT_EQ(c.l1Hits, 41016u);
    EXPECT_EQ(c.l1Misses, 154922u);
    EXPECT_EQ(c.l2Hits, 60260u);
    EXPECT_EQ(c.l2Misses, 94662u);
    EXPECT_EQ(c.l3Hits, 31944u);
    EXPECT_EQ(c.l3Misses, 41572u);
    EXPECT_EQ(c.upgrades, 3110u);
    EXPECT_EQ(c.c2cTransfers, 21146u);
    EXPECT_EQ(c.writebacksToMem, 10088u);
    EXPECT_EQ(c.l3MissRate, 0.56548234397954189);
}

} // namespace
} // namespace pageforge
