/**
 * @file
 * Tests of the benchmark's cell driver and command line: a cell driven
 * phase by phase must give runExperiment()'s simulated results, tracing
 * must not perturb them, failed output checks must be reported,
 * malformed arguments must be rejected, and the host speed probe must
 * do the same fixed work every time.
 */

#include <gtest/gtest.h>

#include "cell_driver.hh"
#include "cli.hh"
#include "host_probe.hh"

namespace perfbench
{
namespace
{

using namespace pageforge;

/** A small cell that still merges, loads and (optionally) churns. */
CellSpec
smallCell(const std::string &app, DedupMode mode)
{
    CellSpec cell;
    cell.app = appByName(app);
    cell.mode = mode;
    cell.experiment.memScale = 0.03;
    cell.experiment.warmupPasses = 2;
    cell.experiment.settleTime = msToTicks(2);
    cell.experiment.targetQueries = 50;
    cell.experiment.minMeasure = msToTicks(10);
    cell.experiment.maxMeasure = msToTicks(20);
    cell.experiment.seed = 7;
    return cell;
}

CellSpec
smallChurnCell()
{
    CellSpec cell = smallCell("masstree", DedupMode::PageForge);
    cell.experiment.churn.kind = ChurnKind::Poisson;
    cell.experiment.churn.arrivalsPerSec = 400.0;
    cell.experiment.churn.departuresPerSec = 400.0;
    cell.sysTemplate.numMcs = 4;
    cell.sysTemplate.lanes = 2;
    return cell;
}

void
expectSameResults(const CellSpec &cell)
{
    CellRun run = runCell(cell, false);
    ASSERT_TRUE(run.ok) << run.error;
    ExperimentResult ref = runExperiment(cell.app, cell.mode,
                                         cell.experiment,
                                         cell.sysTemplate);
    const Digest &d = run.digest;
    EXPECT_EQ(d.framesUsed, ref.dup.framesUsed);
    EXPECT_EQ(d.mappedPages, ref.dup.mappedPages);
    EXPECT_EQ(d.framesIfFullyMerged, ref.dup.framesIfFullyMerged);
    EXPECT_EQ(d.merges, ref.merges);
    EXPECT_EQ(d.cowBreaks, ref.cowBreaks);
    EXPECT_EQ(d.queries, ref.queries);
    EXPECT_EQ(d.meanSojournMs, ref.meanSojournMs);
    EXPECT_EQ(d.p95SojournMs, ref.p95SojournMs);
    EXPECT_EQ(d.l3MissRate, ref.l3MissRate);
    EXPECT_EQ(d.l3AppMissRate, ref.l3AppMissRate);
    EXPECT_EQ(d.simEvents, ref.simEvents);
    EXPECT_EQ(d.pagesScanned, ref.pagesScanned);
    EXPECT_EQ(d.clones, ref.lifecycle.clones);
    EXPECT_EQ(d.shutdowns, ref.lifecycle.shutdowns);
}

TEST(CellDriverTest, MatchesRunExperimentInEveryMode)
{
    for (DedupMode mode :
         {DedupMode::None, DedupMode::Ksm, DedupMode::PageForge}) {
        SCOPED_TRACE(dedupModeName(mode));
        expectSameResults(smallCell("silo", mode));
    }
}

TEST(CellDriverTest, MatchesRunExperimentWithShardsLanesAndChurn)
{
    CellSpec cell = smallChurnCell();
    expectSameResults(cell);
    EXPECT_GT(runCell(cell, false).digest.clones, 0u);
}

TEST(CellDriverTest, ScalesCachesLikeRunExperiment)
{
    // The equality tests above only cover the cache scaling if it
    // actually applies to their cells.
    CellSpec cell = smallCell("silo", DedupMode::Ksm);
    SystemConfig defaults;
    SystemConfig scaled = systemConfigOf(cell);
    EXPECT_LT(scaled.l2.sizeBytes, defaults.l2.sizeBytes);
    EXPECT_LT(scaled.l3.sizeBytes, defaults.l3.sizeBytes);

    cell.experiment.scaleCaches = false;
    SystemConfig unscaled = systemConfigOf(cell);
    EXPECT_EQ(unscaled.l2.sizeBytes, defaults.l2.sizeBytes);
    EXPECT_EQ(unscaled.l3.sizeBytes, defaults.l3.sizeBytes);
    expectSameResults(cell);
}

TEST(CellDriverTest, TracingDoesNotPerturbResults)
{
    for (const CellSpec &cell :
         {smallCell("moses", DedupMode::PageForge), smallChurnCell()}) {
        CellRun plain = runCell(cell, false);
        CellRun traced = runCell(cell, true);
        ASSERT_TRUE(plain.ok) << plain.error;
        ASSERT_TRUE(traced.ok) << traced.error;
        EXPECT_EQ(plain.digest.str(), traced.digest.str());
        auto dispatch = static_cast<unsigned>(prof::Site::EventDispatch);
        auto window = static_cast<unsigned>(Phase::Window);
        EXPECT_GT(traced.sites[window][dispatch].calls, 0u);
        EXPECT_EQ(plain.sites[window][dispatch].calls, 0u);
    }
    EXPECT_FALSE(prof::enabled());
}

TEST(CellDriverTest, LaneCountDoesNotChangeResults)
{
    // A traced benchmark run drives its cells at two lanes, an
    // untraced one at one lane; their digests are compared.
    CellSpec one_lane = smallChurnCell();
    one_lane.sysTemplate.lanes = 1;
    CellRun serial = runCell(one_lane, false);
    CellRun laned = runCell(smallChurnCell(), true);
    ASSERT_TRUE(serial.ok) << serial.error;
    ASSERT_TRUE(laned.ok) << laned.error;
    EXPECT_EQ(serial.digest.str(), laned.digest.str());
    EXPECT_GT(laned.lanes.quanta, 0u);
}

TEST(CellDriverTest, PhasesFitInsideTheCellWallClock)
{
    CellRun run = runCell(smallCell("img_dnn", DedupMode::Ksm), false);
    ASSERT_TRUE(run.ok) << run.error;
    double phases = 0.0;
    for (double s : run.phaseS) {
        EXPECT_GE(s, 0.0);
        phases += s;
    }
    EXPECT_GT(phases, 0.0);
    EXPECT_LE(phases, run.wallS);
}

TEST(CellDriverTest, FailedOutputCheckIsReported)
{
    // A one-tick window completes no query.
    CellSpec cell = smallCell("silo", DedupMode::None);
    cell.experiment.minMeasure = 1;
    cell.experiment.maxMeasure = 1;
    cell.experiment.settleTime = 1;
    CellRun run = runCell(cell, false);
    EXPECT_FALSE(run.ok);
    EXPECT_NE(run.error.find("no queries"), std::string::npos);
}

TEST(CellDriverTest, ExceptionIsReportedNotThrown)
{
    CellSpec cell = smallCell("silo", DedupMode::None);
    cell.experiment.targetQueries = 0; // rejected by validate()
    CellRun run = runCell(cell, false);
    EXPECT_FALSE(run.ok);
    EXPECT_NE(run.error.find("exception"), std::string::npos);
}

TEST(CellDriverTest, EveryWorkloadHasValidCells)
{
    ASSERT_EQ(workloads().size(), 4u);
    for (const Workload &w : workloads()) {
        std::vector<CellSpec> cells = cellsOf(w, 3);
        ASSERT_EQ(cells.size(), w.apps.size());
        for (const CellSpec &cell : cells) {
            EXPECT_NO_THROW(cell.experiment.validate(cell.app));
            EXPECT_EQ(cell.experiment.seed, 3u);
        }
    }
    EXPECT_EQ(findWorkload("baseline")->mode, DedupMode::None);
    EXPECT_EQ(findWorkload("pageforge-4mc-churn")->numMcs, 4u);
    EXPECT_EQ(findWorkload("pageforge-4mc"), nullptr);
}

TEST(HostProbeTest, DoesTheSameFixedWorkEveryRun)
{
    // Every normalized timing is in units of this kernel, so its work
    // is pinned: a changed table size means a changed kernel.
    for (int i = 0; i < 3; ++i) {
        ProbeRun run = probeHost();
        EXPECT_EQ(run.entries, 59869u);
        EXPECT_GT(run.seconds, 0.0);
    }
}

std::vector<std::string>
argsWith(const std::string &flag, const std::string &value)
{
    std::vector<std::string> args = {"--workload=ksm", "--seed=1",
                                     "--seconds=5", "--trace=0"};
    for (std::string &arg : args)
        if (arg.rfind(flag + "=", 0) == 0)
            arg = flag + "=" + value;
    return args;
}

TEST(CliTest, AcceptsWellFormedArguments)
{
    Options opts = parseArgs(argsWith("--seed", "0"));
    EXPECT_EQ(opts.workload, "ksm");
    EXPECT_EQ(opts.seed, 0u);
    EXPECT_EQ(opts.seconds, 5u);
    EXPECT_FALSE(opts.trace);
    EXPECT_EQ(parseArgs(argsWith("--seed", "18446744073709551615")).seed,
              18446744073709551615ull);
    EXPECT_TRUE(parseArgs(argsWith("--trace", "1")).trace);
    EXPECT_EQ(parseArgs(argsWith("--workload", "pageforge-4mc-churn"))
                  .workload,
              "pageforge-4mc-churn");
}

TEST(CliTest, RejectsMalformedValues)
{
    const std::vector<std::pair<std::string, std::string>> bad = {
        {"--seed", "abc"},     {"--seed", "12x"},
        {"--seed", "-1"},      {"--seed", "+1"},
        {"--seed", ""},        {"--seed", " 1"},
        {"--seed", "1.0"},     {"--seed", "18446744073709551616"},
        {"--seconds", "0"},    {"--seconds", "-5"},
        {"--seconds", "10s"},  {"--seconds", "151"},
        {"--trace", "2"},      {"--trace", "yes"},
        {"--workload", "nope"}, {"--workload", "baseline "},
        {"--workload", ""},
    };
    for (const auto &[flag, value] : bad)
        EXPECT_THROW(parseArgs(argsWith(flag, value)), UsageError)
            << flag << "=" << value;
}

TEST(CliTest, RejectsMalformedCommandLines)
{
    std::vector<std::string> args = argsWith("--seed", "1");
    args.push_back("--seed=2");
    EXPECT_THROW(parseArgs(args), UsageError);
    EXPECT_THROW(parseArgs({"--workload=ksm", "--seed=1", "--seconds=5"}),
                 UsageError);
    args = argsWith("--seed", "1");
    args.push_back("--lanes=2");
    EXPECT_THROW(parseArgs(args), UsageError);
    args = argsWith("--seed", "1");
    args.push_back("--quick");
    EXPECT_THROW(parseArgs(args), UsageError);
}

} // namespace
} // namespace perfbench
