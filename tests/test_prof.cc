/**
 * @file
 * Tests for the host-time self-profiler: the enable gate (disabled
 * probes cost one branch and allocate nothing), scoped-timer nesting
 * and re-entrancy, cross-thread merging, and the quantile edge cases
 * of the log2-bucketed histograms.
 *
 * The profiler is process-global state shared with every other test
 * in this binary (notably the golden-stats bit-identity suite, which
 * relies on it staying disabled), so every test runs under a fixture
 * that disables and clears it on both sides.
 */

#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "prof/profiler.hh"

namespace pageforge
{
namespace
{

class ProfTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        prof::setEnabled(false);
        prof::reset();
    }

    void
    TearDown() override
    {
        prof::setEnabled(false);
        prof::reset();
    }

    static const prof::SiteStats *
    find(const std::vector<prof::SiteStats> &stats, prof::Site site)
    {
        for (const prof::SiteStats &s : stats)
            if (s.site == site)
                return &s;
        return nullptr;
    }

    // The result points into @p stats: binding a temporary snapshot
    // would leave it dangling, so that overload does not compile.
    static const prof::SiteStats *
    find(std::vector<prof::SiteStats> &&stats, prof::Site site) = delete;
};

TEST_F(ProfTest, DisabledTimersRecordNothingAndAllocateNothing)
{
    ASSERT_FALSE(prof::enabled());
    std::uint64_t buffers_before = prof::threadBuffers();
    // A fresh thread would have to allocate its sample buffer on the
    // first record; disabled timers must never get that far.
    std::thread worker([] {
        for (int i = 0; i < 1000; ++i)
            prof::ScopedTimer timer(prof::Site::EventDispatch);
    });
    worker.join();
    EXPECT_EQ(prof::threadBuffers(), buffers_before);
    EXPECT_TRUE(prof::snapshot().empty());
}

TEST_F(ProfTest, RecordedSamplesAggregate)
{
    prof::setEnabled(true);
    prof::recordNs(prof::Site::EventDispatch, 100);
    prof::recordNs(prof::Site::EventDispatch, 100);
    prof::recordNs(prof::Site::EventDispatch, 100);

    std::vector<prof::SiteStats> stats = prof::snapshot();
    const prof::SiteStats *s = find(stats, prof::Site::EventDispatch);
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->count, 3u);
    EXPECT_EQ(s->totalNs, 300u);
    EXPECT_EQ(s->minNs, 100u);
    EXPECT_EQ(s->maxNs, 100u);
    EXPECT_EQ(s->p50Ns, 100u);
    EXPECT_EQ(s->p95Ns, 100u);
    EXPECT_STREQ(s->name, "event-dispatch");
    EXPECT_EQ(s->comp, TraceComponent::Sim);
}

TEST_F(ProfTest, NestedTimersRecordBothSites)
{
    prof::setEnabled(true);
    {
        prof::ScopedTimer outer(prof::Site::ContentTreeSearch);
        {
            prof::ScopedTimer inner(prof::Site::SimdCompare);
        }
    }
    std::vector<prof::SiteStats> stats = prof::snapshot();
    const prof::SiteStats *outer =
        find(stats, prof::Site::ContentTreeSearch);
    const prof::SiteStats *inner = find(stats, prof::Site::SimdCompare);
    ASSERT_NE(outer, nullptr);
    ASSERT_NE(inner, nullptr);
    EXPECT_EQ(outer->count, 1u);
    EXPECT_EQ(inner->count, 1u);
    // The outer span is inclusive of the nested one.
    EXPECT_GE(outer->totalNs, inner->totalNs);
}

TEST_F(ProfTest, ReentrantSameSiteCountsEveryActivation)
{
    prof::setEnabled(true);
    {
        prof::ScopedTimer a(prof::Site::ScanTableWalk);
        {
            prof::ScopedTimer b(prof::Site::ScanTableWalk);
            {
                prof::ScopedTimer c(prof::Site::ScanTableWalk);
            }
        }
    }
    std::vector<prof::SiteStats> stats = prof::snapshot();
    const prof::SiteStats *s = find(stats, prof::Site::ScanTableWalk);
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->count, 3u);
}

TEST_F(ProfTest, TimerArmedBeforeDisableStillRecords)
{
    prof::setEnabled(true);
    {
        prof::ScopedTimer timer(prof::Site::EccCompute);
        // An armed timer holds its start time; losing the sample here
        // would undercount whatever region straddled the switch.
        prof::setEnabled(false);
    }
    std::vector<prof::SiteStats> stats = prof::snapshot();
    const prof::SiteStats *s = find(stats, prof::Site::EccCompute);
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->count, 1u);
}

TEST_F(ProfTest, CrossThreadSamplesMergeInSnapshot)
{
    prof::setEnabled(true);
    std::vector<std::thread> pool;
    for (int t = 0; t < 4; ++t)
        pool.emplace_back([] {
            for (int i = 0; i < 250; ++i)
                prof::recordNs(prof::Site::TraceFlush, 8);
        });
    for (std::thread &worker : pool)
        worker.join();
    std::vector<prof::SiteStats> stats = prof::snapshot();
    const prof::SiteStats *s = find(stats, prof::Site::TraceFlush);
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->count, 1000u);
    EXPECT_EQ(s->totalNs, 8000u);
}

TEST_F(ProfTest, QuantileSingleSampleIsThatSample)
{
    prof::setEnabled(true);
    prof::recordNs(prof::Site::MetricsSample, 12345);
    std::vector<prof::SiteStats> stats = prof::snapshot();
    const prof::SiteStats *s = find(stats, prof::Site::MetricsSample);
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->p50Ns, 12345u);
    EXPECT_EQ(s->p95Ns, 12345u);
}

TEST_F(ProfTest, QuantileZeroDurationSamples)
{
    prof::setEnabled(true);
    for (int i = 0; i < 10; ++i)
        prof::recordNs(prof::Site::EventDispatch, 0);
    std::vector<prof::SiteStats> stats = prof::snapshot();
    const prof::SiteStats *s = find(stats, prof::Site::EventDispatch);
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->minNs, 0u);
    EXPECT_EQ(s->maxNs, 0u);
    EXPECT_EQ(s->p50Ns, 0u);
    EXPECT_EQ(s->p95Ns, 0u);
}

TEST_F(ProfTest, QuantilesAreClampedToObservedRange)
{
    prof::setEnabled(true);
    // Two samples in far-apart log2 buckets: interpolation inside the
    // winning bucket must never leave [min, max].
    prof::recordNs(prof::Site::SimdCompare, 3);
    prof::recordNs(prof::Site::SimdCompare, 1u << 20);
    std::vector<prof::SiteStats> stats = prof::snapshot();
    const prof::SiteStats *s = find(stats, prof::Site::SimdCompare);
    ASSERT_NE(s, nullptr);
    EXPECT_GE(s->p50Ns, s->minNs);
    EXPECT_LE(s->p50Ns, s->maxNs);
    EXPECT_GE(s->p95Ns, s->p50Ns);
    EXPECT_LE(s->p95Ns, s->maxNs);
}

TEST_F(ProfTest, QuantilesAreMonotonicAcrossSkewedLoad)
{
    prof::setEnabled(true);
    // 95 fast samples and 5 slow ones: p50 stays in the fast bucket,
    // p95 at the boundary or above, and ordering always holds.
    for (int i = 0; i < 95; ++i)
        prof::recordNs(prof::Site::ContentTreeSearch, 16);
    for (int i = 0; i < 5; ++i)
        prof::recordNs(prof::Site::ContentTreeSearch, 4096);
    std::vector<prof::SiteStats> stats = prof::snapshot();
    const prof::SiteStats *s = find(stats, prof::Site::ContentTreeSearch);
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->count, 100u);
    EXPECT_LE(s->p50Ns, 31u); // inside the 16..31 bucket
    EXPECT_GE(s->p50Ns, 16u);
    EXPECT_GE(s->p95Ns, s->p50Ns);
    EXPECT_LE(s->p95Ns, 4096u);
}

TEST_F(ProfTest, ResetClearsSamplesButKeepsEnableState)
{
    prof::setEnabled(true);
    prof::recordNs(prof::Site::EventDispatch, 5);
    ASSERT_FALSE(prof::snapshot().empty());
    prof::reset();
    EXPECT_TRUE(prof::snapshot().empty());
    EXPECT_TRUE(prof::enabled());
}

TEST_F(ProfTest, ReportsNameTheSitesAndComponents)
{
    prof::setEnabled(true);
    prof::recordNs(prof::Site::SimdCompare, 64);
    std::ostringstream table;
    prof::writeTable(table);
    EXPECT_NE(table.str().find("simd-compare"), std::string::npos);
    std::ostringstream json;
    prof::writeJson(json);
    EXPECT_NE(json.str().find("\"sites\""), std::string::npos);
    EXPECT_NE(json.str().find("\"simd-compare\""), std::string::npos);
    EXPECT_NE(json.str().find("\"total_ns\":64"), std::string::npos);
}

} // namespace
} // namespace pageforge
