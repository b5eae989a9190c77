/**
 * @file
 * Per-MC event lanes: mailbox delivery order, quantum barriers, the
 * per-lane trace merge, host-time telemetry, and where a machine
 * builds its scheduler.
 */

#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "prof/profiler.hh"
#include "sim/event_queue.hh"
#include "sim/lane_scheduler.hh"
#include "system/experiment.hh"
#include "system/system.hh"
#include "trace/lane_buffer.hh"
#include "trace/trace_sink.hh"

namespace pageforge
{
namespace
{

TEST(LaneScheduler, DeliversAtPostedTickOnDestinationLane)
{
    EventQueue eq;
    LaneScheduler sched(eq, 2, 100);

    Tick fired_at = 0;
    unsigned fired_lane = ~0u;
    eq.schedule(10, [&] {
        sched.post(1, 10, [&] {
            fired_at = sched.lane(1).curTick();
            fired_lane = LaneScheduler::currentLaneId();
        });
    });
    sched.runUntil(100);

    EXPECT_EQ(fired_at, 10u);
    EXPECT_EQ(fired_lane, 1u);
    EXPECT_EQ(sched.messagesDelivered(), 1u);
}

TEST(LaneScheduler, BoundaryTickEventRunsInPostingQuantum)
{
    // Posting at exactly curTick + quantum (the lookahead limit) must
    // still land in the posting quantum's phase 2: lane runUntil is
    // inclusive of the boundary tick.
    EventQueue eq;
    LaneScheduler sched(eq, 1, 100);

    Tick fired_at = 0;
    eq.schedule(5, [&] {
        sched.post(1, 100, [&] { fired_at = sched.lane(1).curTick(); });
    });
    sched.runUntil(100);

    EXPECT_EQ(fired_at, 100u);
}

TEST(LaneScheduler, MailDrainsInTickThenPostingOrder)
{
    EventQueue eq;
    LaneScheduler sched(eq, 3, 50);

    // Each lane's log is appended only while that lane dispatches, so
    // no locking — exactly the contract the trace buffers rely on.
    std::vector<std::vector<std::pair<Tick, int>>> logs(4);
    auto deliver = [&logs, &sched](unsigned dst, int tag) {
        logs[dst].push_back({sched.lane(dst).curTick(), tag});
    };

    // Quantum 1: ties on (lane, tick) from one posting event — the
    // drain's sequence order must break them.
    eq.schedule(0, [&] {
        for (int i = 0; i < 6; ++i) {
            unsigned dst = 1 + static_cast<unsigned>(i) % 3;
            sched.post(dst, 25, [&deliver, dst, i] { deliver(dst, i); });
        }
    });
    // Quantum 2: posts from two lane-0 events, interleaved ticks.
    eq.schedule(60, [&] {
        sched.post(2, 90, [&deliver] { deliver(2, 100); });
        sched.post(1, 60, [&deliver] { deliver(1, 101); });
    });
    eq.schedule(70, [&] {
        sched.post(1, 60, [&deliver] { deliver(1, 102); });
        sched.post(3, 99, [&deliver] { deliver(3, 103); });
    });
    sched.runUntil(200);

    // Same-tick mail drains in posting-sequence order.
    using Log = std::vector<std::pair<Tick, int>>;
    EXPECT_TRUE(logs[0].empty());
    EXPECT_EQ(logs[1], (Log{{25, 0}, {25, 3}, {60, 101}, {60, 102}}));
    EXPECT_EQ(logs[2], (Log{{25, 1}, {25, 4}, {90, 100}}));
    EXPECT_EQ(logs[3], (Log{{25, 2}, {25, 5}, {99, 103}}));
}

TEST(LaneScheduler, QuantumHookFiresOncePerQuantum)
{
    EventQueue eq;
    LaneScheduler sched(eq, 2, 100);
    unsigned hooks = 0;
    sched.setQuantumHook([&] { ++hooks; });
    sched.runUntil(500);
    EXPECT_EQ(hooks, 5u);
}

TEST(LaneSchedulerDeathTest, CrossLaneEventInThePastPanics)
{
    EXPECT_DEATH(
        {
            EventQueue eq;
            LaneScheduler sched(eq, 1, 100);
            // Quantum 1 advances lane 1's clock to 100; a quantum-2
            // post below that is stale and must die at drain time.
            eq.schedule(150, [&] { sched.post(1, 50, [] {}); });
            sched.runUntil(200);
        },
        "past");
}

TEST(LaneSchedulerDeathTest, PostToLaneZeroPanics)
{
    EXPECT_DEATH(
        {
            EventQueue eq;
            LaneScheduler sched(eq, 1, 100);
            sched.post(0, 10, [] {});
        },
        "invalid lane");
}

TEST(LaneTraceMux, FlushMergesBuffersInTimestampOrder)
{
    // Recording backend: the order of arrival is the assertion.
    struct Recorder : TraceBackend
    {
        std::vector<std::pair<std::string, Tick>> events;
        bool wants(TraceComponent) const override { return true; }
        void emitSpan(TraceComponent, const char *name, Tick start,
                      Tick, const TraceArg *, unsigned) override
        {
            events.push_back({name, start});
        }
        void emitInstant(TraceComponent, const char *name, Tick at,
                         const TraceArg *, unsigned) override
        {
            events.push_back({name, at});
        }
        void emitCounter(TraceComponent, const char *series, Tick at,
                         double) override
        {
            events.push_back({series, at});
        }
        unsigned registerTrack(const char *, TraceComponent) override
        {
            return 0;
        }
        void emitCounterTrack(unsigned, TraceComponent,
                              const char *series, Tick at,
                              double) override
        {
            events.push_back({series, at});
        }
    };

    Recorder rec;
    LaneTraceMux mux(rec, 2);

    // All from the test thread (lane 0) — deliberately out of
    // timestamp order; flush must replay sorted.
    mux.emitInstant(TraceComponent::Sim, "c", 30, nullptr, 0);
    mux.emitSpan(TraceComponent::Sim, "a", 10, 15, nullptr, 0);
    mux.emitCounter(TraceComponent::Sim, "b", 20, 1.0);
    EXPECT_EQ(mux.buffered(), 3u);
    EXPECT_TRUE(rec.events.empty());

    mux.flush();
    EXPECT_EQ(mux.buffered(), 0u);
    ASSERT_EQ(rec.events.size(), 3u);
    EXPECT_EQ(rec.events[0], (std::pair<std::string, Tick>{"a", 10}));
    EXPECT_EQ(rec.events[1], (std::pair<std::string, Tick>{"b", 20}));
    EXPECT_EQ(rec.events[2], (std::pair<std::string, Tick>{"c", 30}));
}

/** Backend recording (name, tick, flow id) in arrival order. */
struct FlowRecorder : TraceBackend
{
    struct Ev
    {
        std::string name;
        Tick at;
        std::uint64_t flowId;

        bool
        operator==(const Ev &o) const
        {
            return name == o.name && at == o.at && flowId == o.flowId;
        }
    };
    std::vector<Ev> events;

    bool wants(TraceComponent) const override { return true; }
    void emitSpan(TraceComponent, const char *name, Tick start, Tick,
                  const TraceArg *, unsigned) override
    {
        events.push_back({name, start, 0});
    }
    void emitInstant(TraceComponent, const char *name, Tick at,
                     const TraceArg *, unsigned) override
    {
        events.push_back({name, at, 0});
    }
    void emitCounter(TraceComponent, const char *series, Tick at,
                     double) override
    {
        events.push_back({series, at, 0});
    }
    void emitFlowBegin(TraceComponent, const char *name, Tick at,
                       std::uint64_t flow_id) override
    {
        events.push_back({std::string("s:") + name, at, flow_id});
    }
    void emitFlowEnd(TraceComponent, const char *name, Tick at,
                     std::uint64_t flow_id) override
    {
        events.push_back({std::string("f:") + name, at, flow_id});
    }
};

TEST(LaneTraceMux, MultiLaneStressMergesByTickLaneOrderWithFlows)
{
    // Three shard lanes each emit a burst of spans plus interleaved
    // flow begin/end pairs from their own dispatch; the merged replay
    // must come out (tick, lane, intra-lane order)-sorted.
    FlowRecorder rec;
    EventQueue eq;
    LaneScheduler sched(eq, 3, 50);
    LaneTraceMux mux(rec, sched.numLanes());
    sched.setQuantumHook([&] { mux.flush(); });

    eq.schedule(0, [&] {
        for (unsigned dst = 1; dst <= 3; ++dst) {
            // Descending ticks across lanes: lane 3 fires first.
            Tick at = 40 - dst * 5;
            sched.post(dst, at, [&mux, dst, at] {
                mux.emitSpan(TraceComponent::ScanTable, "work", at, at,
                             nullptr, 0);
                mux.emitFlowBegin(TraceComponent::ScanTable, "hop", at,
                                  dst);
                mux.emitInstant(TraceComponent::ScanTable, "mid", at,
                                nullptr, 0);
            });
            // Same-tick tie across all lanes: merge breaks it by lane
            // index.
            sched.post(dst, 45, [&mux, dst] {
                mux.emitFlowEnd(TraceComponent::ScanTable, "hop", 45,
                                dst);
            });
        }
    });
    sched.runUntil(100);

    ASSERT_EQ(rec.events.size(), 12u);
    // Ticks 25/30/35 from lanes 3/2/1, then the tick-45 tie in lane
    // order; within a lane, append order survives.
    std::vector<FlowRecorder::Ev> expect = {
        {"work", 25, 0}, {"s:hop", 25, 3}, {"mid", 25, 0},
        {"work", 30, 0}, {"s:hop", 30, 2}, {"mid", 30, 0},
        {"work", 35, 0}, {"s:hop", 35, 1}, {"mid", 35, 0},
        {"f:hop", 45, 1}, {"f:hop", 45, 2}, {"f:hop", 45, 3},
    };
    EXPECT_EQ(rec.events, expect);
}

TEST(LaneScheduler, TelemetryStaysEmptyWhenProfilingDisabled)
{
    prof::setEnabled(false);
    EventQueue eq;
    LaneScheduler sched(eq, 2, 100);
    eq.schedule(0, [&] { sched.post(1, 10, [] {}); });
    sched.runUntil(500);
    EXPECT_EQ(sched.telemetry().quanta, 0u);
}

TEST(LaneScheduler, TelemetryAccountsEveryLanesFullQuantum)
{
    prof::setEnabled(true);
    {
        EventQueue eq;
        LaneScheduler sched(eq, 2, 100);
        eq.schedule(0, [&] {
            sched.post(1, 50, [] {});
            sched.post(2, 150, [] {});
        });
        sched.runUntil(500);

        const ExecTelemetry &tel = sched.telemetry();
        EXPECT_EQ(tel.quanta, 5u);
        ASSERT_EQ(tel.lanes.size(), 3u); // lane 0 + two shard lanes
        // Each lane's busy + idle + stall covers exactly the same
        // wall-clock: the sum of all quantum durations.
        std::uint64_t wall = tel.phase1Ns + tel.drainNs + tel.phase2Ns;
        EXPECT_GT(wall, 0u);
        for (std::size_t l = 0; l < tel.lanes.size(); ++l) {
            const LaneExecStats &lane = tel.lanes[l];
            EXPECT_EQ(lane.busyNs + lane.idleNs + lane.stallNs, wall)
                << "lane " << l;
        }
        EXPECT_GT(tel.lanes[0].busyNs, 0u); // phase 1 ran
        // Both mailboxes got one message each; the high-watermark saw
        // at least one pending entry.
        EXPECT_GE(tel.mailboxHwm, 1u);
        double eff = tel.phase2Efficiency();
        EXPECT_GE(eff, 0.0);
        EXPECT_LE(eff, 1.0);
    }
    prof::setEnabled(false);
}

/** Small 4-MC machine, cache-scaled down so tests stay fast. */
SystemConfig
lanedSystem()
{
    SystemConfig sys;
    sys.numCores = 4;
    sys.numVms = 4;
    sys.numMcs = 4;
    sys.l1 = CacheConfig{"l1", 4 * 1024, 2, 2, 4};
    sys.l2 = CacheConfig{"l2", 16 * 1024, 4, 6, 8};
    sys.l3 = CacheConfig{"l3", 256 * 1024, 16, 20, 16};
    return sys;
}

TEST(LaneSystem, SchedulerExistsOnlyOnMultiMcPageForgeMachines)
{
    SystemConfig multi = lanedSystem();
    multi.mode = DedupMode::PageForge;
    System with_lanes(multi, appByName("masstree"));
    ASSERT_NE(with_lanes.laneScheduler(), nullptr);
    EXPECT_EQ(with_lanes.laneScheduler()->numLanes(), 5u);
    // The quantum is the driver's polling period: the driver reads
    // walk results only at its check polls.
    EXPECT_EQ(with_lanes.laneScheduler()->quantum(),
              multi.pfDriver.osCheckInterval);

    SystemConfig single = lanedSystem();
    single.numMcs = 1;
    single.mode = DedupMode::PageForge;
    System classic(single, appByName("masstree"));
    EXPECT_EQ(classic.laneScheduler(), nullptr);

    SystemConfig ksm = lanedSystem();
    ksm.mode = DedupMode::Ksm;
    System no_modules(ksm, appByName("masstree"));
    EXPECT_EQ(no_modules.laneScheduler(), nullptr);
}

TEST(LaneSystem, ProfiledTraceCarriesHandoffFlows)
{
    // End-to-end: with the profiler armed, a traced multi-MC run must
    // surface cross-MC handoff flow arrows and nonzero lane telemetry,
    // and keep host time out of the simulated-time trace.
    prof::setEnabled(true);
    {
        std::ostringstream os;
        TraceSink sink(os);
        SystemConfig sys = lanedSystem();
        sys.mode = DedupMode::PageForge;
        sys.memScale = 0.05;
        sys.traceSink = &sink;

        System system(sys, appByName("masstree"));
        system.deploy();
        system.warmupDedup(3);
        system.startLoad();
        system.run(msToTicks(30));
        system.finishObservability();
        sink.finish();

        EXPECT_GT(sink.flowEvents(), 0u);
        std::string json = os.str();
        EXPECT_NE(json.find("\"cat\":\"flow\""), std::string::npos);
        EXPECT_EQ(json.find("\"pid\":2"), std::string::npos);

        ASSERT_NE(system.laneScheduler(), nullptr);
        const ExecTelemetry &tel = system.laneScheduler()->telemetry();
        EXPECT_GT(tel.quanta, 0u);
        EXPECT_GT(tel.lanes.at(0).busyNs, 0u);
    }
    prof::setEnabled(false);
    prof::reset();
}

} // namespace
} // namespace pageforge
