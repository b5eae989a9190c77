/**
 * @file
 * Per-lane trace buffering for per-MC event lanes.
 *
 * A TraceSink streams JSON as events fire, so it expects them in
 * timestamp order; a multi-lane machine runs a whole quantum of lane 0
 * before any shard lane dispatches its events for the same quantum.
 * LaneTraceMux sits between the probes and the real backend: each lane
 * appends its events to a private buffer, and at every quantum barrier
 * the scheduler's hook flushes the buffers into the downstream backend
 * merged in (timestamp, lane, intra-lane order). Quanta advance
 * monotonically, so the downstream sink sees a globally
 * timestamp-ordered stream.
 */

#ifndef PF_TRACE_LANE_BUFFER_HH
#define PF_TRACE_LANE_BUFFER_HH

#include <cstdint>
#include <vector>

#include "trace/probe.hh"

namespace pageforge
{

/** Buffers probe events per lane; flushes merged by timestamp. */
class LaneTraceMux : public TraceBackend
{
  public:
    /**
     * @param downstream the real backend (kept by reference)
     * @param num_lanes  lanes including lane 0
     */
    LaneTraceMux(TraceBackend &downstream, unsigned num_lanes);
    ~LaneTraceMux() override;

    LaneTraceMux(const LaneTraceMux &) = delete;
    LaneTraceMux &operator=(const LaneTraceMux &) = delete;

    // TraceBackend interface: record into the calling lane's buffer.
    // Event-name and series strings must be literals (probes pass
    // literals); only the pointers are stored.
    bool wants(TraceComponent comp) const override;
    void emitSpan(TraceComponent comp, const char *event_name,
                  Tick start, Tick end, const TraceArg *args,
                  unsigned num_args) override;
    void emitInstant(TraceComponent comp, const char *event_name,
                     Tick at, const TraceArg *args,
                     unsigned num_args) override;
    void emitCounter(TraceComponent comp, const char *series, Tick at,
                     double value) override;
    unsigned registerTrack(const char *track_name,
                           TraceComponent comp) override;
    void emitCounterTrack(unsigned track, TraceComponent comp,
                          const char *series, Tick at,
                          double value) override;
    void emitFlowBegin(TraceComponent comp, const char *flow_name,
                       Tick at, std::uint64_t flow_id) override;
    void emitFlowEnd(TraceComponent comp, const char *flow_name,
                     Tick at, std::uint64_t flow_id) override;

    /**
     * Replay all buffered events into the downstream backend, merged
     * by (timestamp, lane, append order), and clear the buffers. Call
     * between quanta only (the quantum hook does).
     */
    void flush();

    /** Events currently buffered across all lanes. */
    std::size_t buffered() const;

  private:
    enum class Kind : std::uint8_t {
        Span,
        Instant,
        Counter,
        CounterTrack,
        FlowBegin,
        FlowEnd,
    };

    struct Record
    {
        Kind kind;
        TraceComponent comp;
        unsigned track;
        const char *name;
        Tick start;
        Tick end;
        double value;
        TraceArg args[2];
        unsigned numArgs;
        std::uint64_t flowId = 0;
    };

    std::vector<Record> &currentBuffer();

    TraceBackend &_downstream;
    std::vector<std::vector<Record>> _buffers; // one per lane
};

} // namespace pageforge

#endif // PF_TRACE_LANE_BUFFER_HH
