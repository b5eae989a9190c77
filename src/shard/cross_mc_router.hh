/**
 * @file
 * Simulated-latency inter-MC handoff queue.
 *
 * When a merge candidate's content key homes on a remote shard, the
 * scanning MC hands the candidate to the owning MC over the on-chip
 * interconnect. The router models that hop as a fixed link latency
 * plus per-destination serialization: each destination MC accepts one
 * handoff at a time, so back-to-back handoffs to the same shard queue
 * behind each other. The remote compare traffic itself is issued
 * through the owning MC by the caller; the router only accounts for
 * the control-message transfer.
 *
 * Fault-free runs are fully deterministic with no RNG: delivery times
 * depend only on the enqueue sequence. A fault campaign may arm the
 * link (armFaults) with loss / corruption / latency-spike
 * probabilities drawn from the injector's dedicated RNG stream; the
 * retry/backoff policy for lost handoffs also lives here so the
 * sender-side recovery loop and its dead-letter accounting share one
 * home (DESIGN.md §15).
 */

#ifndef PF_SHARD_CROSS_MC_ROUTER_HH
#define PF_SHARD_CROSS_MC_ROUTER_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/rng.hh"
#include "sim/types.hh"
#include "stats/histogram.hh"
#include "trace/probe.hh"

namespace pageforge
{

/**
 * Link-fault model and sender retry policy for the handoff path.
 * Armed by the system only when a fault campaign configures nonzero
 * handoff probabilities; the Rng pointer is the injector's dedicated
 * stream, so fault-free runs draw nothing.
 */
struct HandoffFaultModel
{
    double lossProb = 0.0;     //!< message dropped in the link
    double corruptProb = 0.0;  //!< delivered with a garbled key
    double spikeProb = 0.0;    //!< hop latency multiplied by spikeMult
    double spikeMult = 16.0;
    Rng *rng = nullptr;

    bool armed() const { return rng != nullptr; }
};

/** Sender-side recovery policy for lost handoffs. */
struct HandoffRetryPolicy
{
    unsigned maxRetries = 3;     //!< resends before dead-lettering
    Tick timeout = 40000;        //!< first-retry backoff (ack timeout)
    Tick backoffCap = 320000;    //!< ceiling of the exponential backoff
};

/** Outcome of routing one handoff through the (possibly faulty) link. */
struct HandoffDelivery
{
    Tick delivered = 0;   //!< arrival tick (meaningless when lost)
    bool lost = false;
    bool corrupted = false;
    std::uint64_t corruptSalt = 0; //!< deterministic garble entropy
};

/** Deterministic latency-modelled handoff path between MCs. */
class CrossMcRouter
{
  public:
    /**
     * @param num_mcs number of memory controllers
     * @param hop_latency one-way control-message latency in ticks
     *        (default 160 ticks = 80 ns at 2 GHz, an inter-socket-ish
     *        hop; same order as a DRAM access)
     */
    explicit CrossMcRouter(unsigned num_mcs, Tick hop_latency = 160);

    unsigned numMcs() const { return _numFree.size(); }
    Tick hopLatency() const { return _hopLatency; }

    /**
     * Hand a candidate from MC @p src to MC @p dst at tick @p now.
     * @return tick at which the destination MC has the candidate
     *
     * Fault-free fast path: with no fault model armed this never
     * draws randomness and never loses a message, so the historical
     * signature (and every existing caller/test) keeps its exact
     * semantics. Fault campaigns use route() instead.
     */
    Tick enqueue(unsigned src, unsigned dst, Tick now);

    /**
     * Fault-aware enqueue: like enqueue(), but when a fault model is
     * armed the handoff may be lost, corrupted, or latency-spiked.
     * A lost handoff counts toward the source MC and the loss counter
     * but is never accepted by the destination (no accept-port
     * reservation, no latency sample, no in-flight entry).
     */
    HandoffDelivery route(unsigned src, unsigned dst, Tick now);

    /** Arm the link-fault model (fault campaigns only). */
    void armFaults(const HandoffFaultModel &model) { _faults = model; }

    /** Sender retry policy for lost handoffs. */
    const HandoffRetryPolicy &retryPolicy() const { return _retry; }
    void setRetryPolicy(const HandoffRetryPolicy &p) { _retry = p; }

    /**
     * Backoff before resend number @p attempt + 1 (attempt counts
     * completed sends, so the first retry waits one timeout):
     * timeout << attempt, capped.
     */
    Tick
    retryBackoff(unsigned attempt) const
    {
        Tick shift = attempt < 16 ? _retry.timeout << attempt
                                  : _retry.backoffCap;
        return std::min(shift, _retry.backoffCap);
    }

    /** Count a retry of a lost handoff (sender bookkeeping). */
    void recordRetry() { ++_retries; }

    /** Count a handoff abandoned after exhausting its retries. */
    void recordDeadLetter() { ++_deadLetters; }

    std::uint64_t handoffsLost() const { return _lost; }
    std::uint64_t handoffsCorrupted() const { return _corrupted; }
    std::uint64_t handoffsSpiked() const { return _spiked; }
    std::uint64_t handoffRetries() const { return _retries; }
    std::uint64_t handoffDeadLetters() const { return _deadLetters; }

    /** Handoffs issued by source MC @p src so far. */
    std::uint64_t handoffsFrom(unsigned src) const;

    /** Handoffs accepted by destination MC @p dst so far. */
    std::uint64_t handoffsTo(unsigned dst) const;

    /** Total handoffs across all MC pairs. */
    std::uint64_t totalHandoffs() const { return _total; }

    /** Handoffs still in flight (delivery tick after @p now). */
    std::size_t depth(Tick now) const;

    /**
     * Delivered-minus-enqueued latency of handoffs accepted by
     * destination MC @p dst, in ticks. Deterministic (simulated time),
     * so campaign identity checks compare it between profiled runs.
     */
    const Histogram &latencyTo(unsigned dst) const;

    /**
     * Trace hook (not a SimObject, so wired up explicitly by the
     * system's observability setup). When active, every handoff emits
     * a flow arrow — id = handoff sequence number — from a zero-width
     * "handoff-out" span at the enqueue tick to a "handoff-in" span
     * at the delivery tick.
     */
    Probe &probe() { return _probe; }

  private:
    /** Drop in-flight entries already delivered by @p now. */
    void prune(Tick now) const;

    Tick _hopLatency;
    std::vector<Tick> _numFree;           //!< per-dst next-free tick
    std::vector<std::uint64_t> _fromMc;   //!< per-src handoff count
    std::vector<std::uint64_t> _toMc;     //!< per-dst handoff count
    std::uint64_t _total = 0;
    //!< delivery ticks; pruned amortized in route() and on depth()
    mutable std::vector<Tick> _inFlight;
    //!< size after the last prune: route() re-prunes on 2x growth
    mutable std::size_t _lastPruned = 0;
    std::vector<Histogram> _latency; //!< per-dst delivery latency
    Probe _probe;

    HandoffFaultModel _faults;
    HandoffRetryPolicy _retry;
    std::uint64_t _lost = 0;
    std::uint64_t _corrupted = 0;
    std::uint64_t _spiked = 0;
    std::uint64_t _retries = 0;
    std::uint64_t _deadLetters = 0;
};

} // namespace pageforge

#endif // PF_SHARD_CROSS_MC_ROUTER_HH
