/**
 * @file
 * Memory controller with ECC engine and request coalescing.
 *
 * Matches the paper's Figure 3: read/write request buffers in front of
 * the DRAM, an ECC encoder on the write path and decoder on the read
 * path, and the attachment point for the PageForge module. Requests to
 * a line that already has a read in flight are coalesced with the
 * pending request (Section 3.2.2), whether the earlier request came
 * from a core or from PageForge.
 */

#ifndef PF_MEM_MEM_CONTROLLER_HH
#define PF_MEM_MEM_CONTROLLER_HH

#include <unordered_map>
#include <utility>
#include <vector>

#include "ecc/line_ecc.hh"
#include "mem/dram_model.hh"
#include "mem/pending_reads.hh"
#include "mem/phys_memory.hh"
#include "mem/request.hh"
#include "sim/sim_object.hh"

namespace pageforge
{

/** Completion info for a line read through the controller. */
struct McReadResult
{
    Tick done;       //!< tick the line (and its ECC) is available
    LineEccCode ecc; //!< ECC code delivered by the decoder
    bool coalesced;  //!< merged with an already-pending read
};

/** The memory controller. */
class MemController : public SimObject
{
  public:
    MemController(std::string name, EventQueue &eq, PhysicalMemory &mem,
                  const DramConfig &config);

    /**
     * Read a 64 B line from DRAM.
     *
     * The ECC decoder runs on every read (and is counted), but the
     * modelled code's *value* only matters to PageForge, which snatches
     * it for hash key generation (Section 3.3.2). Computing the 8-way
     * Hamming encode per line dominated simulation time, so the value
     * is materialized only when @p want_ecc is set; otherwise the
     * returned ecc field is zero and must not be consumed.
     *
     * @param line_addr line-aligned host physical address
     * @param now request arrival tick
     * @param req requester class
     * @param want_ecc materialize the line's ECC code in the result
     */
    McReadResult readLine(Addr line_addr, Tick now, Requester req,
                          bool want_ecc = false);

    /**
     * Write a 64 B line to DRAM (posted write through the write data
     * buffer; the returned tick is when the DRAM burst completes, but
     * callers need not wait on it).
     */
    Tick writeLine(Addr line_addr, Tick now, Requester req);

    /**
     * Generate the ECC code of a line whose data was supplied by the
     * on-chip network rather than the DRAM. "If the line comes from a
     * cache, the circuitry in the memory controller quickly generates
     * the line's ECC code" (Section 3.3.1).
     *
     * The encode is always counted (the hardware always runs); pass
     * @p compute = false when the caller will discard the value to
     * skip the host-side Hamming work and get a zero code back.
     */
    LineEccCode encodeLine(Addr line_addr, bool compute = true);

    /**
     * Fault injection: flip @p bit (0..511) of the stored copy of a
     * line the next time DRAM returns it. Single flips are corrected
     * by the SECDED decode on the read path (and counted); injecting
     * two bits into the same 64-bit word produces a detected
     * uncorrectable error.
     *
     * A transient fault (the default) models a radiation upset: the
     * scrub after the first read (or a subsequent write of the line)
     * clears it. A @p persistent fault models a stuck-at cell: it
     * reasserts itself on every read and survives writebacks.
     */
    void injectBitFlip(Addr line_addr, unsigned bit,
                       bool persistent = false);

    /** Single-bit errors corrected on the read path. */
    std::uint64_t correctedErrors() const { return _corrected.value(); }

    /** Uncorrectable (double-bit) errors detected on the read path. */
    std::uint64_t uncorrectableErrors() const {
        return _uncorrectable.value();
    }

    PhysicalMemory &memory() { return _mem; }
    DramModel &dram() { return _dram; }
    const DramModel &dram() const { return _dram; }

    /**
     * Clear in-flight request state (pending-read coalescing map and
     * DRAM bank/channel availability). Used at the warm-up boundary:
     * synchronous fast-forward passes leave completion ticks far in
     * the virtual future, and a later demand read must not coalesce
     * onto them.
     */
    void resetTiming();

    /**
     * Fault injection: scale the service latency of every subsequent
     * read and write by @p scale (a channel brownout — voltage droop
     * or thermal throttle stretching the DRAM timing). 1.0 restores
     * nominal service; the scaling is applied to the request's queue +
     * burst time on top of `now`, so coalescing and ordering are
     * unaffected. No-op at nominal scale: fault-free runs take the
     * unscaled path untouched.
     */
    void setLatencyScale(double scale)
    {
        pf_assert(scale >= 1.0, "latency scale %.2f below nominal", scale);
        _latencyScale = scale;
    }

    double latencyScale() const { return _latencyScale; }

    std::uint64_t eccEncodes() const { return _eccEncodes.value(); }
    std::uint64_t eccDecodes() const { return _eccDecodes.value(); }
    std::uint64_t coalescedReads() const { return _coalesced.value(); }

    StatGroup &stats() { return _stats; }

  private:
    PhysicalMemory &_mem;
    DramModel _dram;

    /** Reads in flight, for coalescing: line address -> completion. */
    PendingReadMap _pendingReads;

    /**
     * Unsorted mirror of _pendingReads inserts: lets prunePending()
     * sweep exactly the entries whose completion precedes the sweep
     * time with one linear pass over a flat array, instead of walking
     * the whole map per read. Pairs go stale when a line is
     * re-requested (the map slot is overwritten); a stale pair fails
     * the live-value check at erase time and is skipped. The array is
     * bounded by the prune floor plus the stale pairs accumulated
     * since the last sweep.
     */
    std::vector<std::pair<Tick, Addr>> _pendingPairs;

    /** Earliest completion in _pendingPairs (maxTick when empty). */
    Tick _pendingMin = maxTick;

    /** Map size below which expired entries are left in place. */
    static constexpr std::size_t prunePendingFloor = 4096;

    /** One injected fault: a flipped bit, transient or stuck-at. */
    struct InjectedFault
    {
        unsigned bit;
        bool persistent;
    };

    /** Injected faults applied when DRAM next returns the line. */
    std::unordered_map<Addr, std::vector<InjectedFault>> _injectedFaults;

    /** Brownout service-latency multiplier (1.0 = nominal). */
    double _latencyScale = 1.0;

    Counter _eccEncodes;
    Counter _eccDecodes;
    Counter _coalesced;
    Counter _readReqs;
    Counter _writeReqs;
    Counter _corrected;
    Counter _uncorrectable;
    StatGroup _stats;

    /** Pointer to the backing bytes of a line-aligned address. */
    const std::uint8_t *lineBytes(Addr line_addr) const;

    void prunePending(Tick now);
};

} // namespace pageforge

#endif // PF_MEM_MEM_CONTROLLER_HH
