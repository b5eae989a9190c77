/**
 * @file
 * CPU cost model for the software merging daemon, plus shared
 * hash-key instrumentation.
 *
 * Memory latency is charged mechanically by driving every touched
 * line through the cache hierarchy; these parameters cover the pure
 * compute component (compare loops, jhash arithmetic, page table and
 * tree bookkeeping, TLB shootdowns on merge).
 */

#ifndef PF_KSM_COST_MODEL_HH
#define PF_KSM_COST_MODEL_HH

#include <cstdint>

#include "sim/types.hh"

namespace pageforge
{

/**
 * Cycle costs of ksmd's compute, per operation.
 *
 * Calibration note: memory-system latency is charged mechanically by
 * driving every touched line through the caches, but this simulator
 * runs scaled-down memory images (thousands of pages instead of the
 * paper's 16 GB), which makes trees shallow and metadata cache-warm.
 * The constants below therefore fold in the kernel-side costs the
 * scaling hides — rmap walks, page locking, mmu-notifier calls, tree
 * metadata misses — calibrated, together with the mechanical fetch
 * latencies under the scaled cache hierarchy, so a scanned page costs
 * what Table 4
 * implies for the real system: pages_to_scan=400 per 5 ms interval at
 * ~68% duty of one core is ~53K cycles per scanned page, split
 * roughly 52% page comparison / 15% hash generation / 33% other.
 */
struct KsmCostModel
{
    /** Byte-wise memcmp loop per 64 B line (~0.75 B/cycle). */
    Tick compareLineCycles = 115;

    /**
     * Tree-walk bookkeeping per node visited: node locking, rmap
     * item dereference, metadata misses.
     */
    Tick nodeOverheadCycles = 11000;

    /** jhash + checksum bookkeeping per 32-bit word hashed. */
    Tick hashWordCycles = 135;

    /**
     * Per-candidate overhead for a page that is actually processed:
     * cursor advance, page lookup and locking, rmap maintenance.
     */
    Tick candidateOverheadCycles = 80000;

    /** Cheap skip of an already-merged (or unmapped) page. */
    Tick skipOverheadCycles = 2300;

    /** Page-table remap + TLB shootdown for a merge. */
    Tick mergeCycles = 2500;

    /** Making a page copy-on-write (both pages on unstable merge). */
    Tick cowProtectCycles = 1200;

    /** Daemon wakeup / scheduler switch at each work interval. */
    Tick wakeupCycles = 3000;

    /** Tree node insert/remove bookkeeping. */
    Tick treeUpdateCycles = 3000;
};

/**
 * Outcomes of hash-key comparisons at the unstable-tree decision
 * point, for both key schemes side by side (Figure 8). A "false
 * match" is a key match on a page whose contents actually changed
 * since the previous pass (harmless: a wasted unstable-tree search).
 */
struct HashKeyStats
{
    std::uint64_t jhashMatches = 0;
    std::uint64_t jhashMismatches = 0;
    std::uint64_t jhashFalseMatches = 0;

    std::uint64_t eccMatches = 0;
    std::uint64_t eccMismatches = 0;
    std::uint64_t eccFalseMatches = 0;

    std::uint64_t
    comparisons() const
    {
        return jhashMatches + jhashMismatches;
    }

    double
    matchFraction(bool ecc) const
    {
        std::uint64_t total = comparisons();
        if (!total)
            return 0.0;
        return static_cast<double>(ecc ? eccMatches : jhashMatches) /
            static_cast<double>(total);
    }

    double
    falseMatchFraction(bool ecc) const
    {
        std::uint64_t total = comparisons();
        if (!total)
            return 0.0;
        return static_cast<double>(
                   ecc ? eccFalseMatches : jhashFalseMatches) /
            static_cast<double>(total);
    }

    void
    reset()
    {
        *this = HashKeyStats{};
    }
};

/** Cycle accounting of the daemon, by activity (Table 4 columns). */
struct DaemonCycleStats
{
    Tick compareCycles = 0; //!< page comparisons (tree searches)
    Tick hashCycles = 0;    //!< hash key generation
    Tick otherCycles = 0;   //!< bookkeeping, merges, wakeups

    Tick
    total() const
    {
        return compareCycles + hashCycles + otherCycles;
    }

    double
    fraction(Tick part) const
    {
        Tick sum = total();
        return sum ? static_cast<double>(part) / static_cast<double>(sum)
                   : 0.0;
    }

    void
    reset()
    {
        *this = DaemonCycleStats{};
    }
};

/** Merge-activity counters common to KSM and the PageForge driver. */
struct MergeStats
{
    std::uint64_t pagesScanned = 0;
    std::uint64_t stableMerges = 0;   //!< merged with a stable page
    std::uint64_t unstableMerges = 0; //!< new pair merged
    std::uint64_t pagesDropped = 0;   //!< changed, raced or poisoned
    std::uint64_t stableSearches = 0;
    std::uint64_t unstableSearches = 0;
    std::uint64_t fullPasses = 0;

    std::uint64_t
    merges() const
    {
        return stableMerges + unstableMerges;
    }

    void
    reset()
    {
        *this = MergeStats{};
    }
};

struct PageState;
struct EccOffsets;
class PhysicalMemory;

/** Outcome of the per-candidate hash check (Algorithm 1, line 11). */
struct HashCheckOutcome
{
    bool firstScan = false;       //!< no previous keys existed
    bool trulyChanged = false;    //!< whole-page fingerprint differs
    bool unchangedByJhash = false;//!< jhash key matched previous pass
    bool unchangedByEcc = false;  //!< ECC key matched previous pass
    std::uint32_t jhashKey = 0;
    std::uint32_t eccKey = 0;
};

/**
 * Compute this pass's jhash and ECC keys for a candidate page, record
 * the Figure 8 match/mismatch/false-positive statistics against the
 * previous pass's keys, and store the new keys in the page state.
 *
 * Both daemons call this at the same algorithmic point; KSM acts on
 * the jhash outcome and the PageForge driver on the ECC outcome.
 */
HashCheckOutcome checkPageHashes(const std::uint8_t *data,
                                 PageState &page,
                                 const EccOffsets &offsets,
                                 HashKeyStats &stats);

/**
 * Hash-cache-aware variant over the page's mapped frame. When the
 * frame and its write generation still match the page's hash-skip
 * cache (and the ECC offsets are unchanged), the page content is
 * provably identical to the previous scan, so the stored keys are
 * reused and the match counters advance exactly as a recomputation
 * would. Otherwise falls through to the computing overload and
 * refreshes the cache. Outcomes and statistics are bit-identical to
 * always recomputing; only host hashing work is skipped.
 */
HashCheckOutcome checkPageHashes(const PhysicalMemory &mem,
                                 FrameId frame, PageState &page,
                                 const EccOffsets &offsets,
                                 HashKeyStats &stats);

} // namespace pageforge

#endif // PF_KSM_COST_MODEL_HH
