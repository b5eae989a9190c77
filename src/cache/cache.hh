/**
 * @file
 * Set-associative write-back cache tag array with MESI states.
 *
 * Caches in this simulator are tag-only: functional data always lives
 * in PhysicalMemory (writes update it immediately), so the arrays track
 * presence, coherence state, and dirtiness for timing and pollution
 * modelling. This matches what same-page merging stresses: KSM evicts
 * application working sets by streaming pages through the hierarchy,
 * while PageForge bypasses it entirely.
 */

#ifndef PF_CACHE_CACHE_HH
#define PF_CACHE_CACHE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/logging.hh"
#include "sim/simd.hh"
#include "sim/types.hh"
#include "stats/stat_group.hh"

namespace pageforge
{

/** MESI coherence states. */
enum class MesiState : std::uint8_t
{
    Invalid,
    Shared,
    Exclusive,
    Modified,
};

/** Short label for a MESI state. */
const char *mesiName(MesiState state);

/** Geometry and latency of one cache level. */
struct CacheConfig
{
    std::string name;
    std::uint32_t sizeBytes;
    std::uint32_t ways;
    Tick hitLatency; //!< round-trip access latency in ticks
    std::uint32_t mshrs;

    std::uint32_t
    numSets() const
    {
        return sizeBytes / (lineSize * ways);
    }
};

/** A line evicted to make room for a fill. */
struct Victim
{
    bool valid = false;
    Addr addr = 0;
    bool dirty = false;
};

/**
 * Which caches of a hierarchy may hold each line: one bit per core's
 * L2 and one bit for the L3, shared by every cache of the hierarchy.
 * The L1s need no bit: an L1 is a subset of its core's L2. A clear bit
 * proves that cache does not hold the line, so the demand path, the
 * peer snoop and the memory controller's probe scan only the caches
 * whose bit is set — a probe of a cache without the line changes
 * nothing but a miss counter, which Cache::missFast() records alone.
 * Bits move only on the residency transitions inside Cache (fill of
 * an empty way, eviction, invalidation), so the mask is a host-side
 * accelerator: the simulated results cannot depend on it.
 *
 * With at most l2Bits cores every bit belongs to one cache and the
 * mask is exact. Beyond that, core c shares bit c % l2Bits with the
 * other cores of its group; a shared bit is set by any member's fill
 * and cleared only by the hierarchy once probing the whole group finds
 * no holder, so it is a superset. A stale bit costs one probe that
 * misses, never a different result.
 *
 * The array is calloc'd, so a page of it that no fill wrote costs no
 * host memory.
 */
class LineHolders
{
  public:
    using Mask = std::uint16_t;

    /** Bits for the per-core L2s; the top bit is the L3's. */
    static constexpr unsigned l2Bits = 15;
    static constexpr Mask l3Bit = Mask{1} << l2Bits;
    static constexpr Mask allL2Bits = l3Bit - 1;

    /** The bit of core @p core's L2. */
    static Mask
    l2Bit(unsigned core)
    {
        return static_cast<Mask>(Mask{1} << (core % l2Bits));
    }

    explicit LineHolders(std::size_t total_lines);

    /** Bits of the caches that may hold @p line_addr. */
    Mask of(Addr line_addr) const { return _mask[index(line_addr)]; }

    void set(Addr line_addr, Mask bits) { _mask[index(line_addr)] |= bits; }

    void
    clear(Addr line_addr, Mask bits)
    {
        _mask[index(line_addr)] &= static_cast<Mask>(~bits);
    }

  private:
    std::size_t
    index(Addr line_addr) const
    {
        std::size_t i = static_cast<std::size_t>(line_addr / lineSize);
        pf_assert(i < _lines, "line %llx beyond holder-mask range",
                  static_cast<unsigned long long>(line_addr));
        return i;
    }

    std::size_t _lines;
    std::unique_ptr<Mask[], void (*)(void *)> _mask;
};

/** The tag array of one cache. */
class Cache
{
  public:
    explicit Cache(const CacheConfig &config);

    const CacheConfig &config() const { return _config; }

    /**
     * Look up a line and update LRU on hit.
     * @return the line's state, Invalid on miss
     */
    MesiState
    access(Addr line_addr)
    {
        std::size_t idx = findIdx(line_addr);
        if (idx != npos) {
            _lastUsed[idx] = ++_useClock;
            ++_hits;
            return tagState(_tags[idx]);
        }
        ++_misses;
        return MesiState::Invalid;
    }

    /** Look up without disturbing LRU (snoops, invariants, tests). */
    MesiState
    probe(Addr line_addr) const
    {
        std::size_t idx = findIdx(line_addr);
        return idx != npos ? tagState(_tags[idx]) : MesiState::Invalid;
    }

    /** True when the line is present in any valid state. */
    bool
    contains(Addr line_addr) const
    {
        return findIdx(line_addr) != npos;
    }

    /**
     * Fill a line, evicting the set's LRU victim if needed.
     * @return the victim (valid=false when an empty way was used)
     */
    Victim insert(Addr line_addr, MesiState state);

    /**
     * insert() for a line the caller has proven absent: skips the scan
     * for a resident copy.
     * @pre !contains(line_addr)
     */
    Victim fill(Addr line_addr, MesiState state);

    /**
     * Change the state of a resident line.
     * @pre the line is present
     */
    void setState(Addr line_addr, MesiState state);

    /**
     * Drop a line if present.
     * @return true when the line was present and dirty (M)
     */
    bool invalidate(Addr line_addr);

    /** Number of resident lines (for tests). */
    std::size_t residentLines() const;

    std::uint64_t hits() const { return _hits.value(); }
    std::uint64_t misses() const { return _misses.value(); }
    std::uint64_t evictions() const { return _evictions.value(); }

    /** Hit fraction of all accesses so far. */
    double hitRate() const;

    StatGroup &stats() { return _stats; }

    /** Reset hit/miss/eviction counters (start of measurement). */
    void resetStats();

    /**
     * Report this cache's fills, evictions and invalidations to
     * @p holders under @p bit. A bit @p shared with other caches is
     * set on fill but never cleared here (see LineHolders). Must be
     * attached while the cache is empty.
     */
    void
    attachHolders(LineHolders *holders, LineHolders::Mask bit, bool shared)
    {
        _holders = holders;
        _holderBit = bit;
        _clearBit = shared ? 0 : bit;
    }

    /**
     * Record a demand miss without scanning the set. Only valid when
     * the caller has proven the line absent (holder bit clear):
     * access() on an absent line touches nothing but the miss counter.
     */
    void missFast() { ++_misses; }

  private:
    /**
     * The tag array is a structure of arrays: one packed 64-bit tag
     * word per way plus a parallel LRU timestamp array. Line addresses
     * are 64 B aligned, so the MESI state lives in the tag's low two
     * bits (the enum's values) and an Invalid way stores 0 — a set's
     * ways occupy one or two cache lines on the host, against three
     * for the old array-of-structs, and the lookup loop carries no
     * padding. The tag array is the hottest data in the simulator
     * (every modelled memory access probes one or more levels).
     */
    static constexpr std::uint64_t stateMask = 0x3;
    static constexpr std::size_t npos = static_cast<std::size_t>(-1);

    static_assert(static_cast<unsigned>(MesiState::Invalid) == 0 &&
                      static_cast<unsigned>(MesiState::Modified) <= stateMask,
                  "MESI states must pack into the tag's low bits");
    static_assert(lineSize > stateMask,
                  "line alignment must leave room for the state bits");

    static std::uint64_t
    makeTag(Addr line_addr, MesiState state)
    {
        return line_addr | static_cast<std::uint64_t>(state);
    }

    static MesiState
    tagState(std::uint64_t tag)
    {
        return static_cast<MesiState>(tag & stateMask);
    }

    CacheConfig _config;
    std::uint32_t _numSets;
    bool _setsPow2 = true;
    std::vector<std::uint64_t> _tags;     // numSets x ways
    std::vector<std::uint64_t> _lastUsed; // numSets x ways
    std::uint64_t _useClock = 0;
    simd::TagKernels _kernels;
    LineHolders *_holders = nullptr;
    LineHolders::Mask _holderBit = 0;
    LineHolders::Mask _clearBit = 0; //!< 0 when the bit is shared

    /** Fill @p line_addr into the set at @p base (no resident copy). */
    Victim fillSet(std::size_t base, Addr line_addr, MesiState state);

    /** Report that @p line_addr left this cache. */
    void
    noteRemoved(Addr line_addr)
    {
        if (_clearBit)
            _holders->clear(line_addr, _clearBit);
    }

    Counter _hits;
    Counter _misses;
    Counter _evictions;
    StatGroup _stats;

    std::uint32_t
    setIndex(Addr line_addr) const
    {
        std::uint64_t line = line_addr / lineSize;
        // Power-of-two set counts index with a mask; others (e.g. the
        // 20-way L3 of Table 2) fall back to modulo.
        if (_setsPow2)
            return static_cast<std::uint32_t>(line & (_numSets - 1));
        return static_cast<std::uint32_t>(line % _numSets);
    }

    /** Index of the way holding @p line_addr, or npos when absent. */
    std::size_t
    findIdx(Addr line_addr) const
    {
        std::size_t base =
            static_cast<std::size_t>(setIndex(line_addr)) * _config.ways;
        for (std::uint32_t w = 0; w < _config.ways; ++w) {
            // One compare finds the address in any valid state: the
            // xor leaves exactly the packed state bits when the
            // address bits match, so a hit is a value in {1, 2, 3}.
            if ((_tags[base + w] ^ line_addr) - 1 < 3)
                return base + w;
        }
        return npos;
    }
};

} // namespace pageforge

#endif // PF_CACHE_CACHE_HH
