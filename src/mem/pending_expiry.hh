/**
 * @file
 * Expiry index of the memory controller's in-flight reads.
 *
 * Every read the controller issues leaves a (completion tick, line)
 * pair here, mirroring its PendingReadMap insert, so a prune can erase
 * exactly the map entries whose completion precedes the prune time.
 * Pairs are bucketed by absolute completion time: bucket key
 * `done >> shift`, kept in a ring of numBuckets chains at slot
 * `key % numBuckets`, so a slot can also hold pairs completing whole
 * ring turns later. The index keeps a lower bound on every stored
 * completion. Every pair to expire at `now` then lies in the slots of
 * keys from the bound's up to `now`'s, and a prune visits only those:
 * every slot before `now`'s holds expiring pairs (and at most some
 * later-turn ones), and `now`'s own slot is partly expired. A span
 * wider than the ring visits each slot once. Bucketing uses absolute
 * time only, never a walker's clock: request times are not monotonic
 * across walkers, so a prune may come from behind earlier prunes,
 * and an insert may land before them.
 *
 * An insert only appends to a flat staging array. The next prune
 * expires the staged pairs that completed before it and buckets the
 * rest, so a pair that expires by the next prune is never bucketed,
 * and the insert path writes one sequential array as before.
 *
 * Storage is one pool of fixed-size chunks, allocated in blocks that
 * never move; each slot chains its chunks and keeps every chunk but
 * the tail full, so the pool holds the stored pairs plus at most one
 * partial chunk per slot. A prune compacts each visited chain and
 * returns emptied chunks to a free list.
 */

#ifndef PF_MEM_PENDING_EXPIRY_HH
#define PF_MEM_PENDING_EXPIRY_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace pageforge
{

/** Completion-time buckets of (done, line) pairs, pruned by expiry. */
class PendingExpiryIndex
{
  public:
    /** Pairs stored. */
    std::size_t size() const { return _size; }

    /** Drop every pair, keeping the chunk pool's blocks. */
    void
    clear()
    {
        _staged.clear();
        _links.clear();
        _free = none;
        std::fill(_buckets.begin(), _buckets.end(), Chain{});
        _min = maxTick;
        _size = 0;
    }

    /** Record a read of @p addr completing at @p done. */
    void
    insert(Tick done, Addr addr)
    {
        _staged.push_back({done, addr});
        ++_size;
        _min = std::min(_min, done);
    }

    /**
     * Remove every pair with `done < now`, calling @p expire(done,
     * addr) once for each, and no other pair. The order of the calls
     * is unspecified.
     */
    template <class Expire>
    void
    prune(Tick now, Expire &&expire)
    {
        if (now <= _min)
            return;
        // Every pair's key is at least the bound's, so the pairs to
        // expire sit in the buckets of keys [lo, key]; a span wider
        // than the ring visits each bucket once.
        Tick key = now >> shift;
        Tick lo = _min >> shift;
        bool whole = key - lo >= numBuckets;
        if (whole)
            lo = key - (numBuckets - 1);
        Tick min = maxTick;
        for (Tick k = lo; k <= key; ++k)
            filter(_buckets[k & bucketMask], now, expire, min);

        // Pairs recorded since the last prune: most expire before
        // they need a bucket.
        for (const Staged &p : _staged) {
            if (p.done < now) {
                expire(p.done, p.addr);
                --_size;
            } else {
                append(_buckets[(p.done >> shift) & bucketMask], p.done,
                       p.addr);
                min = std::min(min, p.done);
            }
        }
        _staged.clear();

        // The survivors seen are `now`'s own bucket, pairs of later
        // ring turns and the newly bucketed; every unvisited pair's
        // key is past `now`'s.
        if (_size == 0)
            _min = maxTick;
        else if (whole)
            _min = min;
        else
            _min = std::min(min, (key + 1) << shift);
    }

    /**
     * Panic unless the index is consistent: every bucketed pair lies
     * in the bucket its completion tick maps to, the lower bound is at
     * most every stored pair's tick, every chain's chunks but the tail
     * are full, and the chains and the free list account for every
     * chunk of the pool and every stored pair.
     */
    void
    audit() const
    {
        std::size_t pairs = 0;
        std::size_t chunks = 0;
        for (std::size_t b = 0; b < numBuckets; ++b) {
            const Chain &c = _buckets[b];
            pf_assert((c.head == none) == (c.tail == none),
                      "expiry chain head/tail disagree");
            for (std::uint32_t i = c.head; i != none;
                 i = _links[i].next) {
                const Link &link = _links[i];
                pf_assert(link.count > 0 && link.count <= chunkPairs,
                          "expiry chunk holds %u pairs", link.count);
                pf_assert((link.next == none) == (i == c.tail),
                          "expiry chain tail mislinked");
                pf_assert(link.next == none || link.count == chunkPairs,
                          "partial expiry chunk inside a chain");
                for (std::uint32_t j = 0; j < link.count; ++j) {
                    Tick done = chunk(i).done[j];
                    pf_assert(((done >> shift) & bucketMask) == b,
                              "pair done=%llu in bucket %zu",
                              static_cast<unsigned long long>(done), b);
                    pf_assert(_min <= done, "min bound %llu above %llu",
                              static_cast<unsigned long long>(_min),
                              static_cast<unsigned long long>(done));
                }
                pairs += link.count;
                ++chunks;
            }
        }
        for (const Staged &p : _staged) {
            pf_assert(_min <= p.done, "min bound %llu above staged %llu",
                      static_cast<unsigned long long>(_min),
                      static_cast<unsigned long long>(p.done));
        }
        pairs += _staged.size();
        for (std::uint32_t i = _free; i != none; i = _links[i].next)
            ++chunks;
        pf_assert(pairs == _size, "index counts %zu pairs, chains hold %zu",
                  _size, pairs);
        pf_assert(chunks == _links.size(),
                  "%zu of %zu expiry chunks unaccounted for",
                  _links.size() - chunks, _links.size());
    }

  private:
    // A bucket is 2^10 ticks (0.5 us) wide and the ring of 1024 spans
    // 2^20 ticks, well past the ~64k ticks by which walkers' clocks
    // lead each other, so only prunes spanning a far-lagging pair's
    // completion visit the whole ring. Eight pairs fill a 128-byte
    // chunk.
    static constexpr unsigned shift = 10;
    static constexpr Tick numBuckets = 1024; //!< a power of two
    static constexpr Tick bucketMask = numBuckets - 1;
    static constexpr std::uint32_t chunkPairs = 8;
    static constexpr std::uint32_t none = ~std::uint32_t{0};

    /**
     * The pairs of one chunk, ticks apart from lines: a filter reads a
     * survivor's tick only. (Aligning chunks to host cache lines made
     * every block an aligned allocation, which fragmented the heap.)
     */
    struct Chunk
    {
        Tick done[chunkPairs];
        Addr addr[chunkPairs];
    };

    /** A chunk's fill and chain link, kept apart from its pairs. */
    struct Link
    {
        std::uint32_t count;
        std::uint32_t next;
    };

    /** A chain of pool chunks; only the tail may be partly filled. */
    struct Chain
    {
        std::uint32_t head = none;
        std::uint32_t tail = none;
    };

    /** A pair recorded since the last prune, not yet bucketed. */
    struct Staged
    {
        Tick done;
        Addr addr;
    };

    /** Chunks per pool block: 8 KB that never move once allocated. */
    static constexpr std::uint32_t blockChunks = 64;

    std::vector<Staged> _staged;
    std::vector<std::unique_ptr<Chunk[]>> _blocks;
    std::vector<Link> _links;   //!< one per chunk handed out
    std::uint32_t _free = none; //!< free chunks, linked through next
    std::vector<Chain> _buckets = std::vector<Chain>(numBuckets);
    /**
     * A lower bound on every stored pair's completion tick (maxTick
     * when empty): a prune at a time not past it erases nothing.
     */
    Tick _min = maxTick;
    std::size_t _size = 0;

    Chunk &
    chunk(std::uint32_t i)
    {
        return _blocks[i / blockChunks][i % blockChunks];
    }

    const Chunk &
    chunk(std::uint32_t i) const
    {
        return _blocks[i / blockChunks][i % blockChunks];
    }

    void
    append(Chain &c, Tick done, Addr addr)
    {
        if (c.tail == none || _links[c.tail].count == chunkPairs) {
            std::uint32_t fresh = allocChunk();
            if (c.tail == none)
                c.head = fresh;
            else
                _links[c.tail].next = fresh;
            c.tail = fresh;
        }
        std::uint32_t j = _links[c.tail].count++;
        chunk(c.tail).done[j] = done;
        chunk(c.tail).addr[j] = addr;
    }

    std::uint32_t
    allocChunk()
    {
        std::uint32_t i = _free;
        if (i != none) {
            _free = _links[i].next;
        } else {
            i = static_cast<std::uint32_t>(_links.size());
            if (i / blockChunks == _blocks.size())
                _blocks.emplace_back(new Chunk[blockChunks]);
            _links.emplace_back();
        }
        _links[i] = {0, none};
        return i;
    }

    /**
     * Expire the pairs of @p c completing before @p now, compacting the
     * survivors to the head of the chain (folding their minimum into
     * @p min) and returning the emptied chunks to the free list.
     */
    template <class Expire>
    void
    filter(Chain &c, Tick now, Expire &expire, Tick &min)
    {
        if (c.head == none)
            return;
        std::uint32_t w = c.head;
        std::uint32_t kept = 0;
        for (std::uint32_t r = c.head; r != none; r = _links[r].next) {
            // Survivors move only towards the head, so the write
            // position never passes the read position.
            std::uint32_t n = _links[r].count;
            const Chunk &src = chunk(r);
            for (std::uint32_t i = 0; i < n; ++i) {
                Tick done = src.done[i];
                if (done < now) {
                    expire(done, src.addr[i]);
                    --_size;
                    continue;
                }
                min = std::min(min, done);
                if (kept == chunkPairs) {
                    _links[w].count = kept;
                    w = _links[w].next;
                    kept = 0;
                }
                if (w != r || kept != i) {
                    chunk(w).done[kept] = done;
                    chunk(w).addr[kept] = src.addr[i];
                }
                ++kept;
            }
        }
        if (kept == 0) {
            // Compaction fills the head first: nothing survived.
            _links[c.tail].next = _free;
            _free = c.head;
            c = Chain{};
            return;
        }
        std::uint32_t rest = _links[w].next;
        _links[w].count = kept;
        if (rest != none) {
            _links[w].next = none;
            _links[c.tail].next = _free;
            _free = rest;
            c.tail = w;
        }
    }
};

} // namespace pageforge

#endif // PF_MEM_PENDING_EXPIRY_HH
