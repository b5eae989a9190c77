/**
 * @file
 * Flat hash map of in-flight reads, for request coalescing.
 *
 * The memory controller probes this map on every line read and inserts
 * on every miss, making it one of the hottest data structures in the
 * simulator. A node-based std::unordered_map pays a heap allocation
 * per insert and a pointer chase per lookup; this open-addressing
 * table with linear probing keeps entries in one flat array (one cache
 * miss per operation) and never allocates in steady state. No caller
 * iterates the table, so replacing the standard map cannot change
 * modelled behaviour — lookups, overwrites, and conditional erases see
 * exactly the same key/value state.
 */

#ifndef PF_MEM_PENDING_READS_HH
#define PF_MEM_PENDING_READS_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace pageforge
{

/** Open-addressing map: line address -> completion tick. */
class PendingReadMap
{
  public:
    PendingReadMap() { rehash(initialSlots); }

    std::size_t size() const { return _size; }

    /** Drop every entry, keeping the current capacity. */
    void
    clear()
    {
        std::fill(_slots.begin(), _slots.end(), Slot{emptyKey, 0});
        _size = 0;
    }

    /** Completion tick of @p addr, or nullptr when absent. */
    const Tick *
    find(Addr addr) const
    {
        std::size_t i = home(addr);
        while (true) {
            const Slot &s = _slots[i];
            if (s.addr == addr)
                return &s.done;
            if (s.addr == emptyKey)
                return nullptr;
            i = (i + 1) & _mask;
        }
    }

    /**
     * Insert @p addr or overwrite its existing completion tick; true
     * when the key was new.
     */
    bool
    insertOrAssign(Addr addr, Tick done)
    {
        // Line addresses are 64 B aligned, so the all-ones empty marker
        // can never arrive as a key.
        if (2 * (_size + 1) > _slots.size())
            rehash(2 * _slots.size());
        std::size_t i = home(addr);
        while (true) {
            Slot &s = _slots[i];
            if (s.addr == addr) {
                s.done = done;
                return false;
            }
            if (s.addr == emptyKey) {
                s = {addr, done};
                ++_size;
                return true;
            }
            i = (i + 1) & _mask;
        }
    }

    /**
     * Erase @p addr only when its stored tick equals @p done — the
     * prune path's stale-pair guard (the line may have been
     * re-requested since the pair was recorded). True when erased.
     */
    bool
    eraseIfValue(Addr addr, Tick done)
    {
        std::size_t i = home(addr);
        while (true) {
            const Slot &s = _slots[i];
            if (s.addr == addr)
                break;
            if (s.addr == emptyKey)
                return false;
            i = (i + 1) & _mask;
        }
        if (_slots[i].done != done)
            return false;

        // Backward-shift deletion keeps probe chains gap-free without
        // tombstones: walk forward from the gap and pull back every
        // element whose home position does not lie strictly inside
        // (gap, element].
        std::size_t gap = i;
        _slots[gap].addr = emptyKey;
        --_size;
        std::size_t j = gap;
        while (true) {
            j = (j + 1) & _mask;
            if (_slots[j].addr == emptyKey)
                return true;
            std::size_t h = home(_slots[j].addr);
            if (((j - h) & _mask) >= ((j - gap) & _mask)) {
                _slots[gap] = _slots[j];
                _slots[j].addr = emptyKey;
                gap = j;
            }
        }
    }

  private:
    struct Slot
    {
        Addr addr;
        Tick done;
    };

    static constexpr Addr emptyKey = ~Addr{0};
    static constexpr std::size_t initialSlots = 1024;

    std::vector<Slot> _slots;
    std::size_t _mask = 0;
    std::size_t _size = 0;

    std::size_t
    home(Addr addr) const
    {
        // Fibonacci multiplicative mix; fold the high bits down so the
        // masked index sees them (line addresses differ in low bits).
        std::uint64_t h = static_cast<std::uint64_t>(addr) *
            0x9E3779B97F4A7C15ull;
        h ^= h >> 32;
        return static_cast<std::size_t>(h) & _mask;
    }

    void
    rehash(std::size_t cap)
    {
        std::vector<Slot> old = std::move(_slots);
        _slots.assign(cap, Slot{emptyKey, 0});
        _mask = cap - 1;
        _size = 0;
        for (const Slot &s : old) {
            if (s.addr != emptyKey)
                insertOrAssign(s.addr, s.done);
        }
    }
};

} // namespace pageforge

#endif // PF_MEM_PENDING_READS_HH
