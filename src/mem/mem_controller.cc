#include "mem/mem_controller.hh"

#include <cstring>
#include <vector>

#include "prof/profiler.hh"
#include "sim/logging.hh"

namespace pageforge
{

const char *
requesterName(Requester req)
{
    switch (req) {
      case Requester::App:
        return "app";
      case Requester::Ksm:
        return "ksm";
      case Requester::PageForge:
        return "pageforge";
      case Requester::Writeback:
        return "writeback";
      case Requester::Os:
        return "os";
    }
    return "?";
}

MemController::MemController(std::string name, EventQueue &eq,
                             PhysicalMemory &mem, const DramConfig &config)
    : SimObject(std::move(name), eq), _mem(mem), _dram(config),
      _stats(this->name())
{
    _stats.addCounter("read_reqs", "line read requests", _readReqs);
    _stats.addCounter("write_reqs", "line write requests", _writeReqs);
    _stats.addCounter("coalesced_reads",
                      "reads merged with a pending request", _coalesced);
    _stats.addCounter("ecc_encodes", "lines encoded by the ECC engine",
                      _eccEncodes);
    _stats.addCounter("ecc_decodes", "lines decoded by the ECC engine",
                      _eccDecodes);
    _stats.addCounter("ecc_corrected", "single-bit errors corrected",
                      _corrected);
    _stats.addCounter("ecc_uncorrectable",
                      "uncorrectable errors detected", _uncorrectable);
    _stats.addChild(_dram.stats());
}

const std::uint8_t *
MemController::lineBytes(Addr line_addr) const
{
    pf_assert(line_addr % lineSize == 0, "unaligned line address");
    FrameId frame = addrToFrame(line_addr);
    std::uint32_t offset =
        static_cast<std::uint32_t>(line_addr % pageSize);
    // rawData, not data: stale cached lines of a frame freed by a VM
    // teardown are still written back / read through this path.
    return _mem.rawData(frame) + offset;
}

void
MemController::resetTiming()
{
    _pendingReads.clear();
    _pendingExpiry.clear();
    _stalePairs = 0;
    _dram.resetTiming();
}

void
MemController::prunePending(Tick now)
{
    // Erase every pending entry whose completion precedes `now` — the
    // same erase set as a full-map sweep, so coalescing behaviour is
    // unchanged. (Request times are not monotonic across walkers, so
    // an entry expired for this caller may still coalesce for a later
    // caller with an earlier local time: the erase set is observable
    // and must match the reference sweep exactly.) The expiry index
    // visits only the buckets from the earliest pending completion up
    // to `now`'s, the last partly expired. Walkers lagging the others
    // in local time would retire nothing; its lower bound on pending
    // completions proves those prunes empty in one compare.
    if (_pendingReads.size() < prunePendingFloor)
        return;
    _pendingExpiry.prune(now, [this](Tick done, Addr addr) {
        // Stale pairs — the line was re-requested and the map slot
        // overwritten — fail the value check and are dropped.
        if (!_pendingReads.eraseIfValue(addr, done))
            --_stalePairs;
    });
}

void
MemController::auditPendingReads() const
{
    _pendingExpiry.audit();
    pf_assert(_pendingExpiry.size() == _pendingReads.size() + _stalePairs,
              "expiry index holds %zu pairs for %zu entries + %zu stale",
              _pendingExpiry.size(), _pendingReads.size(), _stalePairs);
}

void
MemController::injectBitFlip(Addr line_addr, unsigned bit,
                             bool persistent)
{
    pf_assert(line_addr % lineSize == 0, "unaligned line address");
    pf_assert(bit < lineSize * 8, "bit index %u out of line", bit);
    _injectedFaults[line_addr].push_back({bit, persistent});
}

McReadResult
MemController::readLine(Addr line_addr, Tick now, Requester req,
                        bool want_ecc)
{
    pf_assert(line_addr % lineSize == 0, "unaligned line address");
    ++_readReqs;

    // ECC decode happens on every read response regardless of source
    // (and is counted as such), but the code's value is only
    // materialized when a consumer asked for it or a fault decode
    // needs the pristine code.
    ++_eccDecodes;
    LineEccCode ecc{};
    if (want_ecc) {
        prof::ScopedTimer timer(prof::Site::EccCompute);
        ecc = LineEcc::encode(lineBytes(line_addr));
    }

    // Apply injected DRAM faults: the stored ECC corresponds to the
    // original data; decode sees the corrupted bits and corrects or
    // flags them, exactly as the real read path would.
    if (auto fault = _injectedFaults.find(line_addr);
        fault != _injectedFaults.end()) {
        if (!want_ecc)
            ecc = LineEcc::encode(lineBytes(line_addr));
        std::uint8_t corrupted[lineSize];
        std::memcpy(corrupted, lineBytes(line_addr), lineSize);
        for (const InjectedFault &f : fault->second)
            corrupted[f.bit / 8] ^=
                static_cast<std::uint8_t>(1 << (f.bit % 8));
        // The post-read scrub clears transient upsets; stuck-at cells
        // reassert themselves on the next read.
        std::erase_if(fault->second,
                      [](const InjectedFault &f) { return !f.persistent; });
        if (fault->second.empty())
            _injectedFaults.erase(fault);

        LineEcc::LineDecodeResult decode = LineEcc::decode(corrupted, ecc);
        if (!decode.ok) {
            ++_uncorrectable;
            probe().instant("uncorrectable-ecc", curTick(),
                            {"addr", static_cast<double>(line_addr)});
            pf_warn(DramBw, "uncorrectable ECC error at %llx",
                    static_cast<unsigned long long>(line_addr));
            // Quarantine the frame: its current mappings keep working
            // off the (pristine) arena copy, but the dedup machinery
            // withdraws it and the allocator never hands it out again.
            _mem.poisonFrame(addrToFrame(line_addr));
            probe().instant(
                "frame-poisoned", curTick(),
                {"frame",
                 static_cast<double>(addrToFrame(line_addr))});
            // A consumer of the delivered code (PageForge's hash-key
            // snatcher) sees a code consistent with the garbled data,
            // not with the pristine line.
            if (want_ecc)
                ecc = LineEcc::encode(corrupted);
        } else if (decode.corrected > 0) {
            _corrected += decode.corrected;
            // Corrected data matches the pristine copy; the scrub
            // rewrites DRAM, so nothing else changes functionally.
        }
    }

    const Tick *pending = _pendingReads.find(line_addr);
    if (pending && *pending >= now &&
        *pending <= now + 2 * _dram.config().queueHorizon) {
        // An earlier request for the same line is still in flight:
        // coalesce with it instead of issuing a second DRAM access.
        // Entries completing beyond the queue horizon belong to
        // another walker's local future and are not visible here
        // (see DramConfig::queueHorizon).
        ++_coalesced;
        return {*pending, ecc, true};
    }

    prunePending(now);
    Tick done = _dram.access(line_addr, now + _dram.config().frontendLat,
                             false, req);
    if (_latencyScale != 1.0 && done > now) {
        // Brownout: stretch the service time (queue wait + burst) by
        // the configured multiplier. Fault-free runs never enter here.
        done = now + static_cast<Tick>(
                         static_cast<double>(done - now) * _latencyScale);
    }
    if (!_pendingReads.insertOrAssign(line_addr, done))
        ++_stalePairs;
    _pendingExpiry.insert(done, line_addr);
    return {done, ecc, false};
}

Tick
MemController::writeLine(Addr line_addr, Tick now, Requester req)
{
    pf_assert(line_addr % lineSize == 0, "unaligned line address");
    ++_writeReqs;
    // Writes pass through the ECC encoder into the write data buffer.
    ++_eccEncodes;
    // Writing the line replaces the cell contents: pending transient
    // upsets are overwritten, stuck-at cells are not.
    if (auto fault = _injectedFaults.find(line_addr);
        fault != _injectedFaults.end()) {
        std::erase_if(fault->second,
                      [](const InjectedFault &f) { return !f.persistent; });
        if (fault->second.empty())
            _injectedFaults.erase(fault);
    }
    Tick done = _dram.access(line_addr, now + _dram.config().frontendLat,
                             true, req);
    if (_latencyScale != 1.0 && done > now)
        done = now + static_cast<Tick>(
                         static_cast<double>(done - now) * _latencyScale);
    return done;
}

LineEccCode
MemController::encodeLine(Addr line_addr, bool compute)
{
    ++_eccEncodes;
    if (!compute)
        return LineEccCode{};
    prof::ScopedTimer timer(prof::Site::EccCompute);
    return LineEcc::encode(lineBytes(line_addr));
}

} // namespace pageforge
