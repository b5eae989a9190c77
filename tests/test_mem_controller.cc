/**
 * @file
 * Unit tests for the memory controller: ECC engine integration and
 * read-request coalescing (Section 3.2.2).
 */

#include <algorithm>
#include <cstring>
#include <random>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "ecc/ecc_hash_key.hh"
#include "mem/mem_controller.hh"

namespace pageforge
{
namespace
{

class MemControllerTest : public ::testing::Test
{
  protected:
    MemControllerTest()
        : mem(64), mc("mc0", eq, mem, DramConfig{})
    {
        frame = mem.allocFrame();
        for (unsigned i = 0; i < pageSize; ++i)
            mem.data(frame)[i] = static_cast<std::uint8_t>(i * 13);
    }

    EventQueue eq;
    PhysicalMemory mem;
    MemController mc;
    FrameId frame = invalidFrame;
};

TEST_F(MemControllerTest, ReadReturnsEccOfCurrentData)
{
    Addr addr = lineAddr(frame, 3);
    McReadResult result =
        mc.readLine(addr, 0, Requester::App, /*want_ecc=*/true);
    EXPECT_GT(result.done, 0u);
    EXPECT_FALSE(result.coalesced);

    LineEccCode expected = LineEcc::encode(mem.data(frame) + 3 * lineSize);
    EXPECT_EQ(result.ecc, expected);
    EXPECT_EQ(mc.eccDecodes(), 1u);
}

TEST_F(MemControllerTest, ReadWithoutWantEccStillCountsDecode)
{
    // The decode counter models the hardware, which always runs; only
    // the host-side materialization of the code's value is skipped.
    Addr addr = lineAddr(frame, 3);
    McReadResult result = mc.readLine(addr, 0, Requester::App);
    EXPECT_GT(result.done, 0u);
    EXPECT_EQ(mc.eccDecodes(), 1u);
    EXPECT_EQ(result.ecc, LineEccCode{});
}

TEST_F(MemControllerTest, SecondReadOfPendingLineCoalesces)
{
    Addr addr = lineAddr(frame, 0);
    McReadResult first = mc.readLine(addr, 0, Requester::App);
    McReadResult second = mc.readLine(addr, 5, Requester::PageForge);

    EXPECT_TRUE(second.coalesced);
    EXPECT_EQ(second.done, first.done);
    EXPECT_EQ(mc.coalescedReads(), 1u);
    // Only one DRAM access happened.
    EXPECT_EQ(mc.dram().reads(), 1u);
}

TEST_F(MemControllerTest, ReadAfterCompletionDoesNotCoalesce)
{
    Addr addr = lineAddr(frame, 1);
    McReadResult first = mc.readLine(addr, 0, Requester::App);
    McReadResult later =
        mc.readLine(addr, first.done + 1, Requester::App);
    EXPECT_FALSE(later.coalesced);
    EXPECT_EQ(mc.dram().reads(), 2u);
}

TEST_F(MemControllerTest, DistinctLinesDoNotCoalesce)
{
    McReadResult a = mc.readLine(lineAddr(frame, 0), 0, Requester::App);
    McReadResult b = mc.readLine(lineAddr(frame, 1), 0, Requester::App);
    EXPECT_FALSE(a.coalesced);
    EXPECT_FALSE(b.coalesced);
    EXPECT_EQ(mc.dram().reads(), 2u);
}

TEST_F(MemControllerTest, WritesGoThroughEccEncoder)
{
    Tick done = mc.writeLine(lineAddr(frame, 2), 0, Requester::Writeback);
    EXPECT_GT(done, 0u);
    EXPECT_EQ(mc.eccEncodes(), 1u);
    EXPECT_EQ(mc.dram().writes(), 1u);
}

TEST_F(MemControllerTest, EncodeLineMatchesReadPathEcc)
{
    Addr addr = lineAddr(frame, 7);
    LineEccCode from_encode = mc.encodeLine(addr);
    McReadResult from_read =
        mc.readLine(addr, 0, Requester::App, /*want_ecc=*/true);
    EXPECT_EQ(from_encode, from_read.ecc);
}

TEST_F(MemControllerTest, UnalignedAddressPanics)
{
    EXPECT_DEATH(mc.readLine(lineAddr(frame, 0) + 1, 0, Requester::App),
                 "unaligned");
}

TEST_F(MemControllerTest, InjectedSingleBitFaultIsCorrected)
{
    Addr addr = lineAddr(frame, 4);
    mc.injectBitFlip(addr, 100);
    McReadResult result = mc.readLine(addr, 0, Requester::App);
    EXPECT_EQ(mc.correctedErrors(), 1u);
    EXPECT_EQ(mc.uncorrectableErrors(), 0u);
    // The delivered ECC corresponds to the corrected (original) data.
    LineEccCode expected = LineEcc::encode(mem.data(frame) + 4 * lineSize);
    EXPECT_EQ(result.ecc, expected);

    // The fault is consumed: a second read is clean.
    mc.readLine(addr, 100'000, Requester::App);
    EXPECT_EQ(mc.correctedErrors(), 1u);
}

TEST_F(MemControllerTest, DoubleBitFaultInOneWordIsUncorrectable)
{
    Addr addr = lineAddr(frame, 5);
    // Two bits within the same 64-bit word (word 0: bits 0..63).
    mc.injectBitFlip(addr, 3);
    mc.injectBitFlip(addr, 17);
    mc.readLine(addr, 0, Requester::App);
    EXPECT_EQ(mc.uncorrectableErrors(), 1u);
}

TEST_F(MemControllerTest, FaultsInDistinctWordsAllCorrected)
{
    Addr addr = lineAddr(frame, 6);
    // One bit in each of three different words: SECDED corrects all.
    mc.injectBitFlip(addr, 5);        // word 0
    mc.injectBitFlip(addr, 64 + 9);   // word 1
    mc.injectBitFlip(addr, 448 + 60); // word 7
    mc.readLine(addr, 0, Requester::App);
    EXPECT_EQ(mc.correctedErrors(), 3u);
    EXPECT_EQ(mc.uncorrectableErrors(), 0u);
}

TEST_F(MemControllerTest, BandwidthAttributedToRequester)
{
    mc.readLine(lineAddr(frame, 0), 0, Requester::PageForge);
    mc.readLine(lineAddr(frame, 1), 0, Requester::Ksm);
    const BandwidthTracker &bw = mc.dram().bandwidth();
    EXPECT_EQ(bw.totalBytes(Requester::PageForge), lineSize);
    EXPECT_EQ(bw.totalBytes(Requester::Ksm), lineSize);
}

/**
 * Reference model of the controller's read path: the same DRAM model
 * behind a plain map of pending reads, swept whole (every entry with
 * `done < now`) on each miss once it holds the controller's floor of
 * 4096 entries.
 */
class ReferenceController
{
  public:
    explicit ReferenceController(const DramConfig &config)
        : _dram(config)
    {}

    McReadResult
    readLine(Addr line_addr, Tick now, Requester req)
    {
        auto pending = _pending.find(line_addr);
        if (pending != _pending.end() && pending->second >= now &&
            pending->second <= now + 2 * _dram.config().queueHorizon) {
            ++_coalesced;
            return {pending->second, LineEccCode{}, true};
        }
        if (_pending.size() >= 4096) {
            ++_sweeps;
            _erased += std::erase_if(
                _pending, [now](const auto &kv) { return kv.second < now; });
        }
        Tick done = _dram.access(line_addr, now + _dram.config().frontendLat,
                                 false, req);
        if (_latencyScale != 1.0 && done > now)
            done = now + static_cast<Tick>(
                             static_cast<double>(done - now) * _latencyScale);
        if (!_pending.insert_or_assign(line_addr, done).second)
            ++_overwrites; // the controller's pair for it goes stale
        return {done, LineEccCode{}, false};
    }

    void
    resetTiming()
    {
        _pending.clear();
        _dram.resetTiming();
    }

    void setLatencyScale(double scale) { _latencyScale = scale; }
    std::uint64_t coalescedReads() const { return _coalesced; }
    std::uint64_t dramReads() const { return _dram.reads(); }
    std::uint64_t sweeps() const { return _sweeps; }
    std::uint64_t erased() const { return _erased; }
    std::uint64_t overwrites() const { return _overwrites; }

  private:
    DramModel _dram;
    std::unordered_map<Addr, Tick> _pending;
    double _latencyScale = 1.0;
    std::uint64_t _coalesced = 0;
    std::uint64_t _sweeps = 0;
    std::uint64_t _erased = 0;
    std::uint64_t _overwrites = 0;
};

/**
 * Drive the controller and the reference with one seeded stream:
 * @p walkers requesters whose local times lag and lead each other by
 * up to ~64k ticks, re-requests of lines still in flight (which leave
 * stale expiry pairs behind), and a fast-forward pass reading more
 * than 2^28 ticks ahead of them, with a timing reset midway. The pass
 * walks its reads in descending time, so its pairs outlive its own
 * prunes and hold the map above the prune floor: most misses prune.
 * Every read must agree with the reference.
 */
void
runDifferential(std::uint64_t seed, unsigned walkers, double latency_scale)
{
    constexpr std::size_t frames = 1024;
    constexpr unsigned steps = 60'000;
    constexpr Tick maxLag = 65'536;
    constexpr Tick fastForwardStart = Tick{1} << 29;
    EventQueue eq;
    PhysicalMemory mem(frames);
    MemController mc("mc0", eq, mem, DramConfig{});
    ReferenceController ref(DramConfig{});
    if (latency_scale != 1.0) {
        mc.setLatencyScale(latency_scale);
        ref.setLatencyScale(latency_scale);
    }

    std::mt19937_64 rng(seed);
    auto uniform = [&rng](std::uint64_t n) { return rng() % n; };
    // Times stay multiples of 4 ticks, like the DRAM latencies, so
    // prune times often equal pending completions exactly.
    std::vector<Tick> clock(walkers);
    for (Tick &t : clock)
        t = 4 * uniform(maxLag / 4);
    Tick fast_forward = fastForwardStart;
    std::vector<Addr> recent; // lines read lately, any walker
    std::size_t mismatches = 0;
    for (unsigned step = 0; step < steps; ++step) {
        if (step == steps / 2) {
            mc.resetTiming();
            ref.resetTiming();
            fast_forward = fastForwardStart;
        }
        unsigned w = static_cast<unsigned>(uniform(walkers));
        Tick lead = *std::max_element(clock.begin(), clock.end());
        clock[w] += 4 * uniform(4);
        if (lead > clock[w] + maxLag)
            clock[w] += 4 * uniform(maxLag / 4); // a laggard catches up

        Tick now = clock[w];
        std::uint64_t kind = uniform(100);
        bool pass = kind < 25;
        if (pass) {
            fast_forward -= 4 * uniform(16);
            now = fast_forward;
        } else if (kind < 28) {
            now += 4 * uniform(maxLag / 4); // ahead of its own walker
        }
        Addr addr;
        if (kind >= 60 && !recent.empty()) {
            addr = recent[uniform(recent.size())]; // likely in flight
        } else {
            addr = lineAddr(static_cast<FrameId>(uniform(frames)),
                            static_cast<std::uint32_t>(
                                uniform(linesPerPage)));
            // The pass's lines stay out of the walkers' way.
            if (!pass && recent.size() < 512)
                recent.push_back(addr);
            else if (!pass)
                recent[uniform(recent.size())] = addr;
        }
        Requester req = pass ? Requester::Ksm : Requester::App;

        McReadResult got = mc.readLine(addr, now, req);
        McReadResult want = ref.readLine(addr, now, req);
        if (got.done != want.done || got.coalesced != want.coalesced) {
            if (++mismatches <= 5)
                ADD_FAILURE() << "step " << step << " addr " << addr
                              << " now " << now << ": done " << got.done
                              << " coalesced " << got.coalesced
                              << ", reference done " << want.done
                              << " coalesced " << want.coalesced;
        }
        if (step % 997 == 0)
            mc.auditPendingReads();
    }
    mc.auditPendingReads();
    EXPECT_EQ(mismatches, 0u);
    EXPECT_EQ(mc.coalescedReads(), ref.coalescedReads());
    EXPECT_EQ(mc.dram().reads(), ref.dramReads());
    // The stream must reach the regimes it exists to check.
    EXPECT_GT(mc.coalescedReads(), steps / 100);
    EXPECT_GT(ref.sweeps(), steps / 4);
    EXPECT_GT(ref.erased(), steps / 4);
    EXPECT_GT(ref.overwrites(), steps / 100);
}

TEST(MemControllerPruneTest, MatchesFullSweepReferenceTwoWalkers)
{
    runDifferential(1, 2, 1.0);
}

TEST(MemControllerPruneTest, MatchesFullSweepReferenceFourWalkers)
{
    runDifferential(2, 4, 1.0);
}

TEST(MemControllerPruneTest, MatchesFullSweepReferenceUnderBrownout)
{
    runDifferential(3, 3, 2.0);
}

} // namespace
} // namespace pageforge
