/**
 * @file
 * Host speed probe: a fixed reference kernel the cell runner times
 * between cells.
 *
 * The shared virtual machines this benchmark runs on change speed by
 * up to 1.6x, over seconds and over hours, as other tenants load the
 * same physical cores. Medians over repetitions remove the short
 * bursts but not the slow drift. The probe inserts into and erases
 * from a node-based hash table, allocating as it goes: the same kind
 * of hashing, allocation and pointer chasing as the simulator's own
 * hot paths, so it slows down when the simulator does. A cell's wall
 * clock divided by the probe time taken around it no longer depends
 * much on the host's speed at that moment. An ALU loop, a pointer
 * chase or a cache model resident in L2 tracks the simulator's
 * slowdowns less well (README.md, "Host noise").
 *
 * The kernel must never change: every normalized timing the benchmark
 * reports is in units of it.
 */

#ifndef PERFBENCH_HOST_PROBE_HH
#define PERFBENCH_HOST_PROBE_HH

#include <cstdint>

namespace perfbench
{

/** One run of the probe kernel. */
struct ProbeRun
{
    double seconds = 0.0;      //!< host wall clock of the kernel
    std::uint64_t entries = 0; //!< final table size; always the same
};

/** Run the reference kernel once (about 7 ms on a 2.1 GHz Xeon). */
ProbeRun probeHost();

} // namespace perfbench

#endif // PERFBENCH_HOST_PROBE_HH
