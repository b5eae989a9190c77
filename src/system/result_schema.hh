/**
 * @file
 * The result schema: each ExperimentResult leaf is declared once, in a
 * describe() field list below, with its JSON key, unit, comparison
 * class and the condition under which its group is present. The JSON
 * writer, identicalResults(), pfsim's tables and the coverage tests
 * are visitors over these lists; key order here is JSON key order.
 *
 * A visitor provides:
 * - field(key, unit, value, cls = Exact): one leaf. A null key keeps
 *   it out of JSON and tables; it still takes part in identity.
 * - section(key, present, body): body() declares more fields, as a
 *   JSON object under key, or inline when key is null. Emitting
 *   visitors skip it unless present; identity visits it regardless.
 * - list(key, unit, items, cls = Exact): a vector of described
 *   structs or of integers; its length is a leaf of class cls.
 */

#ifndef PF_SYSTEM_RESULT_SCHEMA_HH
#define PF_SYSTEM_RESULT_SCHEMA_HH

#include <concepts>
#include <cstdint>
#include <type_traits>

#include "prof/profiler.hh"
#include "system/experiment.hh"

namespace pageforge
{

/** How a field takes part in result identity and report diffs. */
enum class FieldClass : std::uint8_t
{
    Exact,    //!< simulated outcome: compared bit for bit
    Host,     //!< host wall-clock or telemetry: never compared
    Profiled, //!< simulated and compared, emitted only when profiling
};

/** Whether identicalResults() compares fields of class @p cls. */
constexpr bool
comparedClass(FieldClass cls)
{
    return cls == FieldClass::Exact || cls == FieldClass::Profiled;
}

/** S is T, possibly const: one describe() serves readers and writers. */
template <class S, class T>
concept SchemaOf = std::same_as<std::remove_const_t<S>, T>;

/** Declare @p sub's field list as the section @p key of @p v. */
template <class V, class S>
void
nest(V &v, const char *key, S &sub, bool present = true)
{
    v.section(key, present, [&] { describe(sub, v); });
}

template <class V, SchemaOf<DupAnalysis> S>
void
describe(S &d, V &v)
{
    v.field("mapped_pages", "page", d.mappedPages);
    v.field("unmergeable", "page", d.unmergeable);
    v.field("mergeable_zero", "page", d.mergeableZero);
    v.field("mergeable_non_zero", "page", d.mergeableNonZero);
    v.field("frames_used", "frame", d.framesUsed);
    v.field("frames_if_fully_merged", "frame", d.framesIfFullyMerged);
}

template <class V, SchemaOf<HashKeyStats> S>
void
describe(S &h, V &v)
{
    v.field("jhash_matches", "compare", h.jhashMatches);
    v.field("jhash_mismatches", "compare", h.jhashMismatches);
    v.field("jhash_false_matches", "compare", h.jhashFalseMatches);
    v.field("ecc_matches", "compare", h.eccMatches);
    v.field("ecc_mismatches", "compare", h.eccMismatches);
    v.field("ecc_false_matches", "compare", h.eccFalseMatches);
}

template <class V, SchemaOf<PhaseSnapshot> S>
void
describe(S &p, V &v)
{
    v.field("tick", "ticks", p.tick);
    v.field("frames_used", "frame", p.framesUsed);
    v.field("mapped_pages", "page", p.mappedPages);
    v.field("live_vms", "VM", p.liveVms);
}

template <class V, SchemaOf<LifecycleSummary> S>
void
describe(S &l, V &v)
{
    v.field(nullptr, "", l.enabled);
    v.field("clones", "VM", l.clones);
    v.field("boots", "VM", l.boots);
    v.field("shutdowns", "VM", l.shutdowns);
    v.field("skipped_arrivals", "VM", l.skippedArrivals);
    v.field("frames_freed", "frame", l.framesFreed);
    v.field("mean_unmerge_storm", "page", l.meanUnmergeStorm);
    v.field("mean_reclaim_us", "us", l.meanReclaimUs);
    v.field("mean_recovery_ms", "ms", l.meanRecoveryMs);
    v.field("p95_recovery_ms", "ms", l.p95RecoveryMs);
    v.field("recovery_timeouts", "VM", l.recoveryTimeouts);
}

template <class V, SchemaOf<FaultSummary> S>
void
describe(S &f, V &v)
{
    v.field(nullptr, "", f.enabled);
    v.field("flip_events", "event", f.flipEvents);
    v.field("single_bit_flips", "flip", f.singleBitFlips);
    v.field("double_bit_flips", "flip", f.doubleBitFlips);
    v.field("stuck_at_faults", "fault", f.stuckAtFaults);
    v.field("minikey_targeted", "flip", f.minikeyTargeted);
    v.field("table_corruptions", "fault", f.tableCorruptions);
    v.field("race_writes", "write", f.raceWrites);
    v.field("skipped_no_target", "event", f.skippedNoTarget);
    v.field("corrected_errors", "error", f.correctedErrors);
    v.field("uncorrectable_errors", "error", f.uncorrectableErrors);
    v.field("poisoned_frames", "frame", f.poisonedFrames);
    v.field("quarantined_frames", "frame", f.quarantinedFrames);
    v.field("false_key_matches", "compare", f.falseKeyMatches);
    v.field("offset_rotations", "rotation", f.offsetRotations);
    v.field("merge_aborts", "merge", f.mergeAborts);
    v.field("merge_retries", "merge", f.mergeRetries);
    v.field("hw_hash_races", "race", f.hwHashRaces);
    v.field("oracle_checks", "merge", f.oracleChecks);
    v.field("cross_mc_checks", "merge", f.crossMcChecks);
    v.field("oracle_violations", "merge", f.oracleViolations);
    v.field("mc_wedges_injected", "wedge", f.mcWedgesInjected);
    v.field("brownouts", "brownout", f.brownouts);
    v.field("handoffs_lost", "handoff", f.handoffsLost);
    v.field("handoffs_corrupted", "handoff", f.handoffsCorrupted);
    v.field("handoffs_spiked", "handoff", f.handoffsSpiked);
    v.field("handoff_retries", "handoff", f.handoffRetries);
    v.field("handoff_dead_letters", "handoff", f.handoffDeadLetters);
    v.field("wedges_detected", "wedge", f.wedgesDetected);
    v.field("module_restarts", "restart", f.moduleRestarts);
    v.field("failovers", "failover", f.failovers);
    v.field("readmissions", "readmission", f.readmissions);
    v.field("rehomed_prefixes", "prefix", f.rehomedPrefixes);
    v.field("health_transitions", "transition", f.healthTransitions);
}

template <class V, SchemaOf<McSummary> S>
void
describe(S &mc, V &v)
{
    v.field("scans", "page", mc.scans);
    v.field("merges", "merge", mc.merges);
    v.field("handoffs_in", "handoff", mc.handoffsIn);
    v.field("handoffs_out", "handoff", mc.handoffsOut);
    v.field("table_occupancy", "entry", mc.tableOccupancy);
    // Health machinery exists only under an MC-scale fault campaign.
    v.section(nullptr, !mc.health.empty(), [&] {
        v.field("health", "state", mc.health);
        v.field("health_transitions", "transition",
                mc.healthTransitions);
        v.field("wedges", "wedge", mc.wedges);
        v.field("quarantines", "quarantine", mc.quarantines);
        v.field("readmissions", "readmission", mc.readmissions);
    });
    v.section("handoff_latency", prof::enabled(), [&] {
        constexpr FieldClass gated = FieldClass::Profiled;
        v.field("count", "handoff", mc.handoffLatCount, gated);
        v.field("mean_ticks", "ticks", mc.handoffLatMeanTicks, gated);
        v.field("min_ticks", "ticks", mc.handoffLatMinTicks, gated);
        v.field("max_ticks", "ticks", mc.handoffLatMaxTicks, gated);
        v.field("p50_ticks", "ticks", mc.handoffLatP50Ticks, gated);
        v.field("p95_ticks", "ticks", mc.handoffLatP95Ticks, gated);
    });
}

template <class V, SchemaOf<LaneExecStats> S>
void
describe(S &lane, V &v)
{
    constexpr FieldClass host = FieldClass::Host;
    v.field("busy_ns", "ns", lane.busyNs, host);
    v.field("idle_ns", "ns", lane.idleNs, host);
    v.field("stall_ns", "ns", lane.stallNs, host);
}

template <class V, SchemaOf<ExecSummary> S>
void
describe(S &e, V &v)
{
    constexpr FieldClass host = FieldClass::Host;
    v.field(nullptr, "", e.enabled, host);
    v.field("quanta", "quantum", e.quanta, host);
    v.field("phase1_ns", "ns", e.phase1Ns, host);
    v.field("drain_ns", "ns", e.drainNs, host);
    v.field("phase2_ns", "ns", e.phase2Ns, host);
    v.field("mailbox_hwm", "message", e.mailboxHwm, host);
    v.field("phase2_efficiency", "ratio", e.phase2Efficiency, host);
    v.list("lanes", "", e.lanes, host);
}

template <class V, SchemaOf<ExperimentResult> S>
void
describe(S &r, V &v)
{
    // The cell record carries app and mode; identity compares them.
    v.field(nullptr, "", r.app);
    v.field(nullptr, "", r.mode);
    v.field("mean_sojourn_ms", "ms", r.meanSojournMs);
    v.field("p95_sojourn_ms", "ms", r.p95SojournMs);
    v.field("queries", "query", r.queries);
    nest(v, "dup", r.dup);
    nest(v, "dup_before", r.dupBefore);
    nest(v, "dup_warm", r.dupWarm);
    v.field("l3_miss_rate", "ratio", r.l3MissRate);
    v.field("l3_app_miss_rate", "ratio", r.l3AppMissRate);
    v.field("ksm_cycle_frac_avg", "ratio", r.ksmCycleFracAvg);
    v.field("ksm_cycle_frac_max", "ratio", r.ksmCycleFracMax);
    v.field("ksm_compare_frac", "ratio", r.ksmCompareFrac);
    v.field("ksm_hash_frac", "ratio", r.ksmHashFrac);
    nest(v, "hash", r.hashStats);
    v.field("baseline_phase_bw_gbps", "GB/s", r.baselinePhaseBwGBps);
    v.field("dedup_phase_bw_gbps", "GB/s", r.dedupPhaseBwGBps);
    v.field("pf_batch_cycles_avg", "cycles", r.pfBatchCyclesAvg);
    v.field("pf_batch_cycles_stddev", "cycles", r.pfBatchCyclesStddev);
    v.field("pf_refills", "batch", r.pfRefills);
    v.field("pf_os_checks", "check", r.pfOsChecks);
    v.field("pf_pages_scanned", "page", r.pfPagesScanned);
    v.field("merges", "merge", r.merges);
    v.field("cow_breaks", "break", r.cowBreaks);
    v.field("sim_events", "event", r.simEvents);
    v.field("pages_scanned", "page", r.pagesScanned);
    v.field("host_seconds", "s", r.hostSeconds, FieldClass::Host);
    // Churn runs only, like every optional group below, so reports of
    // configurations without it keep their bytes.
    v.section(nullptr, r.lifecycle.enabled, [&] {
        nest(v, "lifecycle", r.lifecycle);
        v.list("phases", "", r.phases);
    });
    nest(v, "faults", r.faults, r.faults.enabled);
    v.section(nullptr, r.numMcs > 1, [&] {
        v.field("num_mcs", "controller", r.numMcs);
        v.list("mcs", "", r.perMc);
    });
    nest(v, "exec", r.exec, r.exec.enabled);
    // Observability output: identity ignores it, so sampling metrics
    // never perturbs a result, but --same-as compares it when present.
    v.section(nullptr, !r.metrics.empty(), [&] {
        v.field("metrics", "", r.metrics, FieldClass::Host);
    });
}

} // namespace pageforge

#endif // PF_SYSTEM_RESULT_SCHEMA_HH
