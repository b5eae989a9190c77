#!/usr/bin/env python3
"""Fixed-work benchmark of the PageForge simulator.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds N --trace 0|1

NAME is one of baseline, ksm, pageforge, pageforge-4mc-churn, or
``all`` (every workload, untraced then traced). The script builds the
simulator and the cell runner from source into ``.bench_build/``, runs
the workload's fixed cell set repeatedly for about --seconds, checks
every cell's outputs, prints one digest line per cell and a metric
table, and ends with one JSON line:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer
ones. See perfbench/README.md for what each metric means.
"""

import argparse
import json
import math
import os
import re
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = ".bench_build"
RUNNER = os.path.join(BUILD_DIR, "perfbench_cells")
WORKLOADS = ("baseline", "ksm", "pageforge", "pageforge-4mc-churn")
MAX_SECONDS = 150  # perfbench_cells' own limit (cli.hh maxSeconds)
RUNNER_TIMEOUT_S = 175

# Profiler sites (src/prof) by the module that owns the probe.
SITES = {
    "event-dispatch": "sim.event_dispatch",
    "content-tree-search": "ksm.tree_search",
    "simd-compare": "sim.simd_compare",
    "ecc-compute": "ecc.compute",
    "scan-table-walk": "core.scan_table_walk",
}
# Seconds one run of the host speed probe (host_probe.hh) takes on the
# 4-vCPU Xeon host of the README's figures (its median there). It
# only sets the scale of the normalized timings: they read as seconds
# on a host where the probe takes this long.
PROBE_REFERENCE_S = 0.0075
PHASES = ("system.construct_s", "system.deploy_s", "hyper.analyze_dup_s",
          "system.warmup_s", "system.settle_s", "system.window_s")


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _uint(text, lo, hi, what):
    if not re.fullmatch(r"[0-9]+", text):
        raise argparse.ArgumentTypeError(
            f"{what} must be a non-negative decimal integer, got {text!r}")
    value = int(text)
    if not lo <= value <= hi:
        raise argparse.ArgumentTypeError(
            f"{what} must be in [{lo}, {hi}], got {value}")
    return value


def seed_arg(text):
    return _uint(text, 0, 2**64 - 1, "seed")


def seconds_arg(text):
    return _uint(text, 1, MAX_SECONDS, "seconds")


def trace_arg(text):
    return _uint(text, 0, 1, "trace") == 1


def workload_arg(text):
    if text != "all" and text not in WORKLOADS:
        raise argparse.ArgumentTypeError(
            f"unknown workload {text!r}; choose from "
            f"{', '.join(WORKLOADS)} or all")
    return text


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="Fixed-work benchmark of the PageForge simulator.",
        allow_abbrev=False)
    parser.add_argument("--workload", type=workload_arg, required=True)
    parser.add_argument("--seed", type=seed_arg, required=True)
    parser.add_argument("--seconds", type=seconds_arg, required=True)
    parser.add_argument("--trace", type=trace_arg, required=True)
    args = parser.parse_args(argv)
    for flag in ("--workload", "--seed", "--seconds", "--trace"):
        if sum(a == flag or a.startswith(flag + "=") for a in argv) > 1:
            parser.error(f"{flag} given more than once")
    return args


def build():
    """Configure once, then bring the cell runner up to date."""
    out = sys.stderr
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=out, stderr=out, check=True)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target",
                    "perfbench_cells", "-j", "4"],
                   stdout=out, stderr=out, check=True)


def run_cells(workload, seed, seconds, trace):
    """Run the cell runner; return (cell records, peak RSS in KiB)."""
    proc = subprocess.run(
        [RUNNER, f"--workload={workload}", f"--seed={seed}",
         f"--seconds={seconds}", f"--trace={int(trace)}"],
        stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
        timeout=RUNNER_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"perfbench_cells exited {proc.returncode}")
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    if not lines or "peak_rss_kb" not in lines[-1]:
        raise BenchError("perfbench_cells output is incomplete")
    return lines[:-1], lines[-1]["peak_rss_kb"]


def by_app(records):
    """Records grouped per cell, in the runner's cell order."""
    groups = {}
    for rec in records:
        groups.setdefault(rec["app"], []).append(rec)
    return groups


def sum_of_medians(records, fn):
    """Per cell, the median over repetitions; summed over the cells."""
    return sum(statistics.median(fn(r) for r in reps)
               for reps in by_app(records).values())


def normalized(rec, seconds):
    """A span of cell record rec at the reference host speed: divided by
    the probe time around the cell, times PROBE_REFERENCE_S."""
    return seconds / rec["probe_s"] * PROBE_REFERENCE_S


def setup_seconds(rec):
    return (rec["phases"]["system.construct_s"] +
            rec["phases"]["system.deploy_s"])


def median_reps(records):
    """Per cell, the repetition with the median wall clock (the lower
    one of an even count). Taking every span of a cell from one
    repetition keeps the spans additive."""
    return [sorted(reps, key=lambda r: r["wall_s"])[(len(reps) - 1) // 2]
            for reps in by_app(records).values()]


def ratio(num, den):
    return num / den if den else 0.0


def check(records):
    """Output checks across cells and repetitions; returns problems."""
    problems = []
    for rec in records:
        if not rec["ok"]:
            problems.append(f"{rec['app']} rep {rec['rep']}: "
                            f"{rec['error']}")
    for app, reps in by_app(records).items():
        if len({r["digest"] for r in reps}) != 1:
            problems.append(f"{app}: simulated results differ between "
                            f"repetitions (traced or not)")
        for r in reps:
            if not r["traced"]:
                continue
            unaccounted = r["wall_s"] - sum(r["phases"].values())
            if unaccounted < -1e-6:
                problems.append(f"{app}: phase spans exceed the cell "
                                f"wall clock by {-unaccounted:.6f} s")
    return problems


def end_to_end(records, peak_rss_kb):
    counters = [r["counters"] for r in records if r["rep"] == 0]
    return {
        "wall_s": (sum_of_medians(
            records, lambda r: normalized(r, r["wall_s"])), "s"),
        "setup_s": (sum_of_medians(
            records, lambda r: normalized(r, setup_seconds(r))), "s"),
        "peak_rss_mb": (peak_rss_kb / 1024.0, "MB"),
        "sim_footprint_ratio": (ratio(
            sum(c["frames_used"] for c in counters),
            sum(c["mapped_pages"] for c in counters)), "ratio"),
    }


def per_layer(untraced, traced):
    reps = median_reps(traced)
    m = {}
    for phase in PHASES:
        m[phase] = (sum(r["phases"][phase] for r in reps), "s")
    m["bench.traced_wall_s"] = (sum(r["wall_s"] for r in reps), "s")
    m["bench.unaccounted_s"] = (
        m["bench.traced_wall_s"][0] - sum(m[p][0] for p in PHASES), "s")
    m["bench.host_wall_s"] = (
        sum_of_medians(untraced, lambda r: r["wall_s"]), "s")
    m["bench.probe_s"] = (
        statistics.median(r["probe_s"] for r in untraced + traced), "s")

    for site, name in SITES.items():
        m[f"{name}_s"] = (sum(ns for r in reps
                              for _, ns in r["sites"][site]) / 1e9, "s")
        m[f"{name}.calls"] = (sum(n for r in reps
                                  for n, _ in r["sites"][site]), "count")

    def lanes(key):
        return sum(r["lanes"][key] for r in reps)

    m["sim.lanes.quanta"] = (lanes("quanta"), "count")
    for key in ("phase1", "drain", "phase2"):
        m[f"sim.lanes.{key}_s"] = (lanes(f"{key}_ns") / 1e9, "s")
    m["sim.lanes.phase2_efficiency"] = (ratio(
        sum(r["lanes"]["phase2_efficiency"] * r["lanes"]["phase2_ns"]
            for r in reps), lanes("phase2_ns")), "ratio")

    # Work counters are simulated quantities: identical in every
    # repetition (check() holds them to that).
    c = {k: sum(r["counters"][k] for r in reps) for k in reps[0]["counters"]}
    window_s = m["system.window_s"][0]
    p95 = [r["p95_sojourn_ms"] for r in reps]
    m.update({
        "workload.p95_sojourn_ms": (math.exp(statistics.fmean(
            math.log(v) for v in p95)) if all(v > 0 for v in p95)
            else 0.0, "ms"),
        "sim.events": (c["events"], "count"),
        "sim.window_ns_per_event": (
            ratio(window_s * 1e9, c["window_events"]), "ns/event"),
        "cache.l1_accesses": (c["l1_accesses"], "count"),
        "cache.l3_accesses": (c["l3_accesses"], "count"),
        "cache.l3_app_miss_rate": (
            ratio(c["l3_app_misses"], c["l3_app_accesses"]), "ratio"),
        "cache.window_ns_per_l1_access": (
            ratio(window_s * 1e9, c["l1_accesses"]), "ns/access"),
        "mem.dram_reads": (c["dram_reads"], "count"),
        "mem.dram_writes": (c["dram_writes"], "count"),
        "mem.row_hit_rate": (ratio(
            c["row_hits"], c["row_hits"] + c["row_misses"]), "ratio"),
        "mem.ecc_encodes": (c["ecc_encodes"], "count"),
        "hyper.merges": (c["merges"], "count"),
        "hyper.cow_breaks": (c["cow_breaks"], "count"),
        "hyper.frames_saved": (c["frames_saved"], "count"),
        "ksm.pages_scanned": (c["ksm_pages_scanned"], "count"),
        "ksm.merges_per_scanned_page": (
            ratio(c["ksm_merges"], c["ksm_pages_scanned"]), "ratio"),
        "ksm.jhash_false_match_rate": (
            ratio(c["jhash_false_matches"], c["jhash_comparisons"]),
            "ratio"),
        "core.pages_scanned": (c["core_pages_scanned"], "count"),
        "core.batches": (c["core_batches"], "count"),
        "core.refills": (c["core_refills"], "count"),
        "core.os_checks": (c["core_os_checks"], "count"),
        "core.merges_per_scanned_page": (
            ratio(c["core_merges"], c["core_pages_scanned"]), "ratio"),
        "ecc.key_false_match_rate": (
            ratio(c["ecc_false_matches"], c["ecc_comparisons"]), "ratio"),
        "shard.handoffs": (c["handoffs"], "count"),
        "lifecycle.clones": (c["clones"], "count"),
        "lifecycle.shutdowns": (c["shutdowns"], "count"),
        "lifecycle.frames_freed": (c["frames_freed"], "count"),
    })
    m["prof.overhead_frac"] = (ratio(
        m["bench.traced_wall_s"][0],
        sum_of_medians(untraced, lambda r: r["wall_s"])) - 1.0, "ratio")
    return m


def print_site_breakdown(traced, out):
    """Profiler seconds per phase: where each site's time was spent."""
    reps = median_reps(traced)
    print(f"{'site (s, per phase)':<24}" +
          "".join(f"{p.split('.')[1][:-2]:>12}" for p in PHASES), file=out)
    for site, name in SITES.items():
        row = [sum(r["sites"][site][i][1] for r in reps) / 1e9
               for i in range(len(PHASES))]
        print(f"{name:<24}" + "".join(f"{v:>12.4f}" for v in row),
              file=out)


def run_workload(workload, seed, seconds, trace):
    """One measured run; returns (correct, attempted, failed, metrics)."""
    records, peak_rss_kb = run_cells(workload, seed, seconds, trace)
    if not records:
        raise BenchError("perfbench_cells ran no cell")
    problems = check(records)
    for p in problems:
        print(f"perfbench: {workload}: {p}", file=sys.stderr)
    first_rep = min(r["rep"] for r in records)
    for r in records:
        if r["rep"] == first_rep:
            print(f"digest {workload} {r['app']} {r['digest']}")

    untraced = [r for r in records if not r["traced"]]
    traced = [r for r in records if r["traced"]]
    if trace:
        metrics = per_layer(untraced, traced)
        print_site_breakdown(traced, sys.stdout)
    else:
        metrics = end_to_end(untraced, peak_rss_kb)
        print(f"host timings, not normalized: wall_s "
              f"{sum_of_medians(untraced, lambda r: r['wall_s']):.6f} "
              f"setup_s {sum_of_medians(untraced, setup_seconds):.6f} "
              f"probe_s "
              f"{statistics.median(r['probe_s'] for r in untraced):.6f}")
    failed = sum(not r["ok"] for r in records)
    return not problems, len(records), failed, metrics


def print_table(title, metrics):
    print(f"== {title}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<36} {value:>18.6f} {unit}")


def main(argv):
    args = parse_args(argv)
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    plan = ([(w, t) for w in WORKLOADS for t in (False, True)]
            if args.workload == "all" else [(args.workload, args.trace)])
    correct, attempted, failed, metrics = True, 0, 0, {}
    try:
        for workload, trace in plan:
            ok, n, bad, m = run_workload(workload, args.seed, args.seconds,
                                         trace)
            print_table(f"{workload} ({'traced' if trace else 'untraced'})",
                        m)
            correct = correct and ok
            attempted += n
            failed += bad
            prefix = f"{workload}." if args.workload == "all" else ""
            metrics.update({prefix + k: v for k, v in m.items()})
    except (BenchError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
