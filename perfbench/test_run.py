"""Tests of run.py: strict command line, output checks, declared metrics.

Run from this directory: python3 -m unittest -v test_run
"""

import contextlib
import io
import json
import os
import unittest

import run

GOOD = ["--workload", "ksm", "--seed", "1", "--seconds", "5", "--trace", "0"]


def with_value(flag, value):
    args = list(GOOD)
    args[args.index(flag) + 1] = value
    return args


class CommandLineTest(unittest.TestCase):
    def rejects(self, argv):
        with contextlib.redirect_stderr(io.StringIO()):
            with self.assertRaises(SystemExit) as ctx:
                run.parse_args(argv)
        self.assertNotEqual(ctx.exception.code, 0, argv)

    def test_accepts_well_formed_arguments(self):
        args = run.parse_args(GOOD)
        self.assertEqual((args.workload, args.seed, args.seconds, args.trace),
                         ("ksm", 1, 5, False))
        self.assertEqual(run.parse_args(with_value("--seed", "0")).seed, 0)
        self.assertEqual(
            run.parse_args(with_value("--seed", str(2**64 - 1))).seed,
            2**64 - 1)
        self.assertTrue(run.parse_args(with_value("--trace", "1")).trace)
        self.assertEqual(
            run.parse_args(with_value("--workload", "all")).workload, "all")
        self.assertEqual(run.parse_args(
            ["--workload=baseline", "--seed=3", "--seconds=1",
             "--trace=1"]).seed, 3)

    def test_rejects_malformed_values(self):
        bad = {
            "--seed": ["abc", "12x", "-1", "+1", "", " 1", "1.0", "1e3",
                       "0x10", "١", str(2**64)],
            "--seconds": ["0", "-5", "10s", "151", "", "2.5"],
            "--trace": ["2", "-1", "yes", "true", ""],
            "--workload": ["nope", "baseline ", "", "KSM", "pageforge-4mc"],
        }
        for flag, values in bad.items():
            for value in values:
                with self.subTest(flag=flag, value=value):
                    self.rejects(with_value(flag, value))

    def test_rejects_malformed_command_lines(self):
        self.rejects(GOOD + ["--seed", "2"])
        self.rejects(GOOD + ["--seed=2"])
        self.rejects(GOOD[:-2])
        self.rejects(GOOD + ["--lanes", "2"])
        self.rejects(["--work", "ksm"] + GOOD[2:])
        self.rejects(GOOD + ["extra"])


def record(app, rep, digest="d", ok=True, traced=False, wall=1.0,
           phases=0.5):
    return {"app": app, "rep": rep, "digest": digest, "ok": ok,
            "error": "" if ok else "no queries", "traced": traced,
            "wall_s": wall, "phases": {"system.window_s": phases}}


class OutputCheckTest(unittest.TestCase):
    def test_consistent_records_pass(self):
        recs = [record("silo", 0), record("silo", 1, traced=True)]
        self.assertEqual(run.check(recs), [])

    def test_failed_cell_is_reported(self):
        recs = [record("silo", 0, ok=False)]
        self.assertEqual(len(run.check(recs)), 1)

    def test_digest_mismatch_is_reported(self):
        recs = [record("silo", 0), record("silo", 1, digest="e")]
        self.assertIn("differ", run.check(recs)[0])

    def test_phases_beyond_wall_clock_are_reported(self):
        recs = [record("silo", 1, traced=True, wall=1.0, phases=1.5)]
        self.assertIn("exceed", run.check(recs)[0])

    def test_sum_of_medians(self):
        recs = [record("a", r, wall=w) for r, w in enumerate([1, 5, 2])]
        recs += [record("b", r, wall=w) for r, w in enumerate([3, 4])]
        self.assertEqual(run.sum_of_medians(recs, lambda r: r["wall_s"]),
                         2 + 3.5)


COUNTERS = (
    "events window_events l1_accesses l3_accesses l3_app_accesses "
    "l3_app_misses dram_reads dram_writes row_hits row_misses ecc_encodes "
    "merges cow_breaks frames_saved frames_used mapped_pages "
    "ksm_pages_scanned ksm_merges jhash_false_matches jhash_comparisons "
    "core_pages_scanned core_merges core_batches core_refills "
    "core_os_checks ecc_false_matches ecc_comparisons handoffs clones "
    "shutdowns frames_freed").split()


def runner_record(app, rep, traced, wall=2.0, phase=0.25, probe=0.004):
    """A record shaped like perfbench_cells' output."""
    sites = {s: [[1, 10]] * len(run.PHASES)
             for s in list(run.SITES) + ["trace-flush", "metrics-sample"]}
    return {"app": app, "rep": rep, "traced": traced, "ok": True,
            "error": "", "digest": "d", "wall_s": wall, "probe_s": probe,
            "phases": {p: phase for p in run.PHASES},
            "counters": {k: 3 for k in COUNTERS}, "p95_sojourn_ms": 1.5,
            "sites": sites,
            "lanes": {"quanta": 1, "phase1_ns": 1, "drain_ns": 1,
                      "phase2_ns": 1, "phase2_efficiency": 0.5}}


class DeclaredMetricsTest(unittest.TestCase):
    """run.py emits exactly the metrics BENCHMARK.json declares."""

    def setUp(self):
        path = os.path.join(run.BENCH_DIR, "..", "BENCHMARK.json")
        with open(path) as f:
            self.declared = json.load(f)
        self.untraced = [runner_record(a, 0, False) for a in "ab"]
        self.traced = [runner_record(a, 1, True) for a in "ab"]

    def declared_units(self, key):
        return {m["name"]: m["unit"] for m in self.declared[key]}

    def emitted_units(self, metrics):
        return {name: unit for name, (_, unit) in metrics.items()}

    def test_end_to_end(self):
        metrics = run.end_to_end(self.untraced, 2048)
        self.assertEqual(self.emitted_units(metrics),
                         self.declared_units("end_to_end"))
        self.assertTrue(all(v > 0 for v, _ in metrics.values()))

    def test_per_layer(self):
        metrics = run.per_layer(self.untraced, self.traced)
        self.assertEqual(self.emitted_units(metrics),
                         self.declared_units("per_layer"))
        # Phase spans plus the remainder add up to the cell walls.
        phases = sum(metrics[p][0] for p in run.PHASES)
        self.assertAlmostEqual(phases + metrics["bench.unaccounted_s"][0],
                               metrics["bench.traced_wall_s"][0])

    def test_spans_come_from_one_repetition_per_cell(self):
        # Repetitions differ, so medians taken span by span would not
        # add up to the median wall clock.
        spans = [(3.0, 0.4), (1.0, 0.1), (2.0, 0.3), (5.0, 0.2)]
        traced = [runner_record("a", r, True, wall=w, phase=p)
                  for r, (w, p) in enumerate(spans)]
        traced.append(runner_record("b", 0, True, wall=4.0, phase=0.5))
        metrics = run.per_layer(self.untraced, traced)
        # Cell a's lower-median repetition is the 2.0 s one.
        self.assertAlmostEqual(metrics["bench.traced_wall_s"][0], 2.0 + 4.0)
        self.assertAlmostEqual(metrics["system.window_s"][0], 0.3 + 0.5)
        phases = sum(metrics[p][0] for p in run.PHASES)
        self.assertAlmostEqual(phases + metrics["bench.unaccounted_s"][0],
                               metrics["bench.traced_wall_s"][0])
        self.assertAlmostEqual(metrics["bench.unaccounted_s"][0],
                               6.0 - len(run.PHASES) * 0.8)

    def test_timings_are_normalized_by_the_probe(self):
        # The same cells on a host at half speed, where the cells and
        # the probe both take twice as long, give the same timings.
        fast = [runner_record(a, 0, False, wall=2.0, phase=0.25,
                              probe=0.004) for a in "ab"]
        slow = [runner_record(a, 0, False, wall=4.0, phase=0.5,
                              probe=0.008) for a in "ab"]
        for name in ("wall_s", "setup_s"):
            self.assertAlmostEqual(run.end_to_end(fast, 2048)[name][0],
                                   run.end_to_end(slow, 2048)[name][0])
        scale = run.PROBE_REFERENCE_S / 0.004
        self.assertAlmostEqual(run.end_to_end(slow, 2048)["wall_s"][0],
                               2 * 2.0 * scale)
        self.assertAlmostEqual(run.end_to_end(slow, 2048)["setup_s"][0],
                               2 * 2 * 0.25 * scale)
        # The per-layer rows keep the host's own seconds.
        metrics = run.per_layer(slow, self.traced)
        self.assertAlmostEqual(metrics["bench.host_wall_s"][0], 8.0)

    def test_workloads(self):
        self.assertEqual(tuple(w["name"] for w in self.declared["workloads"]),
                         run.WORKLOADS)


if __name__ == "__main__":
    unittest.main()
