#!/usr/bin/env python3
"""Compare a fresh simulation-speed report against the committed baseline.

Usage: check_perf_regression.py CURRENT.json BASELINE.json [--tolerance=0.10]

Either file holds one report object or a list of them. Reports are
matched by machine configuration — the memory-controller count
(num_mcs), so the classic 1-MC machine gates against the 1-MC
baseline and the multi-controller machine against its own. Schema v2
records the field; legacy v1 reports (which predate the knob) are
accepted and read as the 1-MC machine.

A matched pair fails (exit 1) when the fresh report's aggregate
events/sec fall more than the tolerance below the baseline's. The
committed baseline was measured on a dedicated box; CI runners are
shared and slower in absolute terms, so the gate can be widened for CI
with PF_PERF_TOLERANCE (a fraction, e.g. 0.5) without touching the
script. A current report whose configuration has no baseline entry is
an error (exit 2): commit a baseline before gating on it.

Any cell failure in the fresh report is a hard failure regardless of
speed: a cell that crashed produces no events to count.
"""

import json
import os
import sys

SCHEMAS = ("pageforge-simspeed-v1", "pageforge-simspeed-v2")


def load_reports(path):
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as err:
        print(f"check_perf_regression: cannot read {path}: {err}",
              file=sys.stderr)
        sys.exit(2)
    reports = data if isinstance(data, list) else [data]
    for report in reports:
        if report.get("schema") not in SCHEMAS:
            print(f"check_perf_regression: {path} has unexpected "
                  f"schema {report.get('schema')!r}", file=sys.stderr)
            sys.exit(2)
    return reports


def config_key(report):
    return report.get("num_mcs", 1)


def check_pair(current, baseline, tolerance):
    label = f"[num_mcs={config_key(current)}]"

    if current.get("failures", 0):
        print(f"FAIL {label}: {current['failures']} cell(s) failed in "
              "the current run")
        return False

    cur = current["events_per_sec"]
    base = baseline["events_per_sec"]
    floor = base * (1.0 - tolerance)
    ratio = cur / base if base else float("inf")
    ok = cur >= floor
    verdict = "OK" if ok else "FAIL"
    print(f"{verdict} {label}: {cur:,.0f} events/s vs baseline "
          f"{base:,.0f} ({ratio:.2%}, floor {floor:,.0f} at tolerance "
          f"{tolerance:.0%})")

    # Per-cell breakdown for the artifact log: regressions rarely hit
    # every cell equally, and the slowest cell names the culprit.
    base_cells = {(c["app"], c["mode"], c.get("seed")): c
                  for c in baseline.get("cells", [])}
    for cell in current.get("cells", []):
        key = (cell["app"], cell["mode"], cell.get("seed"))
        ref = base_cells.get(key)
        if not ref or not ref.get("events_per_sec"):
            continue
        cell_ratio = cell["events_per_sec"] / ref["events_per_sec"]
        print(f"  {cell['app']:>10s}/{cell['mode']:<9s} "
              f"{cell['events_per_sec']:>12,.0f} ev/s  "
              f"({cell_ratio:.2%} of baseline)")
    return ok


def main(argv):
    tolerance = float(os.environ.get("PF_PERF_TOLERANCE", "0.10"))
    paths = []
    for arg in argv[1:]:
        if arg.startswith("--tolerance="):
            tolerance = float(arg.split("=", 1)[1])
        else:
            paths.append(arg)
    if len(paths) != 2:
        print(__doc__, file=sys.stderr)
        sys.exit(2)

    currents = load_reports(paths[0])
    baselines = {config_key(r): r for r in load_reports(paths[1])}

    ok = True
    for current in currents:
        baseline = baselines.get(config_key(current))
        if baseline is None:
            print(f"check_perf_regression: no baseline entry for "
                  f"num_mcs={config_key(current)} in {paths[1]}",
                  file=sys.stderr)
            sys.exit(2)
        ok &= check_pair(current, baseline, tolerance)

    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main(sys.argv)
