#!/usr/bin/env python3
"""Assert on a pfsim JSON report, or diff it against another.

usage: check_campaign.py REPORT [--modes=M,N] [--expect=EXPR ...]
                                [--same-as=OTHER]

REPORT is what `pfsim --json=FILE` writes (campaign mode, or one cell
in single mode). Any other JSON object, e.g. `trace_summary --json`,
is checked once, as a whole, in place of a cell's result.

--expect=EXPR must hold for the result of every selected cell, and
every selected cell must have run ok. EXPR is `LHS OP RHS`, OP one of
== != >= <= > <, each side a JSON literal (3, 0.5, "healthy") or a
path into the result:
  faults.oracle_violations   a field
  mcs[].health               every element (the list must not be empty)
  tracks[pid=2].spans        every element whose pid is 2
  sum(mcs[].handoffs_in)     sum over elements; len(mcs) list length
  $.profile.sites            a path from the report root
--modes=M,N keeps only cells of those modes (baseline, ksm, pageforge).

--same-as=OTHER requires equal reports, key order included, once the
host-side keys below (FieldClass::Host in src/system/result_schema.hh)
are masked. FieldClass::Profiled blocks are compared when both reports
carry them. It prints the first divergent path.

Exit status: 0 all checks pass, 1 a check failed, 2 usage/IO error.
"""

import argparse
import itertools
import json
import operator
import re
import sys

HOST_KEYS = frozenset({
    "wall_seconds", "host_seconds", "host_ms", "events_per_sec",
    "pages_scanned_per_sec", "peak_rss_kb", "baseline_wall_seconds",
    "speedup", "exec", "profile",
})
PROFILED_KEYS = frozenset({"handoff_latency"})
OPS = {"==": operator.eq, "!=": operator.ne, ">=": operator.ge,
       "<=": operator.le, ">": operator.gt, "<": operator.lt}
EXPR_RE = re.compile(r"^\s*(.+?)\s*(==|!=|>=|<=|>|<)\s*(.+?)\s*$")
FUNC_RE = re.compile(r"^(sum|len)\((.+)\)$")
SEGMENT_RE = re.compile(r"^(\w+)(?:\[((?:\w+=[^\]]+)?)\])?$")
ABSENT = object()


class UsageError(Exception):
    pass


class Missing(Exception):
    pass


def resolve(path, result, report):
    """Values at PATH, and whether a [] or [k=v] fanned them out."""
    values, fanned = [result], False
    if path.startswith("$."):
        values, path = [report], path[2:]
    for segment in path.split("."):
        match = SEGMENT_RE.match(segment)
        if not match:
            raise UsageError(f"bad path segment {segment!r} in {path!r}")
        key, index = match.groups()
        step = []
        for value in values:
            if not isinstance(value, dict) or key not in value:
                raise Missing(f"{path}: no {key!r}")
            value = value[key]
            if index is None:
                step.append(value)
            elif not isinstance(value, list):
                raise Missing(f"{path}: {key!r} is not a list")
            else:
                field, _, wanted = index.partition("=")
                step.extend(v for v in value if not field or (
                    isinstance(v, dict) and str(v.get(field)) == wanted))
                fanned = True
        values = step
    return values, fanned


def operand(text, result, report):
    """(values, fanned) of one side of an expression."""
    match = FUNC_RE.match(text)
    if match:
        values, fanned = resolve(match.group(2), result, report)
        if match.group(1) == "sum":
            return [sum(values)], False
        if fanned or not isinstance(values[0], list):
            raise UsageError(f"len() needs a list path: {text!r}")
        return [len(values[0])], False
    try:
        return [json.loads(text)], False
    except ValueError:
        return resolve(text, result, report)


def check(expr, result, report):
    """None if EXPR holds for this result, else why not."""
    match = EXPR_RE.match(expr)
    if not match:
        raise UsageError(f"bad expression {expr!r}")
    lhs_text, op, rhs_text = match.groups()
    try:
        lhs, fanned = operand(lhs_text, result, report)
        rhs, rhs_fanned = operand(rhs_text, result, report)
    except Missing as err:
        return f"missing {err}"
    if rhs_fanned:
        raise UsageError(f"[] only on the left-hand side: {expr!r}")
    if fanned and not lhs:
        return f"{lhs_text} has no elements"
    bad = [value for value in lhs if not OPS[op](value, rhs[0])]
    if not bad:
        return None
    return f"{lhs_text} = {short(bad if fanned else bad[0])}, " \
           f"{rhs_text} = {short(rhs[0])}"


def short(value, limit=160):
    text = "<absent>" if value is ABSENT else json.dumps(value)
    return text if len(text) <= limit else text[:limit] + "..."


def first_divergence(a, b, path="$"):
    """(path, a-side, b-side) of the first difference, or None."""
    if type(a) is not type(b) or not isinstance(a, (dict, list)):
        return None if type(a) is type(b) and a == b else (path, a, b)
    if isinstance(a, list):
        a, b = dict(enumerate(a)), dict(enumerate(b))
    keys_a, keys_b = compared_keys(a, b), compared_keys(b, a)
    for ka, kb in itertools.zip_longest(keys_a, keys_b):
        if ka is not None and ka not in b:
            return sub_path(path, ka), a[ka], ABSENT
        if kb is not None and kb not in a:
            return sub_path(path, kb), ABSENT, b[kb]
        if ka != kb:
            return f"{path} (key order)", keys_a, keys_b
        found = first_divergence(a[ka], b[kb], sub_path(path, ka))
        if found:
            return found
    return None


def compared_keys(x, y):
    """Keys of X that --same-as compares with its counterpart Y."""
    return [k for k in x if k not in HOST_KEYS
            and (k in y or k not in PROFILED_KEYS)]


def sub_path(path, key):
    return f"{path}[{key}]" if isinstance(key, int) else f"{path}.{key}"


def load(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as err:
        raise UsageError(f"cannot read {path}: {err}") from err


def selected_cells(report, modes):
    if not isinstance(report, dict):
        raise UsageError("--expect needs a JSON object")
    if "cells" not in report:
        return [{"app": "-", "mode": "-", "seed": "-", "ok": True,
                 "result": report}]
    wanted = {m.lower() for m in modes.split(",") if m}
    return [c for c in report["cells"]
            if not wanted or c["mode"].lower() in wanted]


def run(args):
    report = load(args.report)
    failed = 0
    cells = selected_cells(report, args.modes) if args.expect else []
    if args.expect and not cells:
        print("FAIL no cells selected")
        failed += 1
    for cell in cells:
        if not cell["ok"]:
            print(f"FAIL {cell['app']}/{cell['mode']} seed {cell['seed']}"
                  f": cell failed: {cell.get('error')}")
            failed += 1
    cells = [c for c in cells if c["ok"]]
    for expr in args.expect:
        bad = 0
        for cell in cells:
            why = check(expr, cell["result"], report)
            if why:
                print(f"FAIL {expr}: {cell['app']}/{cell['mode']} seed "
                      f"{cell['seed']}: {why}")
                bad += 1
        if not bad:
            print(f"ok   {expr} ({len(cells)} cells)")
        failed += bad
    if args.same_as:
        found = first_divergence(report, load(args.same_as))
        if found:
            path, x, y = found
            print(f"DIFFER at {path}:\n  {args.report}: {short(x)}\n"
                  f"  {args.same_as}: {short(y)}")
            failed += 1
        else:
            print(f"same as {args.same_as} (host fields masked)")
    return 1 if failed else 0


def main(argv):
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("report")
    parser.add_argument("--modes", default="")
    parser.add_argument("--expect", action="append", default=[])
    parser.add_argument("--same-as", dest="same_as")
    args = parser.parse_args(argv)
    if not args.expect and not args.same_as:
        parser.error("nothing to check: give --expect or --same-as")
    try:
        return run(args)
    except UsageError as err:
        print(f"check_campaign: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
