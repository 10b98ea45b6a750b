"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py [--seed N]

Runs each workload's `dasqos` call once, requires its check to pass, then
feeds the check deliberately corrupted copies of that output and requires
every one to be rejected. Exits 0 when all checks behave.
"""
from __future__ import annotations

import argparse
import copy
import csv
import io
import os
import re
import shutil
import sys

import run
from workloads import WORKLOADS, Call, CheckError

DEFAULT_SEED = 1


def _edit_csv(call: Call, edit) -> Call:
    """Copy of `call` whose CSV rows (dicts of strings) went through edit()."""
    reader = csv.DictReader(io.StringIO(call.csv))
    header, rows = reader.fieldnames, list(reader)
    rows = edit(rows) or rows
    text = io.StringIO()
    writer = csv.DictWriter(text, header, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    bad = copy.copy(call)
    bad.csv = text.getvalue()
    return bad


def _scale(rows, keys, factor, where=lambda row: True):
    for row in rows:
        if where(row):
            for key in keys:
                row[key] = repr(float(row[key]) * factor)


def _with(call: Call, **changes) -> Call:
    bad = copy.copy(call)
    for key, value in changes.items():
        setattr(bad, key, value)
    return bad


def _flag_first_row(rows):
    for i, row in enumerate(rows):
        row["argmin"] = "1" if i == 0 else "0"


def _set_last(rows, key, value):
    rows[-1][key] = value


def _faster_decay(rows):
    """Flow 2's curve as exp(-1.001 r d): what a slightly wrong phi* writes."""
    for row in rows:
        if row["flow"] == "2":
            row["prob_analytic"] = f"{float(row['prob_analytic']) ** 1.001:.9g}"


def _stuck_at_centre(call: Call) -> Call:
    """What a search with a zero gradient writes: every row at the centre
    layout and its score, and that layout echoed back. Self-consistent, so
    only the rule that some antenna moved can reject it."""
    def edit(rows):
        for row in rows:
            row.update(L1_bar="0", e_outage_estimate=rows[0]["e_outage_estimate"])

    bad = _edit_csv(call, edit)
    start = next(csv.DictReader(io.StringIO(call.csv)))["e_outage_estimate"]
    bad.stderr = re.sub(r"(E\(outage\) )\S+", lambda m: m[1] + start, call.stderr)
    bad.stdout = re.sub(r"radii: \[.*\]", "radii: [0, 0, 0, 0]", call.stdout)
    return bad


CORRUPTIONS = {
    "delay-sim": {
        "nonzero exit": lambda c: _with(c, rc=3),
        "voice flow missing": lambda c: _edit_csv(c, lambda rows: [r for r in rows if r["flow"] != "1"]),
        "data tail 2.5x too low": lambda c: _edit_csv(c, lambda rows: _scale(
            rows, ("prob_sim", "ci_low", "ci_high"), 0.4, lambda r: r["flow"] == "2")),
        "data tail rises": lambda c: _edit_csv(c, lambda rows: _scale(
            rows, ("prob_sim", "ci_low", "ci_high"), 3.0, lambda r: r["flow"] == "2" and int(r["d_th"]) >= 20)),
    },
    "delay-analytic": {
        "nonzero exit": lambda c: _with(c, rc=2),
        "one point off by 1e-6": lambda c: _edit_csv(c, lambda rows: _scale(
            rows, ("prob_analytic",), 1.0 + 1e-6, lambda r: r["flow"] == "3" and r["d_th"] == "10")),
        "wrong root: flow 2 decays 0.1% faster": lambda c: _edit_csv(c, _faster_decay),
        "curve reversed": lambda c: _edit_csv(c, lambda rows: [r for r in rows if r["flow"] != "2"]
                                              + [r for r in rows if r["flow"] == "2"][::-1]),
        "flow missing": lambda c: _edit_csv(c, lambda rows: [r for r in rows if r["flow"] != "4"]),
    },
    "sweep": {
        "nonzero exit": lambda c: _with(c, rc=3),
        "two argmin flags": lambda c: _edit_csv(c, lambda rows: rows[0].update(argmin="1")),
        "flag on a non-minimal row": lambda c: _edit_csv(c, _flag_first_row),
        "curve 10% high": lambda c: _edit_csv(c, lambda rows: _scale(rows, ("e_outage",), 1.1)),
    },
    "optimize": {
        "nonzero exit": lambda c: _with(c, rc=3),
        "divergence reported": lambda c: _with(
            c, stderr="warning: a radius stayed pinned at its bound under a nonzero gradient\n" + c.stderr),
        "antenna block cut short": lambda c: _with(c, stdout=c.stdout.splitlines(keepends=True)[0]),
        "centred start mis-scored": lambda c: _edit_csv(c, lambda rows: rows[0].update(
            e_outage_estimate=repr(float(rows[0]["e_outage_estimate"]) * 1.3))),
        "final estimate off the echoed layout": lambda c: _with(
            _edit_csv(c, lambda rows: _set_last(rows, "e_outage_estimate", "0.02")),
            stderr=re.sub(r"(E\(outage\) )\S+", r"\g<1>0.02", c.stderr)),
        "trace one row short": lambda c: _edit_csv(c, lambda rows: rows[:-1]),
        "search never left the centre": _stuck_at_centre,
    },
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(run.SRC, "dasqos", "cli.py")):
        print(f"error: no dasqos sources under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, run.SRC)

    problems = 0
    workdir = os.path.join(run.WORKDIR, f"selftest-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        for name, workload in WORKLOADS.items():
            prep = workload.prepare(args.seed, workdir)
            _, _, call = run.run_call(prep.argv + ["--seed", str(args.seed)], prep.params["out"])
            try:
                workload.check(prep, call)
                print(f"{name}: genuine output accepted")
            except CheckError as exc:
                print(f"{name}: genuine output REJECTED: {exc}")
                problems += 1
                continue
            for label, corrupt in CORRUPTIONS[name].items():
                try:
                    workload.check(prep, corrupt(call))
                except CheckError as exc:
                    print(f"{name}: {label}: rejected ({exc})")
                else:
                    print(f"{name}: {label}: ACCEPTED")
                    problems += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("selftest", "passed" if problems == 0 else f"failed ({problems})")
    return 0 if problems == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
