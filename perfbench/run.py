"""Benchmark for dasqos: four CLI workloads, timed end to end and traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Each call goes through `dasqos.cli.main(argv)`
in this one process, on the sources under src/, and calls repeat for S
seconds (at least MIN_CALLS of them); every call's output is checked. The
last line of stdout is one JSON object: {"correct", "attempted", "failed",
"metrics"}. With --trace 0 the metrics are the end-to-end ones, with times
scaled by interleaved calibration loops (see CAL_REFERENCE_S). With
--trace 1 every other call is traced and the metrics are the per-layer
ones. The line before it records the run: source hash, git sha if any,
machine and seeds.
"""
from __future__ import annotations

import os

# one single-threaded process: keep BLAS pools out of the timings
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import warnings

from spans import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench_work")
# the metric names and units are those BENCHMARK.json declares
SPEC = os.path.join(ROOT, "BENCHMARK.json")

MIN_CALLS = 3
SETUP_PROBES = 9
# A shared host can change speed by up to 2x within minutes (seen on a
# 2-vCPU VM, where raw call times moved 9-37% between runs). Times are scaled
# to a host on which each calibration loop takes CAL_REFERENCE_S: a run's
# mean call time times reference / mean calibration time, with the loop
# that matches the workload's kind of work. Raw times are in the run line.
CAL_REFERENCE_S = {"interpreter": 0.012, "array": 0.012}
CAL_SHARE = 0.15
WORKERS2_SAMPLES = 100_000
WORKERS2_REPEATS = 3
FALLBACK = re.compile(r"(\d+) user draw\(s\) produced nearly coincident poles")

SETUP_PROBE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import dasqos.cli
dasqos.cli.load_scenario(sys.argv[2])
print(time.perf_counter() - start)
"""


def source_hash() -> str:
    digest = hashlib.sha256()
    base = os.path.join(SRC, "dasqos")
    for name in sorted(os.listdir(base)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(base, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()[:16]


def git_sha() -> str | None:
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head, encoding="utf-8") as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.isfile(path):
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    return None


def run_call(argv: list[str], out: str):
    """One `dasqos` call; returns (start, end, workloads.Call)."""
    from dasqos import cli
    from workloads import Call

    if os.path.exists(out):
        os.remove(out)
    stdout, stderr = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(
        stdout
    ), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed call, reported with its traceback
            traceback.print_exc()
            rc = 1
    end = time.perf_counter()
    fallback = 0
    for w in caught:
        match = FALLBACK.match(str(w.message))
        if match:
            fallback += int(match[1])
        else:
            stderr.write(f"warning: {w.message}\n")
    text = ""
    if os.path.exists(out):
        with open(out, encoding="utf-8") as fh:
            text = fh.read()
    return start, end, Call(rc, text, stdout.getvalue(), stderr.getvalue(), fallback)


class Tally:
    """Timed calls of one kind (traced or not) and the outcome of their checks."""

    def __init__(self) -> None:
        self.seconds: list[float] = []
        self.work = 0.0
        self.rel_se: list[float] = []
        self.fallback_draws: list[int] = []
        self.failed = 0

    def add(self, workload, prep, seconds: float, call) -> None:
        from workloads import CheckError

        self.seconds.append(seconds)
        self.fallback_draws.append(call.fallback_draws)
        try:
            work, rel_se = workload.check(prep, call)
        except (CheckError, ArithmeticError, LookupError, TypeError, ValueError) as exc:
            # output too malformed to parse is a failed check, not a crash
            self.failed += 1
            print(f"check failed ({workload.name}): {type(exc).__name__}: {exc}", file=sys.stderr)
            return
        self.work += work
        self.rel_se.append(rel_se)


def setup_probe(config: str) -> float:
    """A fresh interpreter's time to `import dasqos.cli` plus load_scenario."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, SRC, config],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
    )
    return float(done.stdout.strip().splitlines()[-1])


def calibration() -> dict[str, float]:
    """Seconds for two fixed loops, one per kind of work in the workloads:
    interpreter-bound (like the slot loop and the root solves) and
    array-bound (like the batch outage kernel)."""
    import numpy as np

    start = time.perf_counter()
    table, counts, total = list(range(1000)), {}, 0
    for i in range(100_000):
        total += table[i % 1000] * i
        if i & 7 == 0:
            counts[i & 63] = counts.get(i & 63, 0) + 1
    middle = time.perf_counter()
    poles = np.random.default_rng(0).random((10_000, 6))
    for _ in range(4):
        (poles[:, None, :] - poles[:, :, None]).prod(axis=2).sum(axis=1)
    return {"interpreter": middle - start, "array": time.perf_counter() - middle}


def measure(workload, prep, seed: int, seconds: float, trace: bool):
    """Repeat the call for `seconds` (at least MIN_CALLS times), checking each.

    Call i runs on seed 1000 * seed + i, so a run covers several inputs and
    its figures do not hang on one draw. After each call the
    calibration loops run for about CAL_SHARE of its time. The SETUP_PROBES
    set-up probes are spread over the run, and in a traced run every other
    call is traced, so that all of them see the same machine conditions.
    Returns (untraced Tally, traced Tally, per-layer rows, setup seconds,
    calibration samples).
    """
    plain, traced, layer_rows, setup, cal = Tally(), Tally(), [], [], [calibration()]
    begin = time.perf_counter()
    for i in itertools.count():
        argv = prep.argv + ["--seed", str(1000 * seed + i)]
        if trace and i % 2:
            tracer = Tracer().install()
            try:
                start, end, call = run_call(argv, prep.params["out"])
            finally:
                tracer.close()
            tracer.root(start, end)
            layer_rows.append(tracer.call_metrics(call.fallback_draws))
            traced.add(workload, prep, end - start, call)
        else:
            start, end, call = run_call(argv, prep.params["out"])
            plain.add(workload, prep, end - start, call)
        for _ in range(max(1, round(CAL_SHARE * (end - start) / sum(cal[-1].values())))):
            cal.append(calibration())
        elapsed = time.perf_counter() - begin
        if len(setup) * seconds <= elapsed * SETUP_PROBES:
            setup.append(setup_probe(prep.config))
        enough = len(plain.seconds) >= MIN_CALLS and (not trace or len(traced.seconds) >= MIN_CALLS)
        if enough and elapsed >= seconds:
            break
    while len(setup) < SETUP_PROBES:
        setup.append(setup_probe(prep.config))
    return plain, traced, layer_rows, setup, cal


def workers2_speedup(prep) -> float:
    """expected_outage at workers=2 against workers=1 on the same draws."""
    import numpy as np
    from dasqos.config import load_scenario
    from dasqos.outage import CellScenario, expected_outage

    cfg = load_scenario(prep.config)
    scenario = CellScenario(*cfg.require_cell())
    timing = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for workers in (1, 2):
            runs = []
            for _ in range(WORKERS2_REPEATS):
                rng = np.random.default_rng(cfg.run.seed)
                start = time.perf_counter()
                expected_outage(scenario, WORKERS2_SAMPLES, rng, workers=workers)
                runs.append(time.perf_counter() - start)
            timing[workers] = statistics.median(runs)
    return timing[1] / timing[2]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)
    if not os.path.isfile(os.path.join(SRC, "dasqos", "cli.py")):
        print(f"error: no dasqos sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import numpy as np
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    workdir = os.path.join(WORKDIR, str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        prep = workload.prepare(args.seed, workdir)
        import dasqos.cli  # noqa: F401  import cost is setup_s, not wall_s

        speedup = workers2_speedup(prep) if args.trace and workload.name == "sweep" else 0.0
        plain, traced, layer_rows, setup, cal = measure(workload, prep, args.seed, args.seconds, bool(args.trace))
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORKDIR)

    attempted = len(plain.seconds) + len(traced.seconds)
    failed = plain.failed + traced.failed
    # host speed over the run, from the calibration loop of the workload's kind
    scale = {kind: ref / statistics.fmean(c[kind] for c in cal) for kind, ref in CAL_REFERENCE_S.items()}
    if args.trace:
        values = {
            "trace_overhead_s": statistics.median(traced.seconds) - statistics.median(plain.seconds),
            "outage.workers2_speedup": speedup,
        }
        declared = spec["per_layer"]
    else:
        values = {
            "wall_s": statistics.fmean(plain.seconds) * scale[workload.kind],
            "work_per_s": plain.work / (sum(plain.seconds) * scale[workload.kind]),
            "setup_s": statistics.fmean(setup) * scale["interpreter"],
            "peak_rss_mb": rss_mb,
            "rel_se": statistics.median(plain.rel_se or [0.0]),
        }
        declared = spec["end_to_end"]
    metrics = {}
    for entry in declared:
        name = entry["name"]
        if args.trace and name not in values:
            # layer figures are medians over the traced calls
            values[name] = statistics.median(row[name] for row in layer_rows)
        metrics[name] = {"value": values[name], "unit": entry["unit"]}
    info = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "argv": prep.argv[:1] + [a for a in prep.argv[1:] if not a.startswith(ROOT)],
        "source_sha256": source_hash(),
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "timed_calls": len(plain.seconds),
        "work_unit": workload.work_unit,
        "calibration_s": {kind: statistics.fmean(c[kind] for c in cal) for kind in CAL_REFERENCE_S},
        "raw_wall_s": {"median": statistics.median(plain.seconds), "mean": statistics.fmean(plain.seconds),
                       "max": max(plain.seconds)},
        "raw_setup_s": setup,
        "fallback_draws_per_call": plain.fallback_draws,
        "params": {k: v for k, v in prep.params.items() if k not in ("out",)},
    }
    print(json.dumps({"run": info}, default=str))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
