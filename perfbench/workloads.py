"""The four benchmark workloads: inputs made from a seed, and output checks.

Each workload writes one scenario file, names the `dasqos` argv that runs
it, and checks what a call produced. The checks read only the CSV, stdout
and stderr of the call and compare them with rules and frozen reference
values that do not come from the code path being timed, so they hold for
any faithful rewrite. `references.py` prints the frozen values.
"""
from __future__ import annotations

import csv
import io
import math
import os
import re
import warnings
from dataclasses import dataclass, field

import yaml


class CheckError(Exception):
    """A call's output broke its workload's rule."""


@dataclass
class Call:
    """What one `dasqos` call left behind."""

    rc: int
    csv: str
    stdout: str
    stderr: str
    fallback_draws: int = 0


@dataclass
class Prepared:
    argv: list[str]
    config: str
    params: dict = field(default_factory=dict)


def _rows(text: str, header: list[str]) -> list[dict[str, str]]:
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames != header:
        raise CheckError(f"CSV header {reader.fieldnames} != {header}")
    rows = list(reader)
    if not rows:
        raise CheckError("CSV has no rows")
    return rows


def _write(path: str, doc: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(doc, fh, sort_keys=False)
    return path


def _require_ok(call: Call) -> None:
    if call.rc != 0:
        raise CheckError(f"exit code {call.rc}: {call.stderr.strip()[-300:]}")


def _nonincreasing(values: list[float], what: str) -> None:
    for a, b in zip(values, values[1:]):
        if b > a:
            raise CheckError(f"{what} increases from {a!r} to {b!r}")


def _least_squares_slope(x: list[float], y: list[float]) -> float:
    mx, my = sum(x) / len(x), sum(y) / len(y)
    sxx = sum((a - mx) ** 2 for a in x)
    return sum((a - mx) * (b - my) for a, b in zip(x, y)) / sxx


# --- delay-sim ------------------------------------------------------------

# The README two-flow scenario (criterion 3): voice above data, load 0.87.
SIM_HORIZON = 500_000
SIM_DATA_RATE = 0.6
SIM_WARMUP = 10_000
# Criterion 3 fits 2..40 at 1e7 slots. Calls here are kept short (5e5
# slots) so that the calibration loops between them track the host's speed;
# at that length the tail past 20 slots rests on a few busy periods and its
# log10 gap reaches 0.75 at d = 30, while over 81 seeds at d <= 20 it stayed
# under 0.18 with slope ratios 0.98..1.12. So the grid stops at 20.
SIM_THRESHOLDS = "2:20:2"
MIN_TAIL_EVENTS = 30


class DelaySim:
    kind = "interpreter"
    name = "delay-sim"
    work_unit = "slots"

    def document(self, seed: int) -> dict:
        return {
            "flows": [
                {
                    "priority": 1,
                    "name": "voice",
                    "arrival": {"kind": "poisson", "rate": 0.2},
                    "service": {"kind": "unit"},
                },
                {
                    "priority": 2,
                    "name": "data",
                    "arrival": {"kind": "poisson", "rate": SIM_DATA_RATE},
                    "service": {
                        "kind": "truncated_geometric",
                        "failure_prob": 0.1,
                        "max_attempts": 4,
                    },
                },
            ],
            "run": {
                "seed": seed,
                "horizon": SIM_HORIZON,
                "warmup": SIM_WARMUP,
                "attempt_failure_prob": 0.1,
            },
        }

    def prepare(self, seed: int, workdir: str) -> Prepared:
        config = _write(os.path.join(workdir, "delay-sim.yaml"), self.document(seed))
        out = os.path.join(workdir, "delay-sim.csv")
        argv = ["delay", "--config", config, "--dth", SIM_THRESHOLDS, "--simulate", "--out", out]
        return Prepared(argv, config, {"out": out})

    def check(self, prep: Prepared, call: Call) -> tuple[float, float]:
        """Returns (slots simulated, CI half-width / p_hat at the last threshold)."""
        _require_ok(call)
        header = ["flow", "d_th", "prob_sim", "ci_low", "ci_high", "prob_analytic"]
        rows = _rows(call.csv, header)
        by_flow: dict[str, list[dict[str, str]]] = {}
        for row in rows:
            by_flow.setdefault(row["flow"], []).append(row)
        if sorted(by_flow) != ["1", "2"]:
            raise CheckError(f"expected flows 1 and 2, got {sorted(by_flow)}")
        for flow, flow_rows in by_flow.items():
            p = [float(r["prob_sim"]) for r in flow_rows]
            for r, p_hat in zip(flow_rows, p):
                lo, hi = float(r["ci_low"]), float(r["ci_high"])
                if not 0.0 <= lo <= p_hat <= hi <= 1.0:
                    raise CheckError(f"flow {flow}: CI [{lo}, {hi}] misses {p_hat}")
            _nonincreasing(p, f"flow {flow} prob_sim")
            _nonincreasing([float(r["prob_analytic"]) for r in flow_rows], f"flow {flow} prob_analytic")

        # criterion 3 on the data flow; its departures are counted from the
        # offered rate, not from anything the simulator reports
        departures = SIM_DATA_RATE * (SIM_HORIZON - SIM_WARMUP)
        d, emp, ana = [], [], []
        for r in by_flow["2"]:
            p_hat = float(r["prob_sim"])
            if p_hat * departures >= MIN_TAIL_EVENTS:
                d.append(float(r["d_th"]))
                emp.append(math.log10(p_hat))
                ana.append(math.log10(float(r["prob_analytic"])))
        if len(d) < len(by_flow["2"]) // 2 or len(d) < 2:
            raise CheckError(f"only {len(d)} thresholds hold {MIN_TAIL_EVENTS} tail events")
        ratio = _least_squares_slope(d, emp) / _least_squares_slope(d, ana)
        if not 0.8 <= ratio <= 1.2:
            raise CheckError(f"tail slope ratio {ratio:.4f} outside 0.8..1.2")
        gap = max(abs(a - b) for a, b in zip(emp, ana))
        if gap > 0.3:
            raise CheckError(f"log10 gap {gap:.3f} above 0.3")

        last = by_flow["2"][-1]
        p_hat = float(last["prob_sim"])
        half = (float(last["ci_high"]) - float(last["ci_low"])) / 2.0
        if p_hat <= 0.0:
            raise CheckError("no tail events at the largest threshold")
        return float(SIM_HORIZON), half / p_hat


# --- delay-analytic -------------------------------------------------------

ANALYTIC_THRESHOLDS = "0:50:0.05"
# delay_decay_rate per flow (priority) of the scenario below, computed with
# the dasqos sources this benchmark was written against (references.py)
ANALYTIC_DECAY_RATES = {
    "1": 3.6149504270875306,
    "2": 1.4180991710405202,
    "3": 0.41042857382363973,
    "4": 0.13019863171844065,
}
# a faithful rewrite solves phi* to about 1e-12; a wrong root is far off
ANALYTIC_RATE_RTOL = 1e-9


class DelayAnalytic:
    kind = "interpreter"
    name = "delay-analytic"
    work_unit = "points"

    def document(self, seed: int) -> dict:
        # The analytic path draws nothing, so the seed changes no input:
        # fixed flows let the check compare against frozen decay rates.
        # Four flows cover every arrival kind and both service kinds; load ~0.78.
        return {
            "flows": [
                {
                    "priority": 1,
                    "name": "control",
                    "arrival": {"kind": "poisson", "rate": 0.1},
                    "service": {"kind": "unit"},
                },
                {
                    "priority": 2,
                    "name": "video",
                    "arrival": {
                        "kind": "markov_fluid",
                        "rate_a": 0.5,
                        "rate_b": 0.1,
                        "weight_a": 0.5,
                        "weight_b": 0.5,
                    },
                    "service": {"kind": "truncated_geometric", "failure_prob": 0.1, "max_attempts": 3},
                },
                {
                    "priority": 3,
                    "name": "telemetry",
                    "arrival": {"kind": "renewal", "mean": 8.0, "variance": 40.0},
                    "service": {"kind": "unit"},
                },
                {
                    "priority": 4,
                    "name": "bulk",
                    "arrival": {"kind": "poisson", "rate": 0.3},
                    "service": {"kind": "truncated_geometric", "failure_prob": 0.2, "max_attempts": 4},
                },
            ],
        }

    def prepare(self, seed: int, workdir: str) -> Prepared:
        config = _write(os.path.join(workdir, "delay-analytic.yaml"), self.document(seed))
        out = os.path.join(workdir, "delay-analytic.csv")
        argv = ["delay", "--config", config, "--dth", ANALYTIC_THRESHOLDS, "--out", out]
        return Prepared(argv, config, {"out": out})

    def check(self, prep: Prepared, call: Call) -> tuple[float, float]:
        """Returns (curve points, largest relative gap to the reference curve).

        Each written probability must equal exp(-r d), with r the frozen
        decay rate of its flow, within the CSV's rounding to 9 significant
        digits plus 1e-12 relative plus ANALYTIC_RATE_RTOL on r. The curve
        has no sampling error, so its rel_se is that largest relative gap:
        the written curve's accuracy against the reference.
        """
        _require_ok(call)
        rows = _rows(call.csv, ["flow", "d_th", "prob_analytic"])
        by_flow: dict[str, list[tuple[float, float]]] = {}
        for row in rows:
            by_flow.setdefault(row["flow"], []).append((float(row["d_th"]), float(row["prob_analytic"])))
        if sorted(by_flow) != sorted(ANALYTIC_DECAY_RATES):
            raise CheckError(f"flows {sorted(by_flow)} != {sorted(ANALYTIC_DECAY_RATES)}")
        worst = 0.0
        for flow, points in by_flow.items():
            rate = ANALYTIC_DECAY_RATES[flow]
            _nonincreasing([p for _, p in points], f"flow {flow} prob_analytic")
            for d, p in points:
                want = math.exp(-rate * d)
                # half a unit in the 9th significant digit
                rounding = 0.5 * 10.0 ** (math.floor(math.log10(want)) - 8)
                if abs(p - want) > rounding + (1e-12 + ANALYTIC_RATE_RTOL * rate * d) * want:
                    raise CheckError(f"flow {flow} d={d}: {p!r} != exp(-{rate} d) = {want!r}")
                worst = max(worst, abs(p - want) / want)
        return float(len(rows)), worst


# --- sweep ----------------------------------------------------------------

SWEEP_RADII = "0:0.9:0.05"
SWEEP_SAMPLES = 10_000
# radius_sweep on the same cell at 2e5 samples, with its standard errors
# (references.py)
SWEEP_REFERENCE = (
    (0.124586, 0.000295),
    (0.124158, 0.000294),
    (0.122885, 0.000291),
    (0.120802, 0.000287),
    (0.117970, 0.000281),
    (0.114479, 0.000274),
    (0.110469, 0.000265),
    (0.106158, 0.000256),
    (0.101871, 0.000245),
    (0.098077, 0.000234),
    (0.095399, 0.000222),
    (0.094603, 0.000211),
    (0.096561, 0.000202),
    (0.102177, 0.000198),
    (0.112301, 0.000202),
    (0.127640, 0.000215),
    (0.148674, 0.000238),
    (0.175592, 0.000268),
    (0.208252, 0.000302),
)
SWEEP_TOLERANCE_SE = 5.0


def criterion5_cell(path_loss_exponent: float, antennas: dict) -> dict:
    """7-cell hex at spacing 2 with 4 antennas, as in criteria 5 and 6."""
    return {
        "channel": {"path_loss_exponent": path_loss_exponent},
        "geometry": {"cluster_size": 7, "spacing": 2.0, "antennas": antennas},
    }


class Sweep:
    kind = "array"
    name = "sweep"
    work_unit = "user-draw evaluations"

    def document(self, seed: int) -> dict:
        doc = criterion5_cell(2.0, {"count": 4, "radius": 0.3})
        doc["run"] = {"seed": seed, "samples": SWEEP_SAMPLES}
        return doc

    def prepare(self, seed: int, workdir: str) -> Prepared:
        config = _write(os.path.join(workdir, "sweep.yaml"), self.document(seed))
        out = os.path.join(workdir, "sweep.csv")
        argv = ["sweep", "--config", config, "--radii", SWEEP_RADII, "--out", out]
        return Prepared(argv, config, {"out": out})

    def check(self, prep: Prepared, call: Call) -> tuple[float, float]:
        """Returns (user draws scored, std_err / e_outage at the argmin row)."""
        _require_ok(call)
        header = ["radius", "e_outage", "std_err", "samples", "alpha", "path_loss_exp", "spacing_d", "argmin"]
        rows = _rows(call.csv, header)
        if len(rows) != len(SWEEP_REFERENCE):
            raise CheckError(f"{len(rows)} rows, expected {len(SWEEP_REFERENCE)}")
        values = [float(r["e_outage"]) for r in rows]
        for i, (row, (ref, ref_se)) in enumerate(zip(rows, SWEEP_REFERENCE)):
            radius, se = float(row["radius"]), float(row["std_err"])
            if abs(radius - 0.05 * i) > 1e-9 or int(row["samples"]) != SWEEP_SAMPLES:
                raise CheckError(f"row {i}: radius {radius}, samples {row['samples']}")
            if not se > 0.0:
                raise CheckError(f"row {i}: std_err {se} is not positive")
            if abs(values[i] - ref) > SWEEP_TOLERANCE_SE * math.hypot(se, ref_se):
                raise CheckError(f"radius {radius}: e_outage {values[i]} far from reference {ref}")
        flagged = [i for i, r in enumerate(rows) if r["argmin"] == "1"]
        if len(flagged) != 1 or any(r["argmin"] not in ("0", "1") for r in rows):
            raise CheckError(f"argmin flags on rows {flagged}")
        best = flagged[0]
        if values[best] != min(values):
            raise CheckError(f"flagged row {best} is not the minimum")
        return float(len(rows) * SWEEP_SAMPLES), float(rows[best]["std_err"]) / values[best]


# --- optimize -------------------------------------------------------------

OPT_MAX_ITER = 70
OPT_EVAL_SAMPLES = 5_000
OPT_RESCORE_SAMPLES = OPT_EVAL_SAMPLES
# expected_outage of the all-centred start layout at 4e5 samples (references.py)
OPT_CENTRE_REFERENCE = (0.009861, 0.000045)
OPT_TOLERANCE_SE = 5.0
# The search must move some antenna at least this far from the centre. Over
# 104 calls on 13 seeds the largest final radius was never below 0.12; a
# zero or vanishing gradient leaves every antenna at 0.
OPT_MIN_MOVED_RADIUS = 0.05
FINAL_LINE = re.compile(r"# final E\(outage\) (\S+) \(se (\S+)\) after (\d+) iterations")


class Optimize:
    kind = "array"
    name = "optimize"
    work_unit = "iterations"

    def document(self, seed: int) -> dict:
        # criterion 6: full_polar from all antennas at the centre, exponent 4
        doc = criterion5_cell(
            4.0, {"radii": [0.0] * 4, "angles": [m * math.pi / 2.0 for m in range(4)]}
        )
        doc["run"] = {"seed": seed, "samples": OPT_EVAL_SAMPLES}
        doc["rm"] = {"mode": "full_polar", "max_iter": OPT_MAX_ITER, "eval_samples": OPT_EVAL_SAMPLES}
        return doc

    def prepare(self, seed: int, workdir: str) -> Prepared:
        config = _write(os.path.join(workdir, "optimize.yaml"), self.document(seed))
        out = os.path.join(workdir, "optimize.csv")
        argv = ["optimize", "--config", config, "--out", out]
        params = {"out": out, "seed": seed, "final_L1_bar": [], "criterion6_held": []}
        return Prepared(argv, config, params)

    def rescore(self, prep: Prepared, block) -> tuple[float, float]:
        """Expected outage of the echoed layout on draws the search never saw."""
        import numpy as np
        from dasqos.config import load_scenario
        from dasqos.outage import CellScenario, expected_outage

        layout, _, channel = load_scenario(prep.config).require_cell()
        rng = np.random.default_rng([prep.params["seed"], len(prep.params["final_L1_bar"])])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # coincident-pole fallbacks are counted elsewhere
            est = expected_outage(CellScenario(layout, block, channel), OPT_RESCORE_SAMPLES, rng)
        return est.value, est.std_err

    def check(self, prep: Prepared, call: Call) -> tuple[float, float]:
        """Returns (search iterations, final s.e. / final estimate).

        The first trace row (all antennas at the centre) must match a frozen
        reference, and the final row must match a fresh scoring of the echoed
        layout, each within 5 s.e.; the CSV has no per-row s.e., so the final
        one from stderr stands in. Some echoed antenna must sit at least
        OPT_MIN_MOVED_RADIUS from the centre, so a search that never leaves
        it fails. Criterion 6's bands (first radius 0.51..0.65, final outage
        0.006..0.012, no rise past n=10) hold at the test's seed but not
        across seeds, so they are recorded, not enforced.
        """
        _require_ok(call)
        from dasqos.config import parse_scenario

        rows = _rows(call.csv, ["n", "L1_bar", "theta1_bar", "e_outage_estimate"])
        match = FINAL_LINE.search(call.stderr)
        if match is None:
            raise CheckError("no final-estimate line on stderr")
        final, final_se, iterations = float(match[1]), float(match[2]), int(match[3])
        if "pinned at its bound" in call.stderr:
            raise CheckError("search reported divergence")
        if iterations != len(rows) or [int(r["n"]) for r in rows] != list(range(1, len(rows) + 1)):
            raise CheckError(f"{len(rows)} trace rows for {iterations} iterations")
        estimates = [float(r["e_outage_estimate"]) for r in rows]
        if abs(estimates[-1] - final) > 1e-8 * final or not final_se > 0.0:
            raise CheckError(f"final row {estimates[-1]} != stderr {final} (se {final_se})")
        ref, ref_se = OPT_CENTRE_REFERENCE
        if abs(estimates[0] - ref) > OPT_TOLERANCE_SE * math.hypot(final_se, ref_se):
            raise CheckError(f"centred start scored {estimates[0]}, reference {ref}")

        try:
            block = parse_scenario(call.stdout, source="<antenna block>").antennas
            echoed = yaml.safe_load(call.stdout)["geometry"]["antennas"]
        except Exception as exc:  # any parse failure is a failed check
            raise CheckError(f"antenna block does not re-parse: {exc}") from None
        if block is None or block.count != 4 or list(block.radii) != echoed["radii"]:
            raise CheckError("antenna block does not round-trip")
        if max(block.radii) < OPT_MIN_MOVED_RADIUS:
            raise CheckError(f"no antenna moved {OPT_MIN_MOVED_RADIUS} from the centre: radii {block.radii}")
        value, se = self.rescore(prep, block)
        if abs(final - value) > OPT_TOLERANCE_SE * math.hypot(final_se, se):
            raise CheckError(f"final estimate {final} but the echoed layout scores {value}")

        band = 2.0 * math.hypot(final_se, final_se)
        rises = sum(1 for i in range(9, len(estimates) - 1) if estimates[i + 1] > estimates[i] + band)
        prep.params["final_L1_bar"].append(float(rows[-1]["L1_bar"]))
        prep.params["criterion6_held"].append(
            0.51 <= float(rows[-1]["L1_bar"]) <= 0.65 and 0.006 <= final <= 0.012 and rises == 0
        )
        return float(len(rows)), final_se / final


WORKLOADS = {w.name: w for w in (DelaySim(), DelayAnalytic(), Sweep(), Optimize())}
