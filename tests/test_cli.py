"""End-to-end command tests: argv in, CSV text and exit code out.

Everything runs in-process through main() so coverage and debuggers see
the command paths; stdout/stderr are captured with capsys. One test runs
the CLI in a fresh interpreter with numpy blocked, to see which modules
start-up and analytic delay load, and one counts the argparse parsers a
fresh interpreter builds.
"""
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import dasqos
from dasqos import cli, outage, placement
from dasqos.cli import _emit, main
from dasqos.config import format_float, parse_scenario
from dasqos.delay import PrioritySystem
from dasqos.geometry import symmetric_circle
from dasqos.outage import CellScenario
from dasqos.traffic import DeterministicUnit, Poisson, TrafficFlow, TruncatedGeometric
from analysis_helpers import delay_violation_probability
from emit_oracle import emit_text
from probe_loop_oracle import antenna_outage_closed_form
from test_cli_bytes import cli_bytes

F2_TEXT = """\
channel:
  path_loss_exponent: 4.0
  spectral_efficiency: 1.0
geometry:
  centers: [[0.0, 0.0], [2.0, 0.0]]
  antennas:
    radii: [0.0]
    angles: [0.0]
    height: 1.0e-9
  users:
    radii: [1.0, 0.0]
    angles: [0.0, 0.0]
"""

ALPHA0_TEXT = """\
channel:
  path_loss_exponent: 2.0
  on_probability: 0.0
geometry:
  antennas: {count: 4, radius: 0.3}
run: {seed: 3, samples: 200}
"""

SWEEP_TEXT = """\
channel:
  path_loss_exponent: 2.0
geometry:
  antennas: {count: 4, radius: 0.3}
run: {seed: 3, samples: 300}
"""

FLOWS_TEXT = """\
flows:
  - priority: 1
    arrival: {kind: poisson, rate: 0.2}
    service: {kind: unit}
  - priority: 2
    arrival: {kind: poisson, rate: 0.6}
    service: {kind: truncated_geometric, failure_prob: 0.1, max_attempts: 4}
run: {attempt_failure_prob: 0.1, horizon: 30000, warmup: 2000, seed: 5}
"""

# the sections a linked p needs, for FLOWS_TEXT's run line to follow
LINKED_CELL = "channel: {path_loss_exponent: 2.0}\ngeometry:\n  antennas: {count: 4, radius: 0.3}\n"

THREE_ANTENNA_TEXT = """\
channel:
  path_loss_exponent: 3.5
  on_probability: 0.7
geometry:
  centers: [[0.0, 0.0], [2.0, 0.0], [1.0, 1.7]]
  antennas:
    radii: [0.6, 0.2, 0.45]
    angles: [0.3, 2.5, 4.4]
    height: 0.1
  users:
    radii: [0.8, 0.5, 0.3]
    angles: [1.0, 3.0, 5.5]
"""

LINKED_UNIT_TEXT = """\
flows:
  - priority: 1
    arrival: {kind: poisson, rate: 0.2}
    service: {kind: unit}
  - priority: 2
    arrival: {kind: poisson, rate: 0.5}
    service: {kind: unit}
channel:
  path_loss_exponent: 2.0
geometry:
  antennas: {count: 4, radius: 0.3}
run: {attempt_failure_prob: linked, horizon: 20000, seed: 6, samples: 500}
"""

OPT_TEXT = """\
channel:
  path_loss_exponent: 4.0
geometry:
  antennas: {count: 4, radius: 0.3}
run: {seed: 9}
rm: {max_iter: 1, eval_samples: 2, step_scale: 5.0}
"""


ONE_FLOW = """\
flows:
  - priority: 1
    arrival: {}
    service: {{kind: unit}}
"""


@pytest.fixture
def run(tmp_path, capsys):
    def invoke(argv, config=None):
        if config is not None:
            path = tmp_path / "scenario.yaml"
            path.write_text(config, encoding="utf-8")
            argv = argv + ["--config", str(path)]
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


def fig5_system():
    flows = (
        TrafficFlow(1, Poisson(0.2), DeterministicUnit()),
        TrafficFlow(2, Poisson(0.6), TruncatedGeometric(0.1, 4)),
    )
    return PrioritySystem(flows)


class TestOutage:
    def test_fixed_users_two_cell_row(self, run):
        # rho0=1, rho1=2, exponent 4, K=1: exactly 1/17 per antenna and
        # for the one-antenna system
        code, out, err = run(["outage"], config=F2_TEXT)
        assert code == 0
        assert out == (
            "antenna,outage\n"
            "0,0.0588235294\n"
            "system,0.0588235294\n"
        )
        assert format_float(1 / 17) == "0.0588235294"

    def test_everyone_silent_means_no_outage(self, run):
        code, out, _ = run(["outage"], config=ALPHA0_TEXT)
        assert code == 0
        assert out == (
            "radius,e_outage,std_err,samples,alpha,path_loss_exp,spacing_d\n"
            "0.3,0,0,200,0,2,2\n"
        )

    def test_samples_flag_overrides_run_section(self, run):
        code, out, _ = run(["outage", "--samples", "123"], config=ALPHA0_TEXT)
        assert code == 0
        assert out.splitlines()[1] == "0.3,0,0,123,0,2,2"

    def test_intermittent_interferer_scales_outage(self, run):
        # alpha=0.5 halves the always-on outage 1/17 exactly; the CSV keeps
        # nine digits, so the 1e-12 check runs on the in-process value
        config = F2_TEXT.replace(
            "  spectral_efficiency: 1.0\n",
            "  spectral_efficiency: 1.0\n  on_probability: 0.5\n",
        )
        cfg = parse_scenario(config)
        scenario = CellScenario(*cfg.require_cell())
        value = antenna_outage_closed_form(scenario, cfg.users, 0)
        assert abs(value - 0.5 / 17) <= 1e-12
        code, out, _ = run(["outage"], config=config)
        assert code == 0
        assert out == (
            "antenna,outage\n"
            f"0,{format_float(0.5 / 17)}\n"
            f"system,{format_float(0.5 / 17)}\n"
        )


    def test_pinned_system_row_is_the_antenna_product(self, run):
        cfg = parse_scenario(THREE_ANTENNA_TEXT)
        scenario = CellScenario(*cfg.require_cell())
        values = [antenna_outage_closed_form(scenario, cfg.users, m) for m in range(3)]
        code, out, _ = run(["outage"], config=THREE_ANTENNA_TEXT)
        assert code == 0
        assert out == (
            "antenna,outage\n"
            + "".join(f"{m},{format_float(v)}\n" for m, v in enumerate(values))
            + f"system,{format_float(math.prod(values))}\n"
        )


class TestSweep:
    def test_single_point_grid(self, run):
        code, out, _ = run(["sweep", "--radii", "0.5"], config=ALPHA0_TEXT)
        assert code == 0
        assert out == (
            "radius,e_outage,std_err,samples,alpha,path_loss_exp,spacing_d,argmin\n"
            "0.5,0,0,200,0,2,2,1\n"
        )

    def test_silent_grid_is_all_zero(self, run):
        code, out, _ = run(
            ["sweep", "--radii", "0:0.2:0.1"], config=ALPHA0_TEXT
        )
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert [r[0] for r in rows] == ["0", "0.1", "0.2"]
        assert all(r[1] == "0" and r[2] == "0" for r in rows)
        # ties break toward the first grid point
        assert [r[-1] for r in rows] == ["1", "0", "0"]

    def test_repeated_radius_flags_one_row(self, run):
        code, out, _ = run(["sweep", "--radii", "0.5,0.2,0.5"], config=ALPHA0_TEXT)
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert [(r[0], r[-1]) for r in rows] == [("0.5", "1"), ("0.2", "0"), ("0.5", "0")]

    def test_argmin_flags_the_smallest_value(self, run):
        code, out, _ = run(
            ["sweep", "--radii", "0.2:0.4:0.1"], config=SWEEP_TEXT
        )
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert len(rows) == 3
        flagged = [r for r in rows if r[-1] == "1"]
        assert len(flagged) == 1
        values = [float(r[1]) for r in rows]
        assert float(flagged[0][1]) == min(values)

    def test_same_seed_same_bytes(self, run, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        args = ["sweep", "--radii", "0.2:0.4:0.1"]
        code, _, _ = run(args + ["--out", str(out_a)], config=SWEEP_TEXT)
        assert code == 0
        code, _, _ = run(args + ["--out", str(out_b)], config=SWEEP_TEXT)
        assert code == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_seed_flag_changes_the_draws(self, run, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        args = ["sweep", "--radii", "0.2:0.4:0.1"]
        run(args + ["--out", str(out_a)], config=SWEEP_TEXT)
        run(args + ["--out", str(out_b), "--seed", "4"], config=SWEEP_TEXT)
        assert out_a.read_bytes() != out_b.read_bytes()


class TestDelay:
    def test_analytic_table(self, run):
        code, out, _ = run(["delay", "--dth", "1:3:1"], config=FLOWS_TEXT)
        assert code == 0
        system = fig5_system()
        lines = ["flow,d_th,prob_analytic"]
        for pr in (1, 2):
            for d in (1.0, 2.0, 3.0):
                p = delay_violation_probability(system, pr, d)
                lines.append(f"{pr},{format_float(d)},{format_float(p)}")
        assert out == "\n".join(lines) + "\n"

    def test_analytic_values_pinned(self, run):
        # regression anchors for the two curves at d=1
        code, out, _ = run(["delay", "--dth", "1:1:1"], config=FLOWS_TEXT)
        assert code == 0
        assert out.splitlines()[1:] == [
            "1,1,0.0699203139",
            "2,1,0.837753686",
        ]

    def test_higher_flow_usage_variance_past_float_range(self, run):
        # mu_s^2 var_x overflows, while the usage variance, 3.5e38, fits; the
        # root, ~5.12e-39, used to be out of the bisection's reach (exit 3)
        config = (
            "flows:\n"
            "  - priority: 1\n"
            "    arrival: {kind: renewal, mean: 1.0e90, variance: 1.0e308}\n"
            "    service: {kind: truncated_geometric, failure_prob: 0.5, max_attempts: 4}\n"
            "  - priority: 2\n"
            "    arrival: {kind: poisson, rate: 0.1}\n"
            "    service: {kind: unit}\n"
        )
        code, out, err = run(["delay", "--flow", "2", "--dth", "0:2:1"], config=config)
        assert (code, err) == (0, "")
        assert out.splitlines()[:2] == ["flow,d_th,prob_analytic", "2,0,1"]

    def test_flow_filter(self, run):
        code, out, _ = run(
            ["delay", "--dth", "1:3:1", "--flow", "2"], config=FLOWS_TEXT
        )
        assert code == 0
        rows = out.splitlines()[1:]
        assert len(rows) == 3
        assert all(r.startswith("2,") for r in rows)

    def test_simulator_columns(self, run):
        code, out, _ = run(
            ["delay", "--dth", "1:4:1", "--simulate"], config=FLOWS_TEXT
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "flow,d_th,prob_sim,ci_low,ci_high,prob_analytic"
        assert len(lines) == 1 + 2 * 4
        system = fig5_system()
        for line in lines[1:]:
            pr, d, p_hat, lo, hi, analytic = line.split(",")
            assert float(lo) <= float(p_hat) <= float(hi)
            want = delay_violation_probability(system, int(pr), float(d))
            assert analytic == format_float(want)

    def test_simulation_is_reproducible(self, run):
        args = ["delay", "--dth", "1:4:1", "--simulate"]
        _, first, _ = run(args, config=FLOWS_TEXT)
        _, second, _ = run(args, config=FLOWS_TEXT)
        assert first == second

    def test_unstable_load_warns_and_still_simulates(self, run):
        # data at 0.9 pushes the load past 1, but only flow 1 is solved and
        # strict priority keeps its delays blind to the levels below
        args = ["delay", "--dth", "0:6:1", "--simulate", "--flow", "1"]
        overloaded = FLOWS_TEXT.replace("rate: 0.6", "rate: 0.9")
        code, out, err = run(args, config=overloaded)
        assert code == 0
        assert err == "warning: offered load >= 1, queues are unstable\n"
        code, stable_out, stable_err = run(args, config=FLOWS_TEXT)
        assert (code, stable_err) == (0, "")
        assert out == stable_out

    def test_simulate_rejects_fractional_thresholds(self, run):
        code, _, err = run(
            ["delay", "--dth", "0.5:1.5:0.5", "--simulate"], config=FLOWS_TEXT
        )
        assert code == 2
        assert "integer d_th" in err


    def test_linked_probability_with_unit_flows(self, run):
        # p is the sampled E(outage) at the same seed and samples; unit
        # packets depart on every coin, so p changes no byte of the CSV
        args = ["delay", "--dth", "1:4:1", "--simulate"]
        code, linked, err = run(args, config=LINKED_UNIT_TEXT)
        assert code == 0
        _, outage, _ = run(["outage"], config=LINKED_UNIT_TEXT)
        e_outage = outage.splitlines()[1].split(",")[1]
        assert err.startswith(f"linked attempt failure probability = {e_outage} (se ")
        fixed = LINKED_UNIT_TEXT.replace("attempt_failure_prob: linked", "attempt_failure_prob: 0.1")
        code, plain, _ = run(args, config=fixed)
        assert code == 0
        assert linked == plain


class TestOptimize:
    def test_single_iteration_echoes_initial_layout(self, run):
        code, out, err = run(["optimize"], config=OPT_TEXT)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,L1_bar,theta1_bar,e_outage_estimate"
        assert lines[1].startswith("1,0.3,0,")
        estimate = float(lines[1].split(",")[3])
        assert 0.0 <= estimate <= 1.0
        # the final-layout echo re-parses to the starting circle
        block_start = lines.index("geometry:")
        block = "\n".join(lines[block_start:]) + "\n"
        cfg = parse_scenario(block)
        assert cfg.antennas == symmetric_circle(4, 0.3)
        assert "# final E(outage)" in err

    def test_out_flag_separates_trace_from_layout(self, run, tmp_path):
        trace_path = tmp_path / "trace.csv"
        code, out, _ = run(
            ["optimize", "--out", str(trace_path)], config=OPT_TEXT
        )
        assert code == 0
        trace = trace_path.read_text(encoding="utf-8")
        assert trace.startswith("n,L1_bar,theta1_bar,e_outage_estimate\n")
        assert len(trace.splitlines()) == 2
        assert out.startswith("geometry:\n")

    def test_divergence_warns_and_leaves_the_csv_alone(self, run, tmp_path, monkeypatch):
        plain = tmp_path / "plain.csv"
        code, _, err = run(["optimize", "--out", str(plain)], config=OPT_TEXT)
        assert code == 0 and "warning" not in err
        real = placement.rm_optimize

        def diverging(*args):
            final, trace = real(*args)
            return final, dataclasses.replace(trace, diverged=True)

        monkeypatch.setattr(placement, "rm_optimize", diverging)
        flagged = tmp_path / "flagged.csv"
        code, _, err = run(["optimize", "--out", str(flagged)], config=OPT_TEXT)
        assert code == 0
        assert err.splitlines()[0] == (
            "warning: a radius stayed pinned at its bound under a nonzero "
            "gradient; treat the result as divergent"
        )
        assert flagged.read_bytes() == plain.read_bytes()


# Byte pins of a short criterion-6 search (full_polar from the centre,
# exponent 4, K = 1) and a short sweep (exponent 2, R = 2, alpha = 0.7),
# captured when every probe was built as an AntennaVector and the kernel ran
# every pass; the search's were captured again when the kernel's log-space
# step gave way to the union recurrence, which moved trace rows 4 and 5 and
# the echo's last digits by ~1e-13. The layout echo carries 17 digits, so it
# pins the probes' gradients to the last bit.
PIN_OPT_TEXT = """\
channel:
  path_loss_exponent: 4.0
geometry:
  antennas:
    radii: [0.0, 0.0, 0.0, 0.0]
    angles: [0.0, 1.5707963267948966, 3.141592653589793, 4.71238898038469]
run: {seed: 6, samples: 200}
rm: {mode: full_polar, max_iter: 8, eval_samples: 200}
"""

PIN_OPT_CSV = """\
n,L1_bar,theta1_bar,e_outage_estimate
1,0,0,0.00842023825
2,0,0,0.00842023825
3,0,0,0.00867275985
4,0.0313320136,0,0.00821917862
5,0.0470431525,-1.26363565e-06,0.00809961783
6,0.159516713,0.000460912745,0.00868178995
7,0.234498198,0.000768994228,0.00920725406
8,0.287188637,0.00116565251,0.00960269878
"""

PIN_OPT_LAYOUT = """\
geometry:
  antennas:
    radii: [0.32689082207575554, 0.1219624725348035, 0.0024312841321119535, 0.0097024905831088765]
    angles: [0.0014226518063223798, 1.5301363433250779, 3.1401130611704238, 4.7166153691258845]
    height: 0.050000000000000003
"""

PIN_SWEEP_TEXT = """\
channel:
  path_loss_exponent: 2.0
  spectral_efficiency: 2.0
  on_probability: 0.7
geometry:
  antennas: {count: 4, radius: 0.3}
run: {seed: 4, samples: 200}
"""

PIN_SWEEP_CSV = """\
radius,e_outage,std_err,samples,alpha,path_loss_exp,spacing_d,argmin
0,0.312391136,0.0167307098,200,0.7,2,2,0
0.15,0.302498099,0.0164237813,200,0.7,2,2,0
0.3,0.274923555,0.0154180927,200,0.7,2,2,0
0.45,0.241520102,0.013341198,200,0.7,2,2,0
0.6,0.228721025,0.0105079093,200,0.7,2,2,1
0.75,0.261534404,0.0100972834,200,0.7,2,2,0
0.9,0.344676947,0.0124529044,200,0.7,2,2,0
"""


def test_optimize_and_sweep_bytes_are_pinned(run, tmp_path):
    trace = tmp_path / "trace.csv"
    code, out, err = run(["optimize", "--out", str(trace)], config=PIN_OPT_TEXT)
    assert code == 0
    assert trace.read_bytes() == PIN_OPT_CSV.encode()
    assert out == PIN_OPT_LAYOUT
    assert err == "# final E(outage) 0.00960269878 (se 0.00172594473) after 8 iterations\n"
    code, out, err = run(["sweep", "--radii", "0:0.9:0.15"], config=PIN_SWEEP_TEXT)
    assert (code, out, err) == (0, PIN_SWEEP_CSV, "")


# sha256 of the CSV, stdout and stderr of two short searches whose starts
# the pins above do not reach: radius_only from unequal radii, which the
# search ties to the first antenna's (by angle), saying so on stderr, and
# full_polar at alpha = 0.6 from radii within fd_step of both bounds, whose
# first probes are one-sided at each.
UNEQUAL_START_TEXT = """\
channel:
  path_loss_exponent: 2.0
geometry:
  antennas:
    radii: [0.1, 0.5, 0.3, 0.9]
    angles: [0.3, 1.0, 2.0, 4.0]
run: {seed: 3}
rm: {max_iter: 40, eval_samples: 2000}
"""

BOUND_START_TEXT = """\
channel:
  path_loss_exponent: 3.0
  on_probability: 0.6
geometry:
  antennas:
    radii: [0.99995, 0.00005, 0.5]
    angles: [0.0, 2.0, 4.0]
run: {seed: 5}
rm: {mode: full_polar, step_scale: 40.0, max_iter: 60, eval_samples: 1000}
"""

SEARCH_START_PINS = [
    (
        UNEQUAL_START_TEXT,
        "6b52ee08e8535b71092b65882f04a82a639bf36e5b3d0f3376a26dfbc36b9ca7",
        "393728cdfdb59fb2c80803fd2ba9b9f9ff1eb0c3410c273ce65dafdbe7c17dec",
        "1e76af85b0675f5b8be328bb163c18660cb3cd915df4ee79e95c72a0c61af87a",
    ),
    (
        BOUND_START_TEXT,
        "e19ec911232d680b7ab17f7132ff9b8c102dc3d69141cc8b205d3862a3e2a720",
        "3e429374c6925c0e18dd20c1286d0166179b991947aee83d6f934b66ca5aa89e",
        "85e037c1b042d0732054ae8b7412ebb129e79979eb5dcd6a16acd907aba28dd9",
    ),
]


@pytest.mark.parametrize("config, csv_pin, out_pin, err_pin", SEARCH_START_PINS, ids=["unequal", "bounds"])
def test_search_start_bytes_are_pinned(run, tmp_path, config, csv_pin, out_pin, err_pin):
    trace = tmp_path / "trace.csv"
    code, out, err = run(["optimize", "--out", str(trace)], config=config)
    assert code == 0
    sha = lambda data: hashlib.sha256(data).hexdigest()
    assert (sha(trace.read_bytes()), sha(out.encode()), sha(err.encode())) == (csv_pin, out_pin, err_pin)


@pytest.mark.parametrize(
    "mode, radii, warning",
    [
        # the first antenna by angle is neither the first listed nor the smallest
        ("radius_only", "[0.5, 0.3, 0.1, 0.9]", "radius 0.9"),
        ("radius_only", "[0.4, 0.4, 0.4, 0.4]", None),
        ("full_polar", "[0.5, 0.3, 0.1, 0.9]", None),
    ],
)
def test_radius_only_says_which_start_radius_it_uses(run, mode, radii, warning):
    config = (
        UNEQUAL_START_TEXT.replace("max_iter: 40", f"max_iter: 2, mode: {mode}")
        .replace("[0.1, 0.5, 0.3, 0.9]", radii)
        .replace("[0.3, 1.0, 2.0, 4.0]", "[4.0, 1.0, 2.0, 0.3]")
    )
    code, _, err = run(["optimize"], config=config)
    assert code == 0
    if warning is None:
        assert "warning" not in err
    else:
        assert err.startswith(
            f"warning: radius_only starts every antenna at {warning}, the first "
            "antenna's by angle; the other start radii were not used\n"
        )
        assert err.count("warning") == 1


# Four flows, one of each arrival kind, on a 1,001-point grid: the largest
# delay CSV, with a short simulation of the two-flow scenario next to it.
# The sha256 pins were taken when every cell was formatted on its own and
# every service-energy evaluation recomputed the flows' moments.
FOUR_FLOWS_TEXT = """\
flows:
  - priority: 1
    name: control
    arrival: {kind: poisson, rate: 0.1}
    service: {kind: unit}
  - priority: 2
    name: video
    arrival: {kind: markov_fluid, rate_a: 0.5, rate_b: 0.1, weight_a: 0.5, weight_b: 0.5}
    service: {kind: truncated_geometric, failure_prob: 0.1, max_attempts: 3}
  - priority: 3
    name: telemetry
    arrival: {kind: renewal, mean: 8.0, variance: 40.0}
    service: {kind: unit}
  - priority: 4
    name: bulk
    arrival: {kind: poisson, rate: 0.3}
    service: {kind: truncated_geometric, failure_prob: 0.2, max_attempts: 4}
"""

PIN_ANALYTIC_SHA256 = "3aeb08b0eb762d5a468c82fdc99d6a1abcc7d7ad108f0f7ecdc46c481d318568"
PIN_SIMULATE_SHA256 = "b389f06539170023a70af7332c9aebf0fb9681e5fccdb3b73b1205a087033de8"


def test_delay_bytes_are_pinned(run, tmp_path):
    curve = tmp_path / "curve.csv"
    argv = ["delay", "--dth", "0:50:0.05", "--out", str(curve)]
    assert run(argv, config=FOUR_FLOWS_TEXT) == (0, "", "")
    text = curve.read_bytes()
    assert text.count(b"\n") == 1 + 4 * 1001
    assert hashlib.sha256(text).hexdigest() == PIN_ANALYTIC_SHA256
    code, out, err = run(["delay", "--dth", "0:20:1", "--simulate"], config=FLOWS_TEXT)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == PIN_SIMULATE_SHA256


# A unit flow over a retrying one at p = 0.9 and L = 4 (load 0.79): long
# failure runs start many busy periods off the lattice, so the per-packet
# repair serves thousands of packets, over more than two blocks of the data
# level. The pin was taken from the break test that scanned every slot for an
# early success.
HIGH_P_TEXT = """\
flows:
  - priority: 1
    arrival: {kind: poisson, rate: 0.1}
    service: {kind: unit}
  - priority: 2
    arrival: {kind: poisson, rate: 0.2}
    service: {kind: truncated_geometric, failure_prob: 0.9, max_attempts: 4}
run: {attempt_failure_prob: 0.9, horizon: 200000, warmup: 2000, seed: 1}
"""
PIN_SIMULATE_HIGH_P_SHA256 = "f1cb2411b283ec34b05264d22db08fd3c8223eb70aad91960bc8fe82de4b29e2"


def test_retry_repairs_bytes_are_pinned(run):
    code, out, err = run(["delay", "--dth", "0:40:1", "--simulate"], config=HIGH_P_TEXT)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == PIN_SIMULATE_HIGH_P_SHA256


# A Poisson(1e-7) unit flow under README's voice flow has no departure
# after warmup in 1,000 slots: its prob_sim is nan and its band all of [0, 1].
NO_DEPARTURE_TEXT = """\
flows:
  - priority: 1
    name: voice
    arrival: {kind: poisson, rate: 0.2}
    service: {kind: unit}
  - priority: 2
    arrival: {kind: poisson, rate: 1.0e-7}
    service: {kind: unit}
run: {attempt_failure_prob: 0.1, horizon: 1000, warmup: 10, seed: 1}
"""


def test_flow_without_departures_bytes_are_pinned(run):
    code, out, err = run(["delay", "--dth", "1:3:1", "--simulate"], config=NO_DEPARTURE_TEXT)
    assert (code, err) == (0, "")
    assert out == (
        "flow,d_th,prob_sim,ci_low,ci_high,prob_analytic\n"
        "1,1,0.100529101,0.0576587884,0.143399413,0.0699203139\n"
        "1,2,0,0,0,0.00488885029\n"
        "1,3,0,0,0,0.000341829947\n"
        "2,1,nan,0,1,0.99970216\n"
        "2,2,nan,0,1,0.999404408\n"
        "2,3,nan,0,1,0.999106745\n"
    )


# The cell kinds a command writes, the float edges among them. A drawn
# table gives each column one kind, as every command does (see
# test_every_row_has_the_first_rows_cell_types).
EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e308, 0.1, 1e16]
FLOATS = st.one_of(st.floats(), st.sampled_from(EDGE_FLOATS))
KINDS = [
    st.integers(-(10**20), 10**20),
    st.booleans(),
    st.none(),
    FLOATS,
    FLOATS.map(np.float64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.text(max_size=6),
]
TABLES = st.lists(st.sampled_from(KINDS), max_size=7).flatmap(
    lambda kinds: st.lists(st.tuples(*kinds), max_size=12)
)


@given(header=st.lists(st.text(max_size=4), max_size=6), rows=TABLES)
@example(
    header=["a", "b"],
    rows=[
        (1, 0.5, np.float64(-0.0), np.int64(7), True, None, "x"),
        (-2, math.nan, np.float64(math.inf), np.int64(-1), False, None, "%s"),
    ],
)
def test_emit_matches_per_cell_oracle(header, rows):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        _emit(header, rows, None)
    assert out.getvalue() == emit_text(header, rows)


@pytest.mark.parametrize(
    "lengths",
    [
        [3, 2],
        [3, 4],
        # 9 cells, three rows' worth: only a row-by-row check sees it
        [3, 2, 4],
    ],
    ids=["short", "long", "cancelling"],
)
def test_emit_rejects_a_ragged_row(lengths):
    rows = [(0.5,) * n for n in lengths]
    with contextlib.redirect_stdout(io.StringIO()) as out, pytest.raises(TypeError):
        _emit(["a", "b", "c"], rows, None)
    assert out.getvalue() == ""


@pytest.mark.parametrize(
    "argv, config",
    [
        (["delay", "--dth", "0:3:1"], FLOWS_TEXT),
        (["delay", "--dth", "0:3:1", "--simulate"], FLOWS_TEXT),
        (["outage"], THREE_ANTENNA_TEXT),
        (["outage"], SWEEP_TEXT),
        (["sweep", "--radii", "0:0.9:0.15"], PIN_SWEEP_TEXT),
        (["sweep", "--radii", "0.2,0.4"], F2_TEXT.split("  users:")[0]),
        (["optimize"], OPT_TEXT.replace("max_iter: 1", "max_iter: 3")),
        (["optimize"], PIN_OPT_TEXT),
    ],
    ids=[
        "delay-analytic",
        "delay-simulate",
        "outage-pinned",
        "outage-sampled",
        "sweep",
        "sweep-no-spacing",
        "optimize-radius-only",
        "optimize-full-polar",
    ],
)
def test_every_row_has_the_first_rows_cell_types(run, monkeypatch, argv, config):
    # _emit takes its one %-format from the first row's cells
    tables = []

    def emit(header, rows, out):
        tables.append(rows)
        _emit(header, rows, out)

    monkeypatch.setattr(cli, "_emit", emit)
    assert run(argv, config=config)[0] == 0
    (rows,) = tables
    first = tuple(map(type, rows[0]))
    for row in rows:
        assert type(row) is tuple
        assert tuple(map(type, row)) == first


# sha256 of each README command's stdout and stderr; optimize runs the
# default radius_only search, which no other pin covers
README_PINS = [
    ("4439a40c753ab6e4813d8458823ce9e437688ea202cd6ee9b177825e882c0601", ""),
    ("dc4c1fb679aab3d75c7eabab2db39a8a515dda30ea40afda744e40a1e70a616c", ""),
    ("a28b669851dcfe2ca810a2374f0de931385bb2a4426973e09e8ab3dd614b4da7", ""),
    (
        "f8183b9fb995e941fed3de3953492cc20cd030816cc52b7f90c2b736a4a1f0b2",
        "4286eecd575d5c74ad9438c621c922c4d71ef2ffedbd19318a1129ad9618ccf7",
    ),
    ("cbc98e7142e056a1e763a7579dc133bb42fb136518248973cd60dd882e5384db", ""),
]


def test_readme_example_runs_as_documented(run, tmp_path, monkeypatch):
    # the scenario block and the command lines, exactly as README gives
    # them, read as the byte gate reads them; its last command, the
    # pinned-user outage, is not README's
    monkeypatch.chdir(tmp_path)
    argvs = cli_bytes.readme_commands(tmp_path)[:-1]
    assert [a[0] for a in argvs] == ["delay", "delay", "outage", "optimize", "sweep"]
    assert "--simulate" in argvs[1]
    sha = lambda text: hashlib.sha256(text.encode()).hexdigest() if text else ""
    for argv, pins in zip(argvs, README_PINS):
        code, out, err = run(argv)
        assert code == 0, (argv, err)
        assert (sha(out), sha(err)) == pins, argv


@pytest.mark.parametrize(
    "argv, config",
    [
        (["delay", "--dth", "0:3:1"], FLOWS_TEXT),
        (["outage"], ALPHA0_TEXT),
        (["optimize"], OPT_TEXT),
        (["sweep", "--radii", "0.2,0.4"], SWEEP_TEXT),
    ],
    ids=["delay", "outage", "optimize", "sweep"],
)
def test_run_output_names_the_csv_and_out_flag_wins(run, tmp_path, argv, config):
    code, plain, _ = run(argv, config=config)
    assert code == 0
    from_run, from_flag = tmp_path / "from_run.csv", tmp_path / "from_flag.csv"
    config = config.replace("run: {", f"run: {{output: '{from_run}', ")
    # the CSV leaves stdout for run.output; only optimize's layout echo stays
    code, out, _ = run(argv, config=config)
    assert code == 0
    assert from_run.read_text(encoding="utf-8") + out == plain
    from_run.unlink()
    code, out, _ = run(argv + ["--out", str(from_flag)], config=config)
    assert code == 0
    assert from_flag.read_text(encoding="utf-8") + out == plain
    assert not from_run.exists()


class TestExitCodes:
    def test_unstable_system_is_a_numerical_failure(self, run):
        config = (
            "flows:\n"
            "  - priority: 1\n"
            "    arrival: {kind: poisson, rate: 1.2}\n"
            "    service: {kind: unit}\n"
        )
        code, _, err = run(["delay", "--dth", "1:2:1"], config=config)
        assert code == 3
        assert err.startswith("numerical failure:")
        assert "load 1.2" in err

    @pytest.mark.parametrize(
        "dth, run_keys, message",
        [
            ("0:3:0.5", "attempt_failure_prob: 0.1, ", "--simulate needs integer d_th values"),
            ("0:3:1", "", "run.attempt_failure_prob is required for simulation"),
        ],
        ids=["fractional-dth", "no-failure-prob"],
    )
    def test_simulate_inputs_are_checked_before_the_root_solves(self, run, dth, run_keys, message):
        # at load 1.311 every root solve fails; the flag's or the key's fault
        # is still a configuration error, reported before any solve
        config = FLOWS_TEXT.replace("rate: 0.6", "rate: 1.0").replace(
            "attempt_failure_prob: 0.1, ", run_keys
        )
        code, stdout, err = run(["delay", "--dth", dth, "--simulate"], config=config)
        assert (code, stdout) == (2, "")
        assert err.startswith(f"error: {message}")
        code, _, err = run(["delay", "--dth", "0:3:1"], config=config)
        assert code == 3 and "load 1.311 >= 1" in err

    @pytest.mark.parametrize("data_rate, load", [("0.6", 0.867), ("1.0", 1.311)], ids=["stable", "unstable"])
    @pytest.mark.parametrize(
        "simulate, edits, message",
        [
            (
                True,
                [("attempt_failure_prob: 0.1", "attempt_failure_prob: 0.2")],
                "per-attempt failure probability must match the retry model of flow 2 (0.1 != 0.2)",
            ),
            (
                True,
                [("attempt_failure_prob: 0.1", "attempt_failure_prob: linked")],
                "this command needs sections: geometry, geometry.antennas, channel",
            ),
            (
                True,
                [("{kind: poisson, rate: 0.2}", "{kind: renewal, mean: 5.0, variance: 25.0}")],
                "generic renewal arrivals have no sampling distribution",
            ),
            (
                True,
                [
                    ("{kind: poisson, rate: 0.2}", "{kind: renewal, mean: 5.0, variance: 25.0}"),
                    ("attempt_failure_prob: 0.1", "attempt_failure_prob: linked"),
                    ("run: {", LINKED_CELL + "run: {"),
                ],
                "generic renewal arrivals have no sampling distribution",
            ),
            (
                False,
                [
                    ("{kind: poisson, rate: 0.2}", "{kind: renewal, mean: 5.0, variance: 25.0}"),
                    ("run: {", "run: {higher_priority_mode: exact_poisson, "),
                ],
                "exact_poisson mode needs Poisson arrivals and "
                "single-attempt service on every higher-priority flow",
            ),
        ],
        ids=[
            "retry-model-mismatch",
            "linked-without-cell",
            "renewal-simulated",
            "renewal-simulated-linked",
            "exact-poisson-higher-flow",
        ],
    )
    def test_delay_faults_exit_before_the_root_solves(
        self, run, tmp_path, monkeypatch, data_rate, load, simulate, edits, message
    ):
        # cmd_delay judges every input before its first root solve, so each
        # fault exits 2 even where every solve would fail on a load >= 1, and
        # before a linked p spends its E(outage)
        def delay_decay_rate(system, priority):
            raise AssertionError("a root solve ran before the input was judged")

        def expected_outage(*args, **kwargs):
            raise AssertionError("the linked E(outage) was spent before the input was judged")

        monkeypatch.setattr(cli, "delay_decay_rate", delay_decay_rate)
        monkeypatch.setattr(outage, "expected_outage", expected_outage)
        config = FLOWS_TEXT.replace("rate: 0.6", f"rate: {data_rate}")
        for old, new in edits:
            assert old in config
            config = config.replace(old, new)
        out = tmp_path / "x.csv"
        argv = ["delay", "--dth", "0:3:1", "--out", str(out)] + ["--simulate"] * simulate
        code, stdout, err = run(argv, config=config)
        assert (code, stdout, err) == (2, "", f"error: {message}\n")
        assert not out.exists()
        flows = parse_scenario(config).flows
        assert PrioritySystem(flows).effective_load() == pytest.approx(load, abs=1e-3)

    def test_missing_flows_section(self, run):
        code, _, err = run(
            ["delay", "--dth", "1:2:1"],
            config="channel: {path_loss_exponent: 2.0}\n",
        )
        assert code == 2
        assert "non-empty flows section" in err

    def test_missing_geometry_sections(self, run):
        code, _, err = run(["outage"], config=FLOWS_TEXT)
        assert code == 2
        assert "needs sections: geometry, geometry.antennas, channel" in err

    def test_missing_config_file(self, run, tmp_path):
        code, _, err = run(
            ["delay", "--config", str(tmp_path / "missing.yaml")]
        )
        assert code == 2
        assert err.startswith("error:")
        assert "No such file" in err

    def test_unwritable_out_is_a_config_error(self, run, tmp_path):
        out = tmp_path / "missing" / "x.csv"
        code, _, err = run(["outage", "--out", str(out)], config=ALPHA0_TEXT)
        assert code == 2
        assert err.startswith("error:")
        assert "No such file" in err

    @pytest.mark.parametrize("where", ["flag", "run.output"])
    def test_unwritable_out_fails_before_the_run(self, run, tmp_path, monkeypatch, where):
        def simulate(cfg):
            raise AssertionError("simulate ran although the CSV cannot be written")

        monkeypatch.setattr("dasqos.slotsim.simulate", simulate)
        out = tmp_path / "missing" / "x.csv"
        argv, config = ["delay", "--dth", "1:2:1", "--simulate"], FLOWS_TEXT
        if where == "flag":
            argv += ["--out", str(out)]
        else:
            config = config.replace("run: {", f"run: {{output: '{out}', ")
        code, stdout, err = run(argv, config=config)
        assert (code, stdout, err) == (2, "", f"error: {out}: No such file or directory\n")

    def test_directory_out_is_a_config_error(self, run, tmp_path):
        code, _, err = run(["delay", "--dth", "1:2:1", "--out", str(tmp_path)], config=FLOWS_TEXT)
        assert (code, err) == (2, f"error: {tmp_path}: Is a directory\n")

    def test_failed_run_leaves_the_output_as_it_was(self, run, tmp_path):
        unstable = FLOWS_TEXT.replace("rate: 0.6", "rate: 0.9")
        old, new = tmp_path / "old.csv", tmp_path / "new.csv"
        old.write_text("earlier run\n", encoding="utf-8")
        for out in (old, new):
            code, _, err = run(["delay", "--dth", "1:2:1", "--out", str(out)], config=unstable)
            assert code == 3 and err.startswith("numerical failure:")
        assert old.read_text(encoding="utf-8") == "earlier run\n"
        assert not new.exists()
        # a run that succeeds replaces the earlier CSV
        code, _, _ = run(["delay", "--dth", "1:2:1", "--out", str(old)], config=FLOWS_TEXT)
        assert code == 0
        assert old.read_text(encoding="utf-8").startswith("flow,d_th,prob_analytic\n")

    @pytest.mark.parametrize(
        "higher",
        [
            "{kind: poisson, rate: 0.2}\n    service: {kind: truncated_geometric, failure_prob: 0.1, max_attempts: 2}",
            "{kind: renewal, mean: 5.0, variance: 25.0}\n    service: {kind: unit}",
        ],
        ids=["retrying", "renewal"],
    )
    def test_exact_poisson_rejects_higher_flow_before_writing(self, run, tmp_path, higher):
        config = FLOWS_TEXT.replace(
            "{kind: poisson, rate: 0.2}\n    service: {kind: unit}", higher
        ).replace("run: {", "run: {higher_priority_mode: exact_poisson, ")
        assert higher in config
        out = tmp_path / "x.csv"
        code, stdout, err = run(["delay", "--dth", "1:2:1", "--out", str(out)], config=config)
        assert (code, stdout) == (2, "")
        assert err == (
            "error: exact_poisson mode needs Poisson arrivals and "
            "single-attempt service on every higher-priority flow\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, config, code, first_line",
        [
            (
                "outage",
                ALPHA0_TEXT.replace("geometry:\n", "geometry:\n  spacing: inf\n"),
                2,
                "error: {path}:5:12: spacing must be finite, got 'inf'",
            ),
            (
                "outage",
                ALPHA0_TEXT.replace("exponent: 2.0", "exponent: inf"),
                2,
                "error: {path}:2:23: path_loss_exponent must be finite, got 'inf'",
            ),
            (
                "delay",
                ONE_FLOW.format("{kind: renewal, mean: 2.0, variance: inf}"),
                2,
                "error: {path}:3:51: variance must be finite, got 'inf'",
            ),
            (
                "delay",
                ONE_FLOW.format("{kind: poisson, rate: 1.0e-320}"),
                2,
                "error: {path}:2:5: interval moments of Poisson(rate=1e-320) "
                "do not fit a float",
            ),
            (
                "delay",
                ONE_FLOW.format(
                    "{kind: markov_fluid, rate_a: 1.0, rate_b: 1.0e-200, "
                    "weight_a: 0.5, weight_b: 0.5}"
                ),
                2,
                "error: {path}:2:5: interval moments of MarkovFluidRenewal(rate_a=1.0, "
                "rate_b=1e-200, weight_a=0.5, weight_b=0.5) do not fit a float",
            ),
            (
                "delay",
                ONE_FLOW.format("{kind: renewal, mean: 1.0e110, variance: 1.0}"),
                2,
                "error: {path}:2:5: interval moments of GenericRenewal(mean=1e+110, "
                "variance=1.0) do not fit a float",
            ),
            (
                "delay",
                ONE_FLOW.format("{kind: renewal, mean: 2.0, variance: 1.0e308}"),
                3,
                "numerical failure: 200 bisections left the root in (0, 6.22e-61]; "
                "decay exponent out of range",
            ),
        ],
        ids=[
            "spacing-inf",
            "path-loss-inf",
            "variance-inf",
            "poisson-rate-underflows",
            "markov-fluid-rate-underflows",
            "renewal-mean-cube-overflows",
            "bisection-runs-out",
        ],
    )
    def test_numbers_at_float_edges(self, run, tmp_path, command, config, code, first_line):
        # each exited 0 with nan or zero rows, or in a traceback, before
        out = tmp_path / "x.csv"
        grid = ["--dth", "0:2:1"] if command == "delay" else []
        got, stdout, err = run([command, "--out", str(out), *grid], config=config)
        assert (got, stdout) == (code, "")
        assert err.splitlines()[0] == first_line.format(path=tmp_path / "scenario.yaml")
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, config, first_line",
        [
            (
                ["delay", "--dth", "0:2:1"],
                FLOWS_TEXT.replace("attempt_failure_prob: 0.1", "attempt_failure_prob: 1.5"),
                "error: {path}:8:6: attempt failure probability must be in [0, 1], got 1.5",
            ),
            (
                ["delay", "--dth", "0:2:1"],
                FLOWS_TEXT.replace("warmup: 2000", "warmup: 30000"),
                "error: {path}:8:6: need horizon > warmup >= 0, got 30000, 30000",
            ),
            (
                ["delay", "--dth", "0:2:1"],
                FLOWS_TEXT.replace("seed: 5", "seed: 5, samples: 1"),
                "error: {path}:8:6: need at least 2 samples, got 1",
            ),
            (
                ["outage"],
                ALPHA0_TEXT.replace(
                    "radius: 0.3}\n", "radius: 0.3}\n  users: {radii: [0.5, 0.7], angles: [0.0, 1.0]}\n"
                ),
                "error: {path}:6:10: user vector has 2 entries for 7 cells",
            ),
            (
                ["outage"],
                ALPHA0_TEXT.replace("geometry:\n", "geometry:\n  spacing: 0\n"),
                "error: {path}:5:3: center spacing must be > 0, got 0.0",
            ),
            (
                ["outage"],
                ALPHA0_TEXT.replace("geometry:\n", "geometry:\n  spacing: 0\n  centers: [[0.0, 0.0]]\n"),
                "error: {path}:5:3: center spacing must be > 0, got 0.0",
            ),
            (
                ["outage"],
                ALPHA0_TEXT.replace("geometry:\n", "geometry:\n  centers: []\n"),
                "error: {path}:5:3: cluster needs at least one cell",
            ),
            (
                ["outage"],
                ALPHA0_TEXT.replace("count: 4", "count: 0"),
                "error: {path}:5:13: antenna count must be >= 1, got 0",
            ),
            (
                ["outage"],
                ALPHA0_TEXT.replace("{count: 4, radius: 0.3}", "{radii: [0.3, 0.3], angles: [0.0]}"),
                "error: {path}:5:13: radii and angles must have equal length",
            ),
            (
                ["outage"],
                ALPHA0_TEXT.replace("geometry:\n", "geometry:\n  users: {radii: [0.5, 0.7], angles: [0.0]}\n"),
                "error: {path}:5:10: user radii and angles must have equal length",
            ),
            (
                ["outage"],
                ALPHA0_TEXT.replace("on_probability: 0.0", "spectral_efficiency: 0"),
                "error: {path}:2:3: spectral efficiency must be > 0, got 0.0",
            ),
            (
                ["outage"],
                ALPHA0_TEXT.replace("on_probability: 0.0", "on_probability: 1.5"),
                "error: {path}:2:3: on probability must be in [0, 1], got 1.5",
            ),
            (
                ["delay", "--dth", "0:2:1"],
                FLOWS_TEXT.replace(
                    "{kind: poisson, rate: 0.2}",
                    "{kind: markov_fluid, rate_a: 1.0, rate_b: 0.1, weight_a: 1.5, weight_b: -0.5}",
                ),
                "error: {path}:3:14: markov-fluid branch weights must be >= 0",
            ),
            (
                ["delay", "--dth", "0:2:1"],
                FLOWS_TEXT.replace("{kind: poisson, rate: 0.2}", "{kind: renewal, mean: 5.0, variance: -1.0}"),
                "error: {path}:3:14: renewal interval variance must be >= 0, got -1.0",
            ),
            (["delay", "--dth=-1,2"], FLOWS_TEXT, "error: delay bound must be >= 0, got -1.0"),
            (
                ["delay", "--dth", "0:2:1", "--simulate"],
                FLOWS_TEXT.replace("attempt_failure_prob: 0.1, ", ""),
                "error: run.attempt_failure_prob is required for simulation "
                "(a number, or 'linked' to take it from expected outage)",
            ),
            (["sweep", "--samples", "1"], SWEEP_TEXT, "error: need at least 2 samples, got 1"),
        ],
        ids=[
            "attempt-failure-prob",
            "horizon-warmup",
            "samples",
            "users-count",
            "spacing",
            "spacing-with-centers",
            "no-centers",
            "no-antennas",
            "antenna-lengths",
            "user-lengths",
            "spectral-efficiency",
            "on-probability",
            "negative-weight",
            "negative-variance",
            "negative-dth",
            "simulate-without-probability",
            "samples-flag",
        ],
    )
    def test_run_values_and_users_are_checked_at_parse(self, run, tmp_path, argv, config, first_line):
        # each value is checked once, where it enters: the scenario's at parse,
        # located; a flag's when main applies it. The functions downstream take
        # them as given. The first three exited 0 on analytic delay, users-count
        # without a location.
        out = tmp_path / "x.csv"
        code, stdout, err = run(argv + ["--out", str(out)], config=config)
        assert (code, stdout) == (2, "")
        assert err.splitlines()[0] == first_line.format(path=tmp_path / "scenario.yaml")
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, config, message",
        [
            (["delay", "--dth", "nan"], FLOWS_TEXT, "grid value in 'nan' must not be NaN"),
            (["delay", "--dth", "0,inf"], FLOWS_TEXT, "grid value in '0,inf' must be finite, got 'inf'"),
            (["delay", "--dth", "0:inf:1"], FLOWS_TEXT, "grid value in '0:inf:1' must be finite, got 'inf'"),
            (["delay", "--dth", "0:nan:1"], FLOWS_TEXT, "grid value in '0:nan:1' must not be NaN"),
            (["delay", "--dth", "0:2:nan"], FLOWS_TEXT, "grid value in '0:2:nan' must not be NaN"),
            (["sweep", "--radii", "0:nan:0.1"], SWEEP_TEXT, "grid value in '0:nan:0.1' must not be NaN"),
            (
                ["delay", "--dth", "0,inf", "--simulate"],
                FLOWS_TEXT,
                "grid value in '0,inf' must be finite, got 'inf'",
            ),
        ],
        ids=["nan", "list-inf", "stop-inf", "stop-nan", "step-nan", "radii-stop-nan", "simulate-inf"],
    )
    def test_non_finite_grid_values(self, run, tmp_path, argv, config, message):
        # grids follow the scenario's number rule; these printed nan rows or
        # ended in a traceback
        out = tmp_path / "x.csv"
        code, stdout, err = run(argv + ["--out", str(out)], config=config)
        assert (code, stdout, err) == (2, "", f"error: {message}\n")
        assert not out.exists()

    def test_grid_point_bound(self, run, tmp_path):
        assert len(cli._parse_grid(f"0:{cli.MAX_GRID_POINTS - 1}:1")) == cli.MAX_GRID_POINTS
        out = tmp_path / "x.csv"
        for grid in (f"0:{cli.MAX_GRID_POINTS}:1", "0:2:1e-300", "0:1e308:1e-10"):
            code, stdout, err = run(["delay", "--dth", grid, "--out", str(out)], config=FLOWS_TEXT)
            assert (code, stdout) == (2, ""), grid
            assert err == f"error: grid {grid!r} has more than {cli.MAX_GRID_POINTS} points\n"
            assert not out.exists()

    @pytest.mark.parametrize(
        "argv, config",
        [
            (["outage"], ALPHA0_TEXT),
            (["sweep", "--radii", "0.2"], SWEEP_TEXT),
            (["optimize"], OPT_TEXT),
            (["delay", "--dth", "1:2:1", "--simulate"], FLOWS_TEXT),
        ],
        ids=["outage", "sweep", "optimize", "delay-simulate"],
    )
    def test_negative_seed_flag(self, run, argv, config):
        code, out, err = run(argv + ["--seed", "-1"], config=config)
        assert (code, out, err) == (2, "", "error: seed must be >= 0, got -1\n")

    @pytest.mark.parametrize(
        "argv, config",
        [
            (["outage"], ALPHA0_TEXT),
            (["sweep", "--radii", "0.2"], SWEEP_TEXT),
            (["optimize"], OPT_TEXT),
            (["delay", "--dth", "1:2:1"], ""),
        ],
        ids=["outage", "sweep", "optimize", "delay"],
    )
    def test_duplicate_priority_is_checked_at_parse(self, run, tmp_path, argv, config):
        # checked once, where flows enter, so every command that reads the
        # scenario rejects it at the flow that repeats a priority
        flows = FLOWS_TEXT.replace("priority: 2", "priority: 1").split("run:")[0]
        code, stdout, err = run(argv, config=flows + config)
        assert (code, stdout) == (2, "")
        path = tmp_path / "scenario.yaml"
        assert err == f"error: {path}:5:5: duplicate priorities: [1, 1]\n"

    def test_unknown_priority(self, run):
        code, _, err = run(
            ["delay", "--dth", "1:2:1", "--flow", "99"], config=FLOWS_TEXT
        )
        assert code == 2
        assert "no flow with priority 99" in err

    def test_malformed_grids(self, run):
        for grid in ("0:0.9", "0.9:0.1:0.1", "a,b"):
            code, _, err = run(["sweep", "--radii", grid], config=ALPHA0_TEXT)
            assert code == 2, grid
            assert err.startswith("error:")

    def test_config_syntax_error(self, run):
        code, _, err = run(
            ["delay", "--dth", "1:2:1"], config="flows: [unclosed\n"
        )
        assert code == 2
        assert "invalid YAML" in err

    def test_config_that_is_not_utf8(self, run, tmp_path):
        path = tmp_path / "latin.yaml"
        path.write_bytes(b"run:\n  seed: \xff\xfe1\n")
        code, out, err = run(["delay", "--dth", "1:2:1", "--config", str(path)])
        assert (code, out) == (2, "")
        assert err == f"error: {path}: not UTF-8: byte 0xff at offset 13\n"

    def test_threads_flag_is_gone(self, run, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["outage", "--threads", "2"], config=ALPHA0_TEXT)
        assert exc.value.code == 2
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err

    def test_optimize_takes_no_samples_flag(self, run, capsys):
        # the search scores its trace on rm.eval_samples users
        with pytest.raises(SystemExit) as exc:
            run(["optimize", "--samples", "20000"], config=OPT_TEXT)
        assert exc.value.code == 2
        assert "unrecognized arguments: --samples 20000" in capsys.readouterr().err

    def test_missing_subcommand_exits_via_argparse(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
        capsys.readouterr()


# flows of every arrival kind and both service kinds, plus a run section: the
# kind of document perfbench's set-up probe parses
START_UP_TEXT = """\
flows:
  - priority: 1
    arrival: {kind: poisson, rate: 0.1}
    service: {kind: unit}
  - priority: 2
    arrival: {kind: markov_fluid, rate_a: 0.5, rate_b: 0.1, weight_a: 0.5, weight_b: 0.5}
    service: {kind: truncated_geometric, failure_prob: 0.1, max_attempts: 3}
  - priority: 3
    arrival: {kind: renewal, mean: 8.0, variance: 40.0}
    service: {kind: unit}
run: {attempt_failure_prob: 0.1, seed: 5}
"""

START_UP_CHECK = """\
import sys
sys.modules["numpy"] = None  # from here on, importing numpy raises ImportError
import dasqos.cli
dasqos.cli.load_scenario(sys.argv[1])
assert dasqos.cli.main(sys.argv[2:]) == 0
assert "concurrent.futures" not in sys.modules
"""


def test_cli_start_up_and_analytic_delay_run_without_numpy(tmp_path):
    # numpy is most of a CLI start-up and only the commands that draw use it;
    # no command runs a thread pool, and importing concurrent.futures
    # would pull logging and queue into every start-up
    config = tmp_path / "flows.yaml"
    config.write_text(START_UP_TEXT)
    argv = ["delay", "--config", str(config), "--dth", "0:30:0.5", "--out"]
    src = str(Path(dasqos.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", START_UP_CHECK, str(config), *argv, str(tmp_path / "blocked.csv")],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert main([*argv, str(tmp_path / "free.csv")]) == 0
    assert (tmp_path / "blocked.csv").read_bytes() == (tmp_path / "free.csv").read_bytes()


def test_main_runs_the_command_function_the_module_holds(run, monkeypatch):
    # the parser outlives a call, so it must not hold on to the command
    # functions: a cmd_<name> rebound after the first call runs in its place
    assert run(["delay", "--dth", "0:1:1"], config=FLOWS_TEXT)[0] == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_delay", lambda args, cfg: seen.append((args.dth, cfg.run.seed)))
    code, out, err = run(["delay", "--dth", "0:2:1", "--seed", "7"], config=FLOWS_TEXT)
    assert (code, out, err, seen) == (0, "", "", [("0:2:1", 7)])


PARSER_COUNT_CHECK = """\
import argparse, json, sys
built = []
init = argparse.ArgumentParser.__init__
def counted(self, *args, **kwargs):
    built.append(self)
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counted
import dasqos.cli
counts = [len(built)]
for argv in json.loads(sys.argv[1]):
    assert dasqos.cli.main(argv) == 0, argv
    counts.append(len(built))
print(json.dumps(counts))
"""


def test_one_parser_per_process_and_none_at_import(tmp_path):
    # a fresh interpreter, so no earlier main() call has built the parser:
    # the top-level parser and its four subcommands, built by the first call
    for name, text in (("flows", FLOWS_TEXT), ("alpha0", ALPHA0_TEXT), ("opt", OPT_TEXT)):
        (tmp_path / f"{name}.yaml").write_text(text, encoding="utf-8")
    argvs = [
        ["delay", "--config", "flows.yaml", "--dth", "0:2:1", "--out", "delay.csv"],
        ["outage", "--config", "alpha0.yaml", "--out", "outage.csv"],
        ["optimize", "--config", "opt.yaml", "--out", "optimize.csv"],
    ]
    src = str(Path(dasqos.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-c", PARSER_COUNT_CHECK, json.dumps(argvs)],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == [0, 5, 5, 5]
