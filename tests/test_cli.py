"""End-to-end command tests: argv in, CSV text and exit code out.

Everything runs in-process through main() so coverage and debuggers see
the command paths; stdout/stderr are captured with capsys.
"""
import pytest

from dasqos.cli import main
from dasqos.config import format_float, parse_scenario
from dasqos.delay import PrioritySystem, delay_violation_probability
from dasqos.geometry import symmetric_circle
from dasqos.outage import CellScenario, antenna_outage_closed_form
from dasqos.traffic import DeterministicUnit, Poisson, TrafficFlow, TruncatedGeometric

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

OPT_TEXT = """\
channel:
  path_loss_exponent: 4.0
geometry:
  antennas: {count: 4, radius: 0.3}
run: {seed: 9}
rm: {max_iter: 1, eval_samples: 2, step_scale: 5.0}
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

    def test_simulate_rejects_fractional_thresholds(self, run):
        code, _, err = run(
            ["delay", "--dth", "0.5:1.5:0.5", "--simulate"], config=FLOWS_TEXT
        )
        assert code == 2
        assert "integer d_th" in err


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

    def test_missing_subcommand_exits_via_argparse(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
        capsys.readouterr()
