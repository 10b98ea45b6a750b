"""The runner behind .github/cli_bytes.py, with both sides on the working tree."""
import importlib.util
from pathlib import Path

from dasqos.cli import main

_PATH = Path(__file__).resolve().parents[1] / ".github" / "cli_bytes.py"
_SPEC = importlib.util.spec_from_file_location("cli_bytes", _PATH)
cli_bytes = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(cli_bytes)

SRC = Path(__file__).resolve().parents[1] / "src"

FLOWS_TEXT = """\
flows:
  - priority: 1
    arrival: {kind: poisson, rate: 0.2}
    service: {kind: unit}
  - priority: 2
    arrival: {kind: poisson, rate: 0.6}
    service: {kind: truncated_geometric, failure_prob: 0.1, max_attempts: 4}
"""


def test_one_tree_against_itself_is_identical(tmp_path):
    (tmp_path / "flows.yaml").write_text(FLOWS_TEXT, encoding="utf-8")
    argv = ["delay", "--config", "flows.yaml", "--dth", "0:5:1", "--out", "curve.csv"]
    code, out, err, csv = cli_bytes.run(argv, SRC, tmp_path)
    assert (code, out, err) == (0, b"", b"")
    assert csv.startswith(b"flow,d_th,prob_analytic\n") and csv.count(b"\n") == 13
    assert cli_bytes.run(argv, SRC, tmp_path) == cli_bytes.run(argv, SRC, tmp_path)


def test_readme_commands_and_the_pinned_outage(tmp_path):
    argvs = cli_bytes.readme_commands(tmp_path)
    assert [a[0] for a in argvs] == ["delay", "delay", "outage", "optimize", "sweep", "outage"]
    pinned = (tmp_path / "pinned.yaml").read_text(encoding="utf-8")
    assert pinned.replace(cli_bytes.PINNED_USERS, "") == (tmp_path / "scenario.yaml").read_text(
        encoding="utf-8"
    )
    assert cli_bytes.PINNED_USERS in pinned


def test_in_process_pass_on_readme_commands(tmp_path):
    # README's commands with the argparse error and the help page between
    # them, in sequence through main() in this interpreter, against fresh runs
    argvs = cli_bytes.readme_commands(tmp_path)
    argvs[1:1] = [cli_bytes.ERROR_ARGV]
    argvs[3:3] = [cli_bytes.HELP_ARGV]
    fresh = []
    for argv in argvs:
        fresh.append(cli_bytes.run(argv, SRC, tmp_path))
        assert cli_bytes.run_in_process(argv, tmp_path) == fresh[-1], argv
    assert fresh[1][0] == 2 and fresh[1][2].endswith(b"error: unrecognized arguments: --bogus\n")
    assert fresh[3][0] == 0 and fresh[3][1].startswith(b"usage: dasqos delay ")


def test_simulator_documents_simulate(tmp_path, monkeypatch):
    # a document the parser rejects reads "identical" on both trees and
    # reaches no simulator branch, so each one must simulate
    argvs = cli_bytes.simulator_commands(tmp_path)
    assert [a[2] for a in argvs] == list(cli_bytes.SIM_SCENARIOS)
    monkeypatch.chdir(tmp_path)
    for argv in argvs:
        assert main(argv) == 0
        csv = (tmp_path / "sim.csv").read_bytes()
        assert csv.startswith(b"flow,d_th,prob_sim,ci_low,ci_high,prob_analytic\n")
    # the retrying level above a unit one, as the gate runs it
    assert cli_bytes.run(argvs[0], SRC, tmp_path) == cli_bytes.run(argvs[0], SRC, tmp_path)


def test_linked_commands_run(tmp_path):
    # a document the parser rejects reads "identical" on both trees and
    # reaches no scorer, so each of the four commands must run
    argvs = cli_bytes.linked_commands(tmp_path)
    assert [a[0] for a in argvs] == ["delay", "sweep", "optimize", "outage"]
    results = [cli_bytes.run_in_process(argv, tmp_path) for argv in argvs]
    assert [code for code, *_ in results] == [0, 0, 0, 0]
    assert results[0][2].startswith(b"linked attempt failure probability = ")
    assert results[0][1].startswith(b"flow,d_th,prob_sim,ci_low,ci_high,prob_analytic\n")
