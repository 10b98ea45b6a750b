"""Compare the CLI's output here with its output at a git ref, byte for byte.

Run from the repository root:

    python .github/cli_bytes.py --base REF

REF's src/ is extracted with git archive into a temporary directory. Each
command then runs twice, as `python -m dasqos.cli` in a fresh interpreter,
once on that tree and once on the working tree's src/, and the two runs'
exit code, stdout, stderr and --out CSV are compared. The commands are
README's five, on its scenario block; `outage` on that scenario with a
pinned `geometry.users` vector, as CI runs it; the four perfbench
workloads' documents (`perfbench/workloads.py`, read only) at seeds 1 and
20261017; and `delay --simulate` on the fixed documents of SIM_SCENARIOS.
An argparse error (ERROR_ARGV) and a help page (HELP_ARGV) run between
them.

A second pass runs the same commands once more, in the same order, through
`dasqos.cli.main(argv)` in this one interpreter on the working tree, and
compares each call with the working tree's fresh-interpreter run: the way
perfbench calls the CLI, many times in one process.

Each pass prints one "identical" or "differs" line per command; the tool
sets no bound, and exits 0 either way.
"""
import argparse
import contextlib
import io
import os
import re
import shlex
import subprocess
import sys
import tarfile
import tempfile
import traceback
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 20261017)
# run between the other commands: an argparse error (exit 2) and a help page
# (exit 0), on README's scenario file
ERROR_ARGV = ["delay", "--config", "scenario.yaml", "--bogus"]
HELP_ARGV = ["delay", "--help"]
# help pages wrap at the terminal width; a fresh run on a pipe falls back to 80
# columns, and this process may sit on a terminal, so both sides are told it
COLUMNS = "80"
# the pinned user vector CI adds to README's scenario, one user per cell
PINNED_USERS = (
    "  users: {radii: [0.5, 0.7, 0.2, 0.9, 0.4, 0.6, 0.8], "
    "angles: [0.1, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]}\n"
)


def _poisson(rate: float, service: str = "{kind: unit}") -> tuple[str, str]:
    return f"{{kind: poisson, rate: {rate}}}", service


def _retry(p: float, attempts: int) -> str:
    return f"{{kind: truncated_geometric, failure_prob: {p}, max_attempts: {attempts}}}"


def _document(p: float, warmup: int, *flows: tuple[str, str]) -> str:
    """A scenario of the given (arrival, service) flows in priority order."""
    lines = ["flows:"]
    for priority, (arrival, service) in enumerate(flows, 1):
        lines += [f"  - priority: {priority}", f"    arrival: {arrival}", f"    service: {service}"]
    lines.append(f"run: {{attempt_failure_prob: {p}, horizon: 40000, warmup: {warmup}, seed: 3}}")
    return "\n".join(lines) + "\n"


# Documents for `delay --simulate` that, with README's and perfbench's
# two-flow case, reach every branch of slotsim._serve_level: a retrying
# level above a unit one (the run-length mask of the slots it leaves),
# three levels, markov_fluid arrivals, warmup 0, p = 0, and p = 0.9 at
# L = 6 (failure runs longer than a lattice cell).
HYPEREXPONENTIAL = "{kind: markov_fluid, rate_a: 0.5, rate_b: 0.1, weight_a: 0.5, weight_b: 0.5}"
SIM_SCENARIOS = {
    "sim-retry-over-unit.yaml": _document(0.2, 1000, _poisson(0.25, _retry(0.2, 3)), _poisson(0.4)),
    "sim-three-levels.yaml": _document(0.2, 1000, _poisson(0.1), _poisson(0.3, _retry(0.2, 2)), _poisson(0.3)),
    "sim-markov-fluid.yaml": _document(0.1, 1000, (HYPEREXPONENTIAL, _retry(0.1, 3)), _poisson(0.4)),
    "sim-warmup-0.yaml": _document(0.1, 0, _poisson(0.2), _poisson(0.6, _retry(0.1, 4))),
    "sim-p-0.yaml": _document(0.0, 1000, _poisson(0.2), _poisson(0.6, _retry(0.0, 4))),
    "sim-long-runs.yaml": _document(0.9, 1000, _poisson(0.1), _poisson(0.12, _retry(0.9, 6))),
}


def _out_path(argv: list[str], cwd: Path) -> Path | None:
    """argv's --out file, removed so that a run which writes none shows it."""
    out = Path(cwd, argv[argv.index("--out") + 1]) if "--out" in argv else None
    if out is not None and out.exists():
        out.unlink()
    return out


def _read(out: Path | None) -> bytes | None:
    return out.read_bytes() if out is not None and out.exists() else None


def run(argv: list[str], src: Path, cwd: Path) -> tuple:
    """(exit code, stdout, stderr, --out bytes or None) of one fresh CLI run on src."""
    out = _out_path(argv, cwd)
    env = dict(os.environ, PYTHONPATH=str(src), COLUMNS=COLUMNS)
    done = subprocess.run(
        [sys.executable, "-m", "dasqos.cli", *argv], cwd=cwd, env=env, capture_output=True
    )
    return done.returncode, done.stdout, done.stderr, _read(out)


def run_in_process(argv: list[str], cwd: Path) -> tuple:
    """run()'s tuple for one `dasqos.cli.main(argv)` call in this interpreter,
    with cwd as the working directory; the dasqos on sys.path runs."""
    from dasqos import cli

    out = _out_path(argv, cwd)
    stdout, stderr = (io.TextIOWrapper(io.BytesIO(), "utf-8", write_through=True) for _ in range(2))
    here = os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), mock.patch.dict(
            os.environ, COLUMNS=COLUMNS
        ):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:  # a crash differs from the fresh run's traceback
                traceback.print_exc()
                code = 1
    finally:
        os.chdir(here)
    return code, stdout.buffer.getvalue(), stderr.buffer.getvalue(), _read(out)


def readme_commands(workdir: Path) -> list[list[str]]:
    """README's command lines, each optional [flag] left out and then put in,
    on its scenario block written to workdir, plus the pinned-user outage."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    scenario = re.search(r"```yaml\n# scenario.yaml\n(.*?)```", readme, re.S).group(1)
    (workdir / "scenario.yaml").write_text(scenario, encoding="utf-8")
    pinned = re.sub(r"^  antennas: .*\n", lambda m: m.group(0) + PINNED_USERS, scenario, flags=re.M)
    (workdir / "pinned.yaml").write_text(pinned, encoding="utf-8")
    argvs = []
    for line in re.findall(r"^dasqos (.*)$", readme, re.M):
        argvs.append(shlex.split(re.sub(r"\[[^]]*\]", "", line)))
        if "[" in line:
            argvs.append(shlex.split(line.replace("[", "").replace("]", "")))
    return argvs + [["outage", "--config", "pinned.yaml"]]


def perfbench_commands(workdir: Path) -> list[list[str]]:
    """The argv of each perfbench workload's document at each seed in SEEDS."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS

    argvs = []
    for seed in SEEDS:
        for name, workload in WORKLOADS.items():
            seed_dir = workdir / f"{name}-{seed}"
            seed_dir.mkdir()
            argvs.append(workload.prepare(seed, str(seed_dir)).argv)
    return argvs


def simulator_commands(workdir: Path) -> list[list[str]]:
    """`delay --simulate` on each SIM_SCENARIOS document, written to workdir."""
    argvs = []
    for name, text in SIM_SCENARIOS.items():
        (workdir / name).write_text(text, encoding="utf-8")
        argvs.append(["delay", "--config", name, "--dth", "0:30:1", "--simulate", "--out", "sim.csv"])
    return argvs


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="compare CLI output bytes with a git ref")
    parser.add_argument("--base", metavar="REF", required=True, help="git ref to compare with")
    args = parser.parse_args(argv[1:])
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        archive = subprocess.run(
            ["git", "archive", "--format=tar", args.base, "src"],
            cwd=ROOT, check=True, capture_output=True,
        ).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp / "base", filter="data")
        workdir = tmp / "work"
        workdir.mkdir()
        commands = [
            *readme_commands(workdir),
            ERROR_ARGV,
            *perfbench_commands(workdir),
            HELP_ARGV,
            *simulator_commands(workdir),
        ]

        def report(same: bool, command: list[str]) -> None:
            shown = " ".join(os.path.relpath(a, workdir) if a.startswith(str(workdir)) else a for a in command)
            print(f"{'identical' if same else 'differs  '} {shown}")

        print(f"# {args.base} against this tree, each command in a fresh interpreter")
        fresh = []
        for command in commands:
            fresh.append(run(command, ROOT / "src", workdir))
            report(run(command, tmp / "base" / "src", workdir) == fresh[-1], command)
        print("# this tree in one interpreter, in sequence, against its fresh runs")
        sys.path.insert(0, str(ROOT / "src"))
        for command, head in zip(commands, fresh):
            report(run_in_process(command, workdir) == head, command)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
