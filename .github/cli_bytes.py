"""Compare the CLI's output here with its output at a git ref, byte for byte.

Run from the repository root:

    python .github/cli_bytes.py --base REF

REF's src/ is extracted with git archive into a temporary directory. Each
command then runs twice, as `python -m dasqos.cli` in a fresh interpreter,
once on that tree and once on the working tree's src/, and the two runs'
exit code, stdout, stderr and --out CSV are compared. The commands are
README's five, on its scenario block; `outage` on that scenario with a
pinned `geometry.users` vector, as CI runs it; and the four perfbench
workloads' documents (`perfbench/workloads.py`, read only) at seeds 1 and
20261017. It prints one "identical" or "differs" line per command; it sets
no bound, and exits 0 either way.
"""
import argparse
import io
import os
import re
import shlex
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 20261017)
# the pinned user vector CI adds to README's scenario, one user per cell
PINNED_USERS = (
    "  users: {radii: [0.5, 0.7, 0.2, 0.9, 0.4, 0.6, 0.8], "
    "angles: [0.1, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]}\n"
)


def run(argv: list[str], src: Path, cwd: Path) -> tuple:
    """(exit code, stdout, stderr, --out bytes or None) of one fresh CLI run on src."""
    out = Path(cwd, argv[argv.index("--out") + 1]) if "--out" in argv else None
    if out is not None and out.exists():
        out.unlink()
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-m", "dasqos.cli", *argv], cwd=cwd, env=env, capture_output=True
    )
    csv = out.read_bytes() if out is not None and out.exists() else None
    return done.returncode, done.stdout, done.stderr, csv


def compare(argv: list[str], base: Path, head: Path, cwd: Path) -> bool:
    """Whether argv leaves the same bytes on the src trees base and head."""
    return run(argv, base, cwd) == run(argv, head, cwd)


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
        for command in readme_commands(workdir) + perfbench_commands(workdir):
            same = compare(command, tmp / "base" / "src", ROOT / "src", workdir)
            shown = " ".join(os.path.relpath(a, workdir) if a.startswith(str(workdir)) else a for a in command)
            print(f"{'identical' if same else 'differs  '} {shown}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
