"""Batch workbench: scenario file in, CSV out.

Four subcommands. delay evaluates the analytic delay-violation curve and
optionally a simulator cross-check; outage evaluates per-antenna/system
outage for pinned users or the expectation over user placement; optimize
runs the stochastic placement search and echoes the final layout as a
config snippet; sweep scores a shared-radius grid.

Each CSV table is written with one %-format taken from its first row:
%.9g for a float cell (numpy float64 included), %s for any other, so every
column of a table holds one cell type. The format is applied to all the
table's cells at once, and a row of another width raises TypeError. The CSV
path, --out or run.output, is opened without truncation before the command
runs, so a path that cannot be written fails at once; a failed run neither
truncates an existing file nor leaves a new one behind.

Analytic delay, and scenario parsing, run without numpy; the commands that
need it (delay --simulate, outage, optimize, sweep) import it when they run.

main() builds the argparse parser on its first call, not at import, and
reuses it for every later call in the process; a one-shot run builds it
once, as before. Each call runs the cmd_<command> function the module holds
when the call runs, so a function rebound on the module (a tracer's span, a
test's patch) runs in place of the original.

Exit codes: 0 success, 2 configuration/validation problem, 3 numerical
failure (unstable queue, missing decay-rate root).
"""
from __future__ import annotations

import argparse
import functools
import math
import operator
import os
import sys
from dataclasses import replace
from typing import TYPE_CHECKING

from .config import (
    LINKED,
    ScenarioConfig,
    format_antenna_block,
    format_float,
    load_scenario,
    parse_number,
)
from .delay import PrioritySystem, delay_decay_rate
from .errors import ConfigError, DasqosError, NoRootError, StabilityError
from .traffic import GenericRenewal, TruncatedGeometric

if TYPE_CHECKING:
    from .outage import CellScenario


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # cached, not built at import: ~1 ms of argparse set-up that every
    # main() call after the first would redo
    parser = argparse.ArgumentParser(
        prog="dasqos",
        description="delay and outage workbench for prioritized uplink traffic",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, about: str, samples: bool = True) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=about)
        p.add_argument("--config", required=True, help="scenario YAML file")
        p.add_argument("--seed", type=int, default=None, help="override run.seed")
        if samples:
            p.add_argument(
                "--samples", type=int, default=None, help="override run.samples"
            )
        p.add_argument("--out", default=None, help="CSV path (default stdout)")
        p.set_defaults(samples=None)
        return p

    p_delay = command("delay", "delay-bound violation curves")
    p_delay.add_argument("--flow", type=int, default=None, help="single priority")
    p_delay.add_argument(
        "--dth", default="0:30:1", help="threshold grid start:stop:step"
    )
    p_delay.add_argument(
        "--simulate", action="store_true", help="add slot-simulator columns"
    )
    command("outage", "outage for fixed or random users")
    # the search scores its trace on rm.eval_samples users, never run.samples
    command("optimize", "stochastic placement search", samples=False)
    p_sweep = command("sweep", "expected outage on a radius grid")
    p_sweep.add_argument(
        "--radii", default="0:0.9:0.05", help="radius grid start:stop:step"
    )
    return parser


# start:stop:step grids longer than this stop before any list is built; perfbench's
# delay-analytic grid has 1,001 points
MAX_GRID_POINTS = 100_000


def _parse_grid(text: str) -> list[float]:
    ranged = ":" in text
    parts = text.split(":" if ranged else ",")
    if ranged and len(parts) != 3:
        raise ConfigError(f"grid must be start:stop:step, got {text!r}")
    values = [parse_number(p, f"grid value in {text!r}") for p in parts]
    if not ranged:
        return values
    start, stop, step = values
    if step <= 0.0 or stop < start:
        raise ConfigError(f"grid needs stop >= start and step > 0: {text!r}")
    steps = (stop - start) / step  # inf when the span overflows
    if not steps < MAX_GRID_POINTS:
        raise ConfigError(f"grid {text!r} has more than {MAX_GRID_POINTS} points")
    grid = [start + i * step for i in range(round(steps) + 1)]
    return [g for g in grid if g <= stop + 1e-12]


def _claim_output(path: str) -> bool:
    """Fail fast when the CSV path cannot be written, truncating nothing.

    Returns True when the check created the file, which a failed run removes.
    """
    existed = os.path.lexists(path)
    try:
        open(path, "a").close()
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror}") from exc
    return not existed


def _emit(header: list[str], rows: list[tuple], out: str | None) -> None:
    # one %-format for the table, from its first row's cells: %.9g is
    # format_float for any float (numpy's too), %s is str for the rest.
    # It is repeated once per row and applied once to every cell, flattened
    # by one list extend per row (cheaper than itertools.chain), so every
    # row's width is checked first: a short row and a long one would
    # otherwise cancel out and shift the cells between them, where fmt % row
    # raised
    text = ",".join(header) + "\n"
    if rows:
        width = len(rows[0])
        fmt = ",".join("%.9g" if isinstance(v, float) else "%s" for v in rows[0]) + "\n"
        if list(map(len, rows)).count(width) != len(rows):
            bad = next(i for i, row in enumerate(rows) if len(row) != width)
            raise TypeError(f"row {bad} has {len(rows[bad])} cells, the first row {width}")
        text += (fmt * len(rows)) % tuple(functools.reduce(operator.iconcat, rows, []))
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"{out}: {exc.strerror}") from exc


def _cell(cfg: ScenarioConfig):
    """The configured CellScenario and a numpy generator seeded from run.seed."""
    import numpy as np

    from .outage import CellScenario

    return CellScenario(*cfg.require_cell()), np.random.default_rng(cfg.run.seed)


def _failure_prob(cfg: ScenarioConfig, system: PrioritySystem) -> float:
    """run.attempt_failure_prob as a number (linked: E(outage), reported on
    stderr), checked against the retry model of every retrying flow."""
    p = cfg.run.attempt_failure_prob  # not None: cmd_delay checked it
    if p == LINKED:
        from .outage import expected_outage

        scenario, rng = _cell(cfg)
        est = expected_outage(scenario, cfg.run.samples, rng)
        print(
            f"linked attempt failure probability = {format_float(est.value)} "
            f"(se {format_float(est.std_err)})",
            file=sys.stderr,
        )
        p = est.value
    p = float(p)
    for f in system.flows:
        if isinstance(f.service, TruncatedGeometric) and f.service.failure_prob != p:
            raise ConfigError(
                "per-attempt failure probability must match the retry "
                f"model of flow {f.priority} ({f.service.failure_prob} != {p})"
            )
    return p


def cmd_delay(args, cfg: ScenarioConfig) -> None:
    system = PrioritySystem(cfg.require_flows(), cfg.run.higher_priority_mode)
    thresholds = _parse_grid(args.dth)

    # every input fault exits 2 here, before the first root solve, so even on
    # a load >= 1; the unknown --flow and a renewal flow under --simulate
    # before the linked E(outage) is spent
    for d in thresholds:
        if d < 0.0:
            raise ConfigError(f"delay bound must be >= 0, got {d}")
    if args.simulate:
        int_thresholds = [int(d) for d in thresholds]
        if any(i != d for i, d in zip(int_thresholds, thresholds)):
            raise ConfigError("--simulate needs integer d_th values")
        if cfg.run.attempt_failure_prob is None:
            raise ConfigError(
                "run.attempt_failure_prob is required for simulation "
                "(a number, or 'linked' to take it from expected outage)"
            )
    # the requested flows' places in the system, whose order simulate keeps
    if args.flow is None:
        indices = range(len(system.flows))
    else:
        indices = [system.flow_index(args.flow)]
    system.check_higher_flows(max(indices))
    if args.simulate:
        if any(isinstance(f.arrival, GenericRenewal) for f in system.flows):
            raise ConfigError("generic renewal arrivals have no sampling distribution")
        failure_prob = _failure_prob(cfg, system)

    # one root solve per flow, and exp(-rate * d), the analytic tail
    # P(delay > d), for each threshold
    priorities = [system.flows[i].priority for i in indices]
    rates = [(pr, delay_decay_rate(system, pr)) for pr in priorities]

    if not args.simulate:
        # each threshold is formatted once for all flows; _emit writes the
        # string as %s, the same bytes as its %.9g
        labels = [format_float(d) for d in thresholds]
        rows = [
            (pr, label, math.exp(-rate * d))
            for pr, rate in rates
            for d, label in zip(thresholds, labels)
        ]
        _emit(["flow", "d_th", "prob_analytic"], rows, cfg.run.output)
        return

    from .slotsim import SimConfig, simulate

    run = cfg.run
    stats = simulate(SimConfig(system, failure_prob, run.horizon, run.warmup, run.seed))
    if system.effective_load() >= 1.0:
        print("warning: offered load >= 1, queues are unstable", file=sys.stderr)
    rows = []
    for i, (pr, rate) in zip(indices, rates):
        for d, p_hat, lo, hi in stats.flows[i].ccdf_table(int_thresholds):
            rows.append((pr, d, p_hat, lo, hi, math.exp(-rate * d)))
    _emit(
        ["flow", "d_th", "prob_sim", "ci_low", "ci_high", "prob_analytic"],
        rows,
        cfg.run.output,
    )


OUTAGE_HEADER = ["radius", "e_outage", "std_err", "samples", "alpha", "path_loss_exp", "spacing_d"]


def _outage_row(scenario: CellScenario, samples: int, radius, value, std_err) -> tuple:
    """One OUTAGE_HEADER row: an E(outage) estimate and the cell it was made on."""
    spacing = scenario.layout.spacing
    return (
        radius,
        value,
        std_err,
        samples,
        scenario.channel.on_probability,
        scenario.channel.path_loss_exponent,
        "" if spacing is None else spacing,
    )


def cmd_outage(args, cfg: ScenarioConfig) -> None:
    from .outage import antenna_outage_closed_form, conditional_system_outage, expected_outage

    scenario, rng = _cell(cfg)
    if cfg.users is not None:
        rows: list[tuple] = [
            (str(m), antenna_outage_closed_form(scenario, cfg.users, m))
            for m in range(scenario.antennas.count)
        ]
        rows.append(("system", conditional_system_outage(scenario, cfg.users)))
        _emit(["antenna", "outage"], rows, cfg.run.output)
        return
    est = expected_outage(scenario, cfg.run.samples, rng)
    row = _outage_row(
        scenario, cfg.run.samples, scenario.antennas.radii[0], est.value, est.std_err
    )
    _emit(OUTAGE_HEADER, [row], cfg.run.output)


def cmd_optimize(args, cfg: ScenarioConfig) -> None:
    from .placement import RMConfig, rm_optimize, start_radii

    scenario, rng = _cell(cfg)
    antennas = scenario.antennas
    rm_cfg = cfg.rm if cfg.rm is not None else RMConfig()
    start = start_radii(antennas, rm_cfg.mode)
    if start != antennas.radii:
        print(
            f"warning: {rm_cfg.mode} starts every antenna at radius {format_float(start[0])}, "
            "the first antenna's by angle; the other start radii were not used",
            file=sys.stderr,
        )
    final, trace = rm_optimize(scenario, antennas, rm_cfg, rng)

    # each row is a whole layout, the first antenna's radius at 0, its angle at m
    m = antennas.count
    rows = [(i + 1, avg[0], avg[m], e) for i, (avg, e) in enumerate(zip(trace.averages, trace.outage))]
    _emit(["n", "L1_bar", "theta1_bar", "e_outage_estimate"], rows, cfg.run.output)

    if trace.diverged:
        print(
            "warning: a radius stayed pinned at its bound under a nonzero "
            "gradient; treat the result as divergent",
            file=sys.stderr,
        )
    print(
        f"# final E(outage) {format_float(trace.outage[-1])} "
        f"(se {format_float(trace.outage_se[-1])}) after {len(trace)} iterations",
        file=sys.stderr,
    )
    sys.stdout.write(format_antenna_block(final))


def cmd_sweep(args, cfg: ScenarioConfig) -> None:
    from .placement import radius_sweep

    scenario, rng = _cell(cfg)
    samples = cfg.run.samples
    result = radius_sweep(scenario, _parse_grid(args.radii), samples, rng)
    # the first minimum, so one row even if radii repeat
    best = result.outage.index(min(result.outage))
    rows = [
        (*_outage_row(scenario, samples, r, value, se), int(i == best))
        for i, (r, value, se) in enumerate(zip(result.radii, result.outage, result.std_err))
    ]
    _emit([*OUTAGE_HEADER, "argmin"], rows, cfg.run.output)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # the flags override their run keys; every command reads only cfg.run
    flags = {"seed": args.seed, "samples": args.samples, "output": args.out}
    try:
        cfg = load_scenario(args.config)
        run = replace(cfg.run, **{k: v for k, v in flags.items() if v is not None})
        created = run.output is not None and _claim_output(run.output)
        try:
            # by name, not bound into the cached parser: a rebound cmd_<name> runs
            globals()[f"cmd_{args.command}"](args, replace(cfg, run=run))
        except BaseException:
            if created:
                os.remove(run.output)
            raise
    except (StabilityError, NoRootError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except DasqosError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
