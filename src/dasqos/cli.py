"""Batch workbench: scenario file in, CSV out.

Four subcommands. delay evaluates the analytic delay-violation curve and
optionally a simulator cross-check; outage evaluates per-antenna/system
outage for pinned users or the expectation over user placement; optimize
runs the stochastic placement search and echoes the final layout as a
config snippet; sweep scores a shared-radius grid.

Exit codes: 0 success, 2 configuration/validation problem, 3 numerical
failure (unstable queue, missing decay-rate root).
"""
from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .config import (
    LINKED,
    ScenarioConfig,
    format_antenna_block,
    format_float,
    load_scenario,
)
from .delay import PrioritySystem, delay_decay_rate
from .errors import ConfigError, DasqosError, NoRootError, StabilityError
from .outage import (
    CellScenario,
    antenna_outage_closed_form,
    expected_outage,
    system_outage,
)
from .placement import RMConfig, radius_sweep, rm_optimize
from .slotsim import SimConfig, simulate


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dasqos",
        description="delay and outage workbench for prioritized uplink traffic",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="scenario YAML file")
        p.add_argument("--seed", type=int, default=None, help="override run.seed")
        p.add_argument(
            "--samples", type=int, default=None, help="override run.samples"
        )
        p.add_argument("--threads", type=int, default=1, help="worker cap")
        p.add_argument("--out", default=None, help="CSV path (default stdout)")

    p_delay = sub.add_parser("delay", help="delay-bound violation curves")
    common(p_delay)
    p_delay.add_argument("--flow", type=int, default=None, help="single priority")
    p_delay.add_argument(
        "--dth", default="0:30:1", help="threshold grid start:stop:step"
    )
    p_delay.add_argument(
        "--simulate", action="store_true", help="add slot-simulator columns"
    )
    p_delay.set_defaults(func=cmd_delay)

    p_outage = sub.add_parser("outage", help="outage for fixed or random users")
    common(p_outage)
    p_outage.set_defaults(func=cmd_outage)

    p_opt = sub.add_parser("optimize", help="stochastic placement search")
    common(p_opt)
    p_opt.set_defaults(func=cmd_optimize)

    p_sweep = sub.add_parser("sweep", help="expected outage on a radius grid")
    common(p_sweep)
    p_sweep.add_argument(
        "--radii", default="0:0.9:0.05", help="radius grid start:stop:step"
    )
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def _parse_grid(text: str) -> list[float]:
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"grid must be start:stop:step, got {text!r}")
        try:
            start, stop, step = (float(p) for p in parts)
        except ValueError:
            raise ConfigError(f"grid values must be numbers: {text!r}") from None
        if step <= 0.0 or stop < start:
            raise ConfigError(f"grid needs stop >= start and step > 0: {text!r}")
        count = int(round((stop - start) / step))
        grid = [start + i * step for i in range(count + 1)]
        return [g for g in grid if g <= stop + 1e-12]
    try:
        return [float(p) for p in text.split(",")]
    except ValueError:
        raise ConfigError(f"grid values must be numbers: {text!r}") from None


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format_float(value)
    return str(value)


def _emit(header: list[str], rows: list[tuple], out: str | None) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_format_cell(v) for v in row) for row in rows)
    text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _seed(args, cfg: ScenarioConfig) -> int:
    return args.seed if args.seed is not None else cfg.run.seed


def _samples(args, cfg: ScenarioConfig) -> int:
    return args.samples if args.samples is not None else cfg.run.samples


def _out(args, cfg: ScenarioConfig) -> str | None:
    return args.out if args.out is not None else cfg.run.output


def _failure_prob(args, cfg: ScenarioConfig) -> float:
    p = cfg.run.attempt_failure_prob
    if p is None:
        raise ConfigError(
            "run.attempt_failure_prob is required for simulation "
            "(a number, or 'linked' to take it from expected outage)"
        )
    if p == LINKED:
        layout, antennas, channel = cfg.require_cell()
        scenario = CellScenario(layout, antennas, channel)
        est = expected_outage(
            scenario,
            _samples(args, cfg),
            np.random.default_rng(_seed(args, cfg)),
            workers=args.threads,
        )
        print(
            f"linked attempt failure probability = {format_float(est.value)} "
            f"(se {format_float(est.std_err)})",
            file=sys.stderr,
        )
        return est.value
    return float(p)


def cmd_delay(args) -> None:
    cfg = load_scenario(args.config)
    flows = cfg.require_flows()
    system = PrioritySystem(flows, cfg.run.higher_priority_mode)
    thresholds = _parse_grid(args.dth)
    if args.flow is not None:
        priorities = [args.flow]
    else:
        priorities = [f.priority for f in system.flows]

    for d in thresholds:
        if d < 0.0:
            raise ConfigError(f"delay bound must be >= 0, got {d}")
    analytic: dict[int, dict[float, float]] = {}
    for pr in priorities:
        # one root solve per flow; exp(-rate * d) is exactly what
        # delay_violation_probability returns for each threshold
        rate = delay_decay_rate(system, pr)
        analytic[pr] = {d: math.exp(-rate * d) for d in thresholds}

    if not args.simulate:
        rows = [
            (pr, d, analytic[pr][d]) for pr in priorities for d in thresholds
        ]
        _emit(["flow", "d_th", "prob_analytic"], rows, _out(args, cfg))
        return

    int_thresholds = [int(d) for d in thresholds]
    if any(i != d for i, d in zip(int_thresholds, thresholds)):
        raise ConfigError("--simulate needs integer d_th values")
    sim_cfg = SimConfig(
        flows,
        _failure_prob(args, cfg),
        cfg.run.horizon,
        cfg.run.warmup,
        _seed(args, cfg),
        cfg.run.delay_convention,
    )
    stats = simulate(sim_cfg)
    if not stats.stable:
        print("warning: offered load >= 1, queues are unstable", file=sys.stderr)
    rows = []
    for pr in priorities:
        table = stats.flow(pr).ccdf_table(int_thresholds)
        for d, p_hat, lo, hi, _ in table:
            rows.append((pr, d, p_hat, lo, hi, analytic[pr][float(d)]))
    _emit(
        ["flow", "d_th", "prob_sim", "ci_low", "ci_high", "prob_analytic"],
        rows,
        _out(args, cfg),
    )


def _outage_row_tail(scenario: CellScenario, samples: int):
    spacing = scenario.layout.spacing
    return (
        samples,
        scenario.channel.on_probability,
        scenario.channel.path_loss_exponent,
        "" if spacing is None else spacing,
    )


def cmd_outage(args) -> None:
    cfg = load_scenario(args.config)
    layout, antennas, channel = cfg.require_cell()
    scenario = CellScenario(layout, antennas, channel)
    if cfg.users is not None:
        rows: list[tuple] = []
        per_antenna: list[float] = []
        for m in range(antennas.count):
            value = antenna_outage_closed_form(scenario, cfg.users, m)
            per_antenna.append(value)
            rows.append((str(m), value))
        rows.append(("system", system_outage(per_antenna)))
        _emit(["antenna", "outage"], rows, _out(args, cfg))
        return
    samples = _samples(args, cfg)
    est = expected_outage(
        scenario,
        samples,
        np.random.default_rng(_seed(args, cfg)),
        workers=args.threads,
    )
    row = (
        antennas.radii[0],
        est.value,
        est.std_err,
        *_outage_row_tail(scenario, samples),
    )
    _emit(
        ["radius", "e_outage", "std_err", "samples", "alpha", "path_loss_exp", "spacing_d"],
        [row],
        _out(args, cfg),
    )


def cmd_optimize(args) -> None:
    cfg = load_scenario(args.config)
    layout, antennas, channel = cfg.require_cell()
    scenario = CellScenario(layout, antennas, channel)
    rm_cfg = cfg.rm if cfg.rm is not None else RMConfig()
    rng = np.random.default_rng(_seed(args, cfg))
    final, trace = rm_optimize(scenario, antennas, rm_cfg, rng)

    m = antennas.count
    rows = []
    for i, avg in enumerate(trace.averages):
        if rm_cfg.mode == "radius_only":
            radius, angle = avg[0], antennas.angles[0]
        else:
            radius, angle = avg[0], avg[m]
        rows.append((i + 1, radius, angle, trace.outage[i]))
    _emit(["n", "L1_bar", "theta1_bar", "e_outage_estimate"], rows, _out(args, cfg))

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


def cmd_sweep(args) -> None:
    cfg = load_scenario(args.config)
    layout, antennas, channel = cfg.require_cell()
    scenario = CellScenario(layout, antennas, channel)
    grid = _parse_grid(args.radii)
    samples = _samples(args, cfg)
    result = radius_sweep(
        scenario,
        grid,
        samples,
        np.random.default_rng(_seed(args, cfg)),
        workers=args.threads,
    )
    best = result.argmin_radius
    rows = []
    for r, value, se in zip(result.radii, result.outage, result.std_err):
        rows.append(
            (
                r,
                value,
                se,
                *_outage_row_tail(scenario, samples),
                1 if r == best else 0,
            )
        )
    _emit(
        [
            "radius",
            "e_outage",
            "std_err",
            "samples",
            "alpha",
            "path_loss_exp",
            "spacing_d",
            "argmin",
        ],
        rows,
        _out(args, cfg),
    )


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (StabilityError, NoRootError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except DasqosError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
