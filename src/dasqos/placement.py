"""Antenna placement by stochastic approximation and by grid sweep.

The objective is the expected system outage over random user placement.
rm_optimize runs a Robbins-Monro loop: each iteration draws one user
vector, differentiates the conditional outage with respect to the antenna
parameters by finite differences, and takes a projected descent step with
step size step_scale * n^(-step_exponent). The returned location is the
Polyak average of the iterates, which smooths the noisy path.

radius_sweep is the deterministic cross-check: expected outage on a radius
grid for a symmetric antenna circle, every radius scored on one batch of
users drawn once, so the argmin is not an artifact of sampling noise.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, get_args

import numpy as np

from .errors import ConfigError
from .geometry import AntennaVector, sample_user_batch, sample_user_vector, user_positions
from .outage import CellScenario, OutageEstimate, layout_outage

GRADIENT_FLOOR = 1e-6  # |g| below this counts as vanished when flagging divergence

RMMode = Literal["radius_only", "full_polar"]


@dataclass(frozen=True)
class RMConfig:
    """Knobs for the Robbins-Monro loop.

    mode "radius_only" moves one shared radius and keeps the initial angles;
    "full_polar" moves every radius and angle. Steps are
    step_scale * n^(-step_exponent); the gradient is a finite difference
    with half-width fd_step. The loop stops at max_iter or once the Polyak
    average moved less than tolerance over convergence_window iterations.
    Radii are clamped to radius_bounds after each step. eval_samples sets
    the per-row expected-outage budget in the trace.
    """

    mode: RMMode = "radius_only"
    step_scale: float = 15.0
    step_exponent: float = 0.75
    fd_step: float = 1e-4
    max_iter: int = 200
    convergence_window: int = 10
    tolerance: float = 1e-4
    radius_bounds: tuple[float, float] = (0.0, 1.0)
    eval_samples: int = 10_000

    def __post_init__(self) -> None:
        if self.mode not in get_args(RMMode):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.step_scale <= 0.0 or not 0.5 < self.step_exponent <= 1.0:
            raise ConfigError(
                "step sequence must be positive and decreasing with "
                "exponent in (0.5, 1]"
            )
        if self.fd_step <= 0.0:
            raise ConfigError(f"fd_step must be > 0, got {self.fd_step}")
        if self.max_iter < 1 or self.convergence_window < 1:
            raise ConfigError("max_iter and convergence_window must be >= 1")
        lo, hi = self.radius_bounds
        if not 0.0 <= lo < hi <= 1.0:
            raise ConfigError(f"radius bounds must nest in [0, 1], got {self.radius_bounds}")
        if self.eval_samples < 2:
            raise ConfigError("eval_samples must be >= 2")


@dataclass(frozen=True)
class RMTrace:
    """Per-iteration record of the optimization.

    Row n holds the raw iterate, the Polyak average of all earlier iterates
    (row 1 repeats the start), and the expected outage scored at that
    average on a fixed evaluation stream shared by every row.
    """

    iterates: tuple[tuple[float, ...], ...]
    averages: tuple[tuple[float, ...], ...]
    outage: tuple[float, ...]
    outage_se: tuple[float, ...]
    converged: bool
    diverged: bool

    def __len__(self) -> int:
        return len(self.iterates)


def step_sequence(n: int, scale: float = 15.0, exponent: float = 0.75) -> float:
    """Step size at iteration n >= 1: scale * n^(-exponent)."""
    if n < 1:
        raise ConfigError(f"iteration index must be >= 1, got {n}")
    return scale * float(n) ** -exponent


def _params_from_init(init: AntennaVector, mode: str) -> np.ndarray:
    if mode == "radius_only":
        return np.array([init.radii[0]])
    return np.array(list(init.radii) + list(init.angles))


def _antennas_from_params(
    params: np.ndarray, init: AntennaVector, mode: str
) -> AntennaVector:
    if mode == "radius_only":
        radii = (float(params[0]),) * init.count
        return AntennaVector(radii, init.angles, init.height)
    m = init.count
    radii = tuple(float(r) for r in params[:m])
    angles = tuple(float(a) for a in params[m:])
    return AntennaVector(radii, angles, init.height)


def _fd_gradient(
    scenario: CellScenario,
    params: np.ndarray,
    init: AntennaVector,
    cfg: RMConfig,
    users,
) -> np.ndarray:
    """Finite-difference gradient of the conditional outage.

    Central differences except against a radius bound, where the probe
    switches to one-sided. That keeps probes feasible and, just as
    important, breaks the mirror symmetry at radius 0: for an even
    symmetric circle, -delta and +delta describe the same antenna set, so a
    central difference there is identically zero and the loop would never
    leave the center. All probes are scored on the user vector in one call.
    """
    n_radii = params.size if cfg.mode == "radius_only" else init.count
    lo, hi = cfg.radius_bounds
    delta = cfg.fd_step
    probes: list[np.ndarray] = []  # (upper, lower) point per parameter
    widths = np.empty(params.size)
    for i in range(params.size):
        bounded = i < n_radii
        up, down = params.copy(), params.copy()
        if bounded and params[i] + delta > hi:
            down[i] -= delta
            up, widths[i] = params, delta
        elif bounded and params[i] - delta < lo:
            up[i] += delta
            down, widths[i] = params, delta
        else:
            up[i] += delta
            down[i] -= delta
            widths[i] = 2.0 * delta
        probes += [up, down]
    upos = user_positions(scenario.layout, users)
    values = layout_outage(
        scenario.channel,
        [_antennas_from_params(x, init, cfg.mode) for x in probes],
        upos[:, 0],
        upos[:, 1],
    )
    return (values[0::2] - values[1::2]) / widths


def rm_optimize(
    scenario: CellScenario,
    init: AntennaVector,
    cfg: RMConfig,
    rng: np.random.Generator,
) -> tuple[AntennaVector, RMTrace]:
    """Minimize expected outage from init; returns (Polyak average, trace).

    Each iteration draws a fresh user vector from rng and descends the
    conditional outage. The trace's outage column scores every row on one
    evaluation batch, drawn once from its own seed, so successive rows
    differ only through the antenna locations, not through which users
    were sampled.
    """
    params = _params_from_init(init, cfg.mode)
    lo, hi = cfg.radius_bounds
    n_radii = params.size if cfg.mode == "radius_only" else init.count
    # drawn from a seed of its own, the evaluation batch leaves rng's stream alone
    eval_seed = int(rng.integers(2**63))
    ux, uy = sample_user_batch(
        scenario.layout, cfg.eval_samples, np.random.default_rng(eval_seed)
    )

    average = params.copy()
    iterates: list[tuple[float, ...]] = []
    averages: list[tuple[float, ...]] = []
    outage_vals: list[float] = []
    outage_ses: list[float] = []
    converged = False
    pinned_streak = np.zeros(n_radii, dtype=int)

    for n in range(1, cfg.max_iter + 1):
        iterates.append(tuple(map(float, params)))
        averages.append(tuple(map(float, average)))
        layout = _antennas_from_params(average, init, cfg.mode)
        est = OutageEstimate.of(layout_outage(scenario.channel, [layout], ux, uy)[0])
        outage_vals.append(est.value)
        outage_ses.append(est.std_err)

        if n > cfg.convergence_window:
            moved = np.max(np.abs(average - averages[n - 1 - cfg.convergence_window]))
            if moved < cfg.tolerance:
                converged = True
                break

        users = sample_user_vector(scenario.layout, rng)
        grad = _fd_gradient(scenario, params, init, cfg, users)

        proposal = params - step_sequence(n, cfg.step_scale, cfg.step_exponent) * grad
        new = proposal.copy()
        new[:n_radii] = np.clip(new[:n_radii], lo, hi)
        pushing = (np.abs(proposal[:n_radii] - new[:n_radii]) > cfg.fd_step) & (
            np.abs(grad[:n_radii]) > GRADIENT_FLOOR
        )
        pinned_streak = np.where(pushing, pinned_streak + 1, 0)

        average = average + (params - average) / n
        params = new

    diverged = bool(np.any(pinned_streak >= cfg.convergence_window))
    trace = RMTrace(
        tuple(iterates),
        tuple(averages),
        tuple(outage_vals),
        tuple(outage_ses),
        converged,
        diverged,
    )
    return _antennas_from_params(average, init, cfg.mode), trace


@dataclass(frozen=True)
class SweepResult:
    radii: tuple[float, ...]
    outage: tuple[float, ...]
    std_err: tuple[float, ...]

    @property
    def argmin_radius(self) -> float:
        return self.radii[int(np.argmin(self.outage))]

    @property
    def min_outage(self) -> float:
        return float(min(self.outage))


def radius_sweep(
    scenario: CellScenario,
    radii,
    samples: int,
    rng: np.random.Generator,
) -> SweepResult:
    """Expected outage along a shared-radius grid for the antenna circle.

    Keeps the scenario's antenna angles and height, replaces every radius
    with the grid value. Every radius is scored on one batch of users,
    drawn once from a spawned evaluation seed, so the curve is a
    common-random-number comparison and its argmin is stable down to far
    below one standard error.
    """
    grid = [float(r) for r in radii]
    if not grid:
        raise ConfigError("radius grid is empty")
    base = scenario.antennas
    layouts = [AntennaVector((r,) * base.count, base.angles, base.height) for r in grid]
    if samples < 2:
        raise ConfigError(f"need at least 2 samples, got {samples}")
    seed = int(rng.integers(2**63))
    ux, uy = sample_user_batch(scenario.layout, samples, np.random.default_rng(seed))
    values: list[float] = []
    errors: list[float] = []
    for antennas in layouts:
        # one layout at a time: stacked, the grid outgrows the cache per block and runs slower
        est = OutageEstimate.of(layout_outage(scenario.channel, [antennas], ux, uy)[0])
        values.append(est.value)
        errors.append(est.std_err)
    return SweepResult(tuple(grid), tuple(values), tuple(errors))
