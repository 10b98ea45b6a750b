"""Antenna placement by stochastic approximation and by grid sweep.

The objective is the expected system outage over random user placement.
rm_optimize runs a Robbins-Monro loop: each iteration draws one user
vector, differentiates the conditional outage along each of the search's
layout steps by finite differences, and takes a projected descent step
with step size step_scale * n^(-step_exponent). The returned location is
the Polyak average of the iterates, which smooths the noisy path.

The search moves one layout, its M radii then its M angles, in both
modes. rm.mode picks only the steps it moves along, one row of layout
per parameter, and its start (_search_space): every radius and every
angle on its own for full_polar; for radius_only, one step that moves
every radius together, from every radius tied to the first. A gradient
over the parameters enters the layout as gradient @ rows. Probes and
trace rows reach the kernel as polar arrays (geometry.antenna_polar):
each gradient's probe layouts in one call on its user vector, the
kernel's one-user pass; the trace rows in one call after the loop, their
means and standard errors taken in one pass over the rows.

radius_sweep is the deterministic cross-check: expected outage on a radius
grid for a symmetric antenna circle, every radius scored on one batch of
users drawn once, so the argmin is not an artifact of sampling noise.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import ConfigError
from .geometry import AntennaVector, antenna_polar, sample_user_batch
from .outage import CellScenario, layout_outage, row_estimates

GRADIENT_FLOOR = 1e-6  # |g| below this counts as vanished when flagging divergence
RADIUS_BOUNDS = (0.0, 1.0)  # radii are clamped to the unit cell after each step
# the largest fd_step, half the radius range: a probe that would push a radius
# past one bound then has room on the other side
MAX_FD_STEP = 0.5
# outage values _score holds at once (4 MB): a 70 x 5,000 search trace and a
# 19 x 10,000 radius sweep each take one slice
_SCORE_VALUES = 2**19

RMMode = Literal["radius_only", "full_polar"]


@dataclass(frozen=True)
class RMConfig:
    """Knobs for the Robbins-Monro loop.

    mode "radius_only" moves one shared radius, tied at the first antenna's
    start radius (the optimize command says so on stderr when the start
    radii differ), and keeps the initial angles; "full_polar" moves every
    radius and angle. Steps are step_scale * n^(-step_exponent); the
    gradient is a finite difference with half-width fd_step, in (0, 0.5].
    The loop stops at max_iter or once the Polyak average moved less than
    tolerance over convergence_window iterations. eval_samples sets the
    per-row expected-outage budget in the trace.
    """

    mode: RMMode = "radius_only"
    step_scale: float = 15.0
    step_exponent: float = 0.75
    fd_step: float = 1e-4
    max_iter: int = 200
    convergence_window: int = 10
    tolerance: float = 1e-4
    eval_samples: int = 10_000

    def __post_init__(self) -> None:
        if self.step_scale <= 0.0 or not 0.5 < self.step_exponent <= 1.0:
            raise ConfigError(
                "step sequence must be positive and decreasing with "
                "exponent in (0.5, 1]"
            )
        if not 0.0 < self.fd_step <= MAX_FD_STEP:
            raise ConfigError(f"fd_step must lie in (0, {MAX_FD_STEP}], got {self.fd_step}")
        if self.max_iter < 1 or self.convergence_window < 1:
            raise ConfigError("max_iter and convergence_window must be >= 1")
        if self.eval_samples < 2:
            raise ConfigError("eval_samples must be >= 2")


@dataclass(frozen=True)
class RMTrace:
    """Per-iteration record of the optimization.

    Row n holds the raw iterate, the Polyak average of all earlier iterates
    (row 1 repeats the start), each a whole layout, its M radii then its M
    angles, unwrapped, in both modes, and the expected outage scored at that
    average on a fixed evaluation stream shared by every row. The outage
    columns are filled after the search, in one kernel call; nothing in
    the loop reads them.
    """

    iterates: tuple[tuple[float, ...], ...]
    averages: tuple[tuple[float, ...], ...]
    outage: tuple[float, ...]
    outage_se: tuple[float, ...]
    converged: bool
    diverged: bool

    def __len__(self) -> int:
        return len(self.iterates)


def step_sequence(n: int, scale: float, exponent: float) -> float:
    """Step size at iteration n >= 1: scale * n^(-exponent)."""
    return scale * float(n) ** -exponent


def start_radii(init: AntennaVector, mode: RMMode) -> tuple[float, ...]:
    """The radii the search starts from: init's for full_polar; for
    radius_only every radius tied to the first (by angle)."""
    return (init.radii[0],) * init.count if mode == "radius_only" else init.radii


def _search_space(init: AntennaVector, mode: RMMode) -> tuple[np.ndarray, np.ndarray]:
    """The search's start layout, start_radii then init's M angles, and its
    steps, (parameters, 2M) rows of layout: the identity for full_polar;
    for radius_only one row that moves every radius together."""
    m = init.count
    if mode == "radius_only":
        rows = np.hstack([np.ones((1, m)), np.zeros((1, m))])
    else:
        rows = np.eye(2 * m)
    return np.array(start_radii(init, mode) + init.angles), rows


def _score(
    scenario: CellScenario, polar: np.ndarray, height: float, samples: int, seed: int
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Expected outage and standard error of each layout at one height,
    all scored on one batch of samples users drawn from seed. The layouts
    are scored max(1, _SCORE_VALUES // samples) at a time, so the values
    held at once stay under a fixed budget however many rows and samples;
    each row's values and estimates do not depend on the slicing."""
    ux, uy = sample_user_batch(scenario.layout, samples, np.random.default_rng(seed))
    rows = max(1, _SCORE_VALUES // samples)
    mean, std_err = np.concatenate(
        [
            row_estimates(layout_outage(scenario.channel, polar[s : s + rows], height, ux, uy))
            for s in range(0, len(polar), rows)
        ],
        axis=1,
    )
    return tuple(mean.tolist()), tuple(std_err.tolist())


def _fd_gradient(
    scenario: CellScenario,
    params: np.ndarray,
    rows: np.ndarray,
    height: float,
    delta: float,
    ux: np.ndarray,
    uy: np.ndarray,
) -> np.ndarray:
    """Finite-difference derivatives of the conditional outage at users
    (ux, uy), each (cells,), along each row of the layout steps rows.

    params is a whole layout, M radii then M angles. The probes are
    params +- delta * row: central differences, except where a probe would
    take a radius past a bound, where that row's difference is one-sided
    (delta <= MAX_FD_STEP leaves the other side free). That keeps probes
    feasible and, just as important, breaks the mirror symmetry at radius
    0: for an even symmetric circle, -delta and +delta describe the same
    antenna set, so a central difference there is identically zero and the
    loop would never leave the center. The probes form one (2P, 2,
    antennas) array of layouts, which the kernel scores on the user vector
    in one call.
    """
    m = params.size // 2
    lo, hi = RADIUS_BOUNDS
    # rows 2i and 2i + 1 are row i's upper and lower probe
    probes = params + delta * np.stack([rows, -rows], axis=1).reshape(-1, params.size)
    up, down = probes[0::2], probes[1::2]
    at_hi = (up[:, :m] > hi).any(axis=1)
    at_lo = ~at_hi & (down[:, :m] < lo).any(axis=1)
    up[at_hi] = down[at_lo] = params
    widths = np.where(at_hi | at_lo, delta, 2.0 * delta)
    polar = antenna_polar(probes[:, :m], probes[:, m:])
    values = layout_outage(scenario.channel, polar, height, ux, uy)
    return (values[0::2] - values[1::2]) / widths


def rm_optimize(
    scenario: CellScenario,
    init: AntennaVector,
    cfg: RMConfig,
    rng: np.random.Generator,
) -> tuple[AntennaVector, RMTrace]:
    """Minimize expected outage from init; returns (Polyak average, trace).

    Each iteration draws a fresh user vector from rng and descends the
    conditional outage. The loop records only the iterates and averages
    it reaches, so max_iter reserves nothing up front; after it, every trace row is scored in one kernel call on one
    evaluation batch, drawn from a seed taken from rng before the first
    iteration, so successive rows differ only through the antenna
    locations, not through which users were sampled.
    """
    params, rows = _search_space(init, cfg.mode)
    m = init.count
    # drawn from a seed of its own, the evaluation batch leaves rng's stream alone
    eval_seed = int(rng.integers(2**63))

    # entry n - 1 holds iteration n's iterate and average; the last step's
    # update goes to entry max_iter, which no trace row shows
    iterates, averages = [params], [params]
    average = params
    lo, hi = RADIUS_BOUNDS
    converged = False
    pinned_streak = np.zeros(m, dtype=int)

    for n in range(1, cfg.max_iter + 1):
        if n > cfg.convergence_window:
            moved = np.max(np.abs(average - averages[n - 1 - cfg.convergence_window]))
            if moved < cfg.tolerance:
                converged = True
                break

        ux, uy = sample_user_batch(scenario.layout, 1, rng)
        # the derivative along each row, as a step of the whole layout
        grad = _fd_gradient(scenario, params, rows, init.height, cfg.fd_step, ux[0], uy[0]) @ rows

        new = params - step_sequence(n, cfg.step_scale, cfg.step_exponent) * grad
        radii = new[:m]
        proposal = radii.copy()
        np.minimum(np.maximum(radii, lo, out=radii), hi, out=radii)
        pushing = (np.abs(proposal - radii) > cfg.fd_step) & (np.abs(grad[:m]) > GRADIENT_FLOOR)
        pinned_streak = np.where(pushing, pinned_streak + 1, 0)

        average = average + (params - average) / n
        params = new
        iterates.append(params)
        averages.append(average)

    diverged = bool(np.any(pinned_streak >= cfg.convergence_window))
    shown = np.array(averages[: cfg.max_iter])
    polar = antenna_polar(shown[:, :m], shown[:, m:])
    outage, outage_se = _score(scenario, polar, init.height, cfg.eval_samples, eval_seed)
    iterates = tuple(tuple(row.tolist()) for row in iterates[: cfg.max_iter])
    trace = RMTrace(iterates, tuple(map(tuple, shown.tolist())), outage, outage_se, converged, diverged)
    return AntennaVector(tuple(average[:m]), tuple(average[m:]), init.height), trace


@dataclass(frozen=True)
class SweepResult:
    radii: tuple[float, ...]
    outage: tuple[float, ...]
    std_err: tuple[float, ...]


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
    below one standard error. radii is non-empty (cli._parse_grid never
    returns an empty grid) and samples >= 2 (config.RunParams checks it).
    """
    grid = [float(r) for r in radii]
    base = scenario.antennas
    tied = np.repeat(np.array(grid)[:, None], base.count, axis=1)
    polar = antenna_polar(tied, np.broadcast_to(base.angles, tied.shape))
    seed = int(rng.integers(2**63))
    return SweepResult(tuple(grid), *_score(scenario, polar, base.height, samples, seed))
