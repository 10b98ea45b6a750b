"""Antenna placement by stochastic approximation and by grid sweep.

The objective is the expected system outage over random user placement.
rm_optimize runs a Robbins-Monro loop: each iteration draws one user
vector, differentiates the conditional outage with respect to the antenna
parameters by finite differences, and takes a projected descent step with
step size step_scale * n^(-step_exponent). The returned location is the
Polyak average of the iterates, which smooths the noisy path. Probes and
trace rows reach the kernel as polar arrays (geometry.antenna_polar): each
gradient's probe layouts in one call on its user vector, the kernel's
one-user pass; the trace rows in one call after the loop, their means and
standard errors taken in one pass over the rows.

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
# outage values _score holds at once (4 MB): a 70 x 5,000 search trace and a
# 19 x 10,000 radius sweep each take one slice
_SCORE_VALUES = 2**19

RMMode = Literal["radius_only", "full_polar"]


@dataclass(frozen=True)
class RMConfig:
    """Knobs for the Robbins-Monro loop.

    mode "radius_only" moves one shared radius and keeps the initial angles;
    "full_polar" moves every radius and angle. Steps are
    step_scale * n^(-step_exponent); the gradient is a finite difference
    with half-width fd_step. The loop stops at max_iter or once the Polyak
    average moved less than tolerance over convergence_window iterations.
    eval_samples sets the per-row expected-outage budget in the trace.
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
        if self.fd_step <= 0.0:
            raise ConfigError(f"fd_step must be > 0, got {self.fd_step}")
        if self.max_iter < 1 or self.convergence_window < 1:
            raise ConfigError("max_iter and convergence_window must be >= 1")
        if self.eval_samples < 2:
            raise ConfigError("eval_samples must be >= 2")


@dataclass(frozen=True)
class RMTrace:
    """Per-iteration record of the optimization.

    Row n holds the raw iterate, the Polyak average of all earlier iterates
    (row 1 repeats the start), and the expected outage scored at that
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


def _params_from_init(init: AntennaVector, mode: str) -> np.ndarray:
    if mode == "radius_only":
        return np.array([init.radii[0]])
    return np.array(list(init.radii) + list(init.angles))


def _polar_from_params(params: np.ndarray, init: AntennaVector, mode: str) -> np.ndarray:
    """Normalized (rows, 2, antennas) layouts for parameter rows (rows, P)."""
    if mode == "radius_only":
        radii = np.repeat(params[:, :1], init.count, axis=1)
        return antenna_polar(radii, np.broadcast_to(init.angles, radii.shape))
    return antenna_polar(params[:, : init.count], params[:, init.count :])


def _antennas_from_params(params: np.ndarray, init: AntennaVector, mode: str) -> AntennaVector:
    """The layout of one parameter row; AntennaVector normalizes it."""
    if mode == "radius_only":
        return AntennaVector((params[0],) * init.count, init.angles, init.height)
    return AntennaVector(tuple(params[: init.count]), tuple(params[init.count :]), init.height)


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
    init: AntennaVector,
    cfg: RMConfig,
    ux: np.ndarray,
    uy: np.ndarray,
) -> np.ndarray:
    """Finite-difference gradient of the conditional outage at users (ux, uy), each (cells,).

    Central differences except against a radius bound, where the probe
    switches to one-sided. That keeps probes feasible and, just as
    important, breaks the mirror symmetry at radius 0: for an even
    symmetric circle, -delta and +delta describe the same antenna set, so a
    central difference there is identically zero and the loop would never
    leave the center. The probes form one (2P, 2, antennas) array of
    layouts, which the kernel scores on the user vector in one call.
    """
    n_radii = params.size if cfg.mode == "radius_only" else init.count
    lo, hi = RADIUS_BOUNDS
    delta = cfg.fd_step
    i = np.arange(params.size)
    at_hi = (i < n_radii) & (params + delta > hi)
    at_lo = (i < n_radii) & ~at_hi & (params - delta < lo)
    # rows 2i and 2i + 1 are parameter i's upper and lower point
    probes = np.repeat(params[None], 2 * params.size, axis=0)
    up, down = probes[0::2], probes[1::2]
    up[i[~at_hi], i[~at_hi]] += delta
    down[i[~at_lo], i[~at_lo]] -= delta
    widths = np.where(at_hi | at_lo, delta, 2.0 * delta)
    polar = _polar_from_params(probes, init, cfg.mode)
    values = layout_outage(scenario.channel, polar, init.height, ux, uy)
    return (values[0::2] - values[1::2]) / widths


def rm_optimize(
    scenario: CellScenario,
    init: AntennaVector,
    cfg: RMConfig,
    rng: np.random.Generator,
) -> tuple[AntennaVector, RMTrace]:
    """Minimize expected outage from init; returns (Polyak average, trace).

    Each iteration draws a fresh user vector from rng and descends the
    conditional outage. The loop records only the iterates and averages;
    after it, every trace row is scored in one kernel call on one
    evaluation batch, drawn from a seed taken from rng before the first
    iteration, so successive rows differ only through the antenna
    locations, not through which users were sampled.
    """
    params = _params_from_init(init, cfg.mode)
    n_radii = params.size if cfg.mode == "radius_only" else init.count
    # drawn from a seed of its own, the evaluation batch leaves rng's stream alone
    eval_seed = int(rng.integers(2**63))

    # row n - 1 holds iteration n's iterate and average; the last step's
    # update goes to row max_iter, which no trace row shows
    iterates = np.empty((cfg.max_iter + 1, params.size))
    averages = np.empty_like(iterates)
    iterates[0] = averages[0] = params
    params, average = iterates[0], averages[0]
    lo, hi = RADIUS_BOUNDS
    rows, converged = cfg.max_iter, False
    pinned_streak = np.zeros(n_radii, dtype=int)

    for n in range(1, cfg.max_iter + 1):
        if n > cfg.convergence_window:
            moved = np.max(np.abs(average - averages[n - 1 - cfg.convergence_window]))
            if moved < cfg.tolerance:
                rows, converged = n, True
                break

        ux, uy = sample_user_batch(scenario.layout, 1, rng)
        grad = _fd_gradient(scenario, params, init, cfg, ux[0], uy[0])

        proposal = params - step_sequence(n, cfg.step_scale, cfg.step_exponent) * grad
        new = iterates[n]
        new[:] = proposal
        radii = new[:n_radii]
        np.minimum(np.maximum(radii, lo, out=radii), hi, out=radii)
        pushing = (np.abs(proposal[:n_radii] - radii) > cfg.fd_step) & (
            np.abs(grad[:n_radii]) > GRADIENT_FLOOR
        )
        pinned_streak = np.where(pushing, pinned_streak + 1, 0)

        np.add(average, (params - average) / n, out=averages[n])
        params, average = new, averages[n]

    diverged = bool(np.any(pinned_streak >= cfg.convergence_window))
    polar = _polar_from_params(averages[:rows], init, cfg.mode)
    outage, outage_se = _score(scenario, polar, init.height, cfg.eval_samples, eval_seed)
    iterates, averages = (tuple(map(tuple, a[:rows].tolist())) for a in (iterates, averages))
    trace = RMTrace(iterates, averages, outage, outage_se, converged, diverged)
    return _antennas_from_params(average, init, cfg.mode), trace


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
    polar = _polar_from_params(np.array(grid)[:, None], base, "radius_only")
    seed = int(rng.integers(2**63))
    return SweepResult(tuple(grid), *_score(scenario, polar, base.height, samples, seed))
