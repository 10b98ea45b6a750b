"""Reference implementations that the batched outage kernel replaced, and
the fading Monte Carlo that checks the product form.

antenna_user_distance is the plain 3-D distance of one antenna-user link,
an independent oracle for the kernel's link rates d^exponent.

product_form_outage is the scalar product form, the union of the
interferers' outages joined one at a time in interferer order as the kernel
joins them; antenna_outage_closed_form feeds it one antenna's link rates,
and the kernel must reproduce it bit for bit. log_space_outage is the form
it replaced, the log factors summed and exponentiated, kept to check it.
antenna_outage_mc draws the fading itself on the same link rates, so it
shares no arithmetic with the library.

conditional_system_outage and fd_gradient are the scalar paths as they
stood before every gradient probe was scored in one batch: each probe, a
whole layout, builds its AntennaVector (antennas_from_params) and its
scenario, each antenna its link rates, and the system outage is the Python
product of the per-antenna closed forms (system_outage). The batch path,
which builds all probes as one polar array, must reproduce them bit for
bit.
"""
from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from dasqos.errors import ConfigError
from dasqos.geometry import AntennaVector, ClusterLayout, UserVector
from dasqos import placement
from dasqos.outage import CellScenario


def user_positions(layout: ClusterLayout, users: UserVector) -> np.ndarray:
    """Planar (cells, 2) Cartesian positions of one user vector, built out
    of place: the reference for geometry.user_coordinates."""
    centers = layout.center_array()
    r = np.asarray(users.radii)
    a = np.asarray(users.angles)
    return centers + np.stack([r * np.cos(a), r * np.sin(a)], axis=1)


def antenna_positions(antennas: AntennaVector) -> np.ndarray:
    """Planar (count, 2) Cartesian antenna positions."""
    r = np.asarray(antennas.radii)
    a = np.asarray(antennas.angles)
    return np.stack([r * np.cos(a), r * np.sin(a)], axis=1)


def antenna_user_distance(
    layout: ClusterLayout,
    antennas: AntennaVector,
    users: UserVector,
    antenna: int,
    cell: int,
) -> float:
    """3-D distance between antenna `antenna` and the user of cell `cell`.

    Indices are 0-based: antenna in [0, count), cell in [0, layout.size).
    """
    if not 0 <= antenna < antennas.count:
        raise ConfigError(f"antenna index {antenna} out of range")
    if not 0 <= cell < layout.size:
        raise ConfigError(f"cell index {cell} out of range")
    apos = antenna_positions(antennas)[antenna]
    upos = user_positions(layout, users)[cell]
    dx = upos[0] - apos[0]
    dy = upos[1] - apos[1]
    return math.sqrt(dx * dx + dy * dy + antennas.height**2)


def _link_rates(scenario: CellScenario, users: UserVector, antenna: int) -> np.ndarray:
    """Rates d^exponent of every cell's user to one antenna, target cell first."""
    upos = user_positions(scenario.layout, users)
    apos = antenna_positions(scenario.antennas)[antenna]
    h = scenario.antennas.height
    d2 = (upos[:, 0] - apos[0]) ** 2 + (upos[:, 1] - apos[1]) ** 2 + h * h
    return d2 ** (scenario.channel.path_loss_exponent / 2.0)


def product_form_outage(a0, q, alpha: float) -> np.ndarray:
    """P(SIR < K) for signal rates a0, shape (...), and interferer poles
    q = rate / K, shape (..., n): 1 - prod_i [1 - alpha * a0 / (q_i + a0)].

    Each interferer's outage t_i = alpha * a0 / (q_i + a0) joins the union
    in interferer order, fail + t_i * (1 - fail), as layout_outage joins
    them; from fail = 0 the first step gives t_1 exactly. With no
    interferers (n = 0) the outage is +0.
    """
    a0, q = np.asarray(a0, dtype=float), np.asarray(q, dtype=float)
    fail = np.zeros(np.broadcast_shapes(a0.shape, q.shape[:-1]))
    for i in range(q.shape[-1]):
        fail += alpha * a0 / (q[..., i] + a0) * (1.0 - fail)
    return fail


def log_space_outage(a0, q, alpha: float) -> np.ndarray:
    """product_form_outage as layout_outage computed it before the union
    recurrence: the log factors log1p(-t_i) summed in interferer order,
    then 1 - exp of the sum."""
    a0, q = np.asarray(a0, dtype=float), np.asarray(q, dtype=float)
    log_clear = np.zeros(np.broadcast_shapes(a0.shape, q.shape[:-1]))
    for i in range(q.shape[-1]):
        log_clear += np.log1p(-alpha * a0 / (q[..., i] + a0))
    # 0 - expm1 rather than -expm1: no outage comes out as +0, never -0
    return 0.0 - np.expm1(log_clear)


def antenna_outage_closed_form(
    scenario: CellScenario, users: UserVector, antenna: int
) -> float:
    rates, channel = _link_rates(scenario, users, antenna), scenario.channel
    return float(
        product_form_outage(rates[0], rates[1:] / channel.sir_threshold, channel.on_probability)
    )


def antenna_outage_mc(
    scenario: CellScenario,
    users: UserVector,
    antenna: int,
    trials: int,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Monte-Carlo P(SIR < K) at one antenna; returns (estimate, std err).

    Draws exponential fading for every cell, then one Bernoulli gate per
    interferer when alpha < 1 (the target is never gated; an idle target
    has nothing to lose).
    """
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    rates = _link_rates(scenario, users, antenna)
    alpha = scenario.channel.on_probability
    fading = rng.exponential(1.0, (trials, rates.size))
    signal = fading[:, 0] / rates[0]
    powers = fading[:, 1:] / rates[1:]
    if alpha < 1.0:
        powers = powers * (rng.random((trials, rates.size - 1)) < alpha)
    hits = np.count_nonzero(signal < scenario.channel.sir_threshold * powers.sum(axis=1))
    p_hat = int(hits) / trials
    return p_hat, math.sqrt(p_hat * (1.0 - p_hat) / trials)


def system_outage(per_antenna) -> float:
    """All antennas fail together: the product of per-antenna outages.

    Fading is independent across antennas, so joint failure factorizes.
    """
    product = 1.0
    for p in per_antenna:
        if not 0.0 <= p <= 1.0:
            raise ConfigError(f"outage probability {p!r} outside [0, 1]")
        product *= p
    return product


def conditional_system_outage(scenario: CellScenario, users: UserVector) -> float:
    """System outage for a fixed user vector: the product over antennas."""
    return system_outage(
        antenna_outage_closed_form(scenario, users, idx)
        for idx in range(scenario.antennas.count)
    )


def antennas_from_params(params: np.ndarray, height: float) -> AntennaVector:
    """One whole layout, M radii then M angles, as an AntennaVector, one
    probe at a time."""
    m = params.size // 2
    radii = tuple(float(r) for r in params[:m])
    angles = tuple(float(a) for a in params[m:])
    return AntennaVector(radii, angles, height)


def fd_gradient(
    scenario: CellScenario,
    params: np.ndarray,
    rows: np.ndarray,
    height: float,
    fd_step: float,
    users: UserVector,
) -> np.ndarray:
    """Finite-difference derivatives along each row of layout steps, one
    conditional outage per probe; a row whose probe would take a radius past
    placement.RADIUS_BOUNDS takes a one-sided difference."""
    m = params.size // 2
    lo, hi = placement.RADIUS_BOUNDS
    grad = np.empty(len(rows))

    def f(x: np.ndarray) -> float:
        probe = replace(scenario, antennas=antennas_from_params(x, height))
        return conditional_system_outage(probe, users)

    for i, row in enumerate(rows):
        up, down = params + fd_step * row, params - fd_step * row
        if np.any(up[:m] > hi):
            grad[i] = (f(params) - f(down)) / fd_step
        elif np.any(down[:m] < lo):
            grad[i] = (f(up) - f(params)) / fd_step
        else:
            grad[i] = (f(up) - f(down)) / (2.0 * fd_step)
    return grad
