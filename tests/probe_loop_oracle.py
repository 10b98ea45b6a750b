"""Reference implementations that the batched outage kernel replaced.

antenna_user_distance is the plain 3-D distance of one antenna-user link,
an independent oracle for the kernel's link rates d^exponent.

conditional_system_outage and fd_gradient are the scalar paths as they
stood before every gradient probe was scored in one batch: each probe
builds its AntennaVector (antennas_from_params) and its scenario, each
antenna its link rates, and the system outage is the Python product of the
per-antenna closed forms (system_outage). The batch path, which builds all
probes as one polar array, must reproduce them bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from dasqos.errors import ConfigError
from dasqos.geometry import AntennaVector, ClusterLayout, UserVector, user_positions
from dasqos.outage import CellScenario, product_form_outage
from dasqos.placement import RMConfig


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
    apos = antennas.positions()[antenna]
    upos = user_positions(layout, users)[cell]
    dx = upos[0] - apos[0]
    dy = upos[1] - apos[1]
    return math.sqrt(dx * dx + dy * dy + antennas.height**2)


def _link_rates(
    scenario: CellScenario, ux: np.ndarray, uy: np.ndarray, antenna: int
) -> np.ndarray:
    apos = scenario.antennas.positions()[antenna]
    h = scenario.antennas.height
    d2 = (ux - apos[0]) ** 2 + (uy - apos[1]) ** 2 + h * h
    return d2 ** (scenario.channel.path_loss_exponent / 2.0)


def antenna_outage_closed_form(
    scenario: CellScenario, users: UserVector, antenna: int
) -> float:
    upos = user_positions(scenario.layout, users)
    rates = _link_rates(scenario, upos[:, 0], upos[:, 1], antenna)
    channel = scenario.channel
    return float(
        product_form_outage(
            rates[0], rates[1:] / channel.sir_threshold, channel.on_probability
        )
    )


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


def antennas_from_params(params: np.ndarray, init: AntennaVector, mode: str) -> AntennaVector:
    """One parameter vector as an AntennaVector, one probe at a time."""
    if mode == "radius_only":
        radii = (float(params[0]),) * init.count
        return AntennaVector(radii, init.angles, init.height)
    m = init.count
    radii = tuple(float(r) for r in params[:m])
    angles = tuple(float(a) for a in params[m:])
    return AntennaVector(radii, angles, init.height)


def fd_gradient(
    scenario: CellScenario,
    params: np.ndarray,
    init: AntennaVector,
    cfg: RMConfig,
    users: UserVector,
) -> np.ndarray:
    """Finite-difference gradient, one conditional outage per probe."""
    n_radii = params.size if cfg.mode == "radius_only" else init.count
    lo, hi = cfg.radius_bounds
    delta = cfg.fd_step
    grad = np.empty(params.size)

    def f(x: np.ndarray) -> float:
        probe = replace(scenario, antennas=antennas_from_params(x, init, cfg.mode))
        return conditional_system_outage(probe, users)

    for i in range(params.size):
        bounded = i < n_radii
        up, down = params.copy(), params.copy()
        if bounded and params[i] + delta > hi:
            down[i] -= delta
            grad[i] = (f(params) - f(down)) / delta
        elif bounded and params[i] - delta < lo:
            up[i] += delta
            grad[i] = (f(up) - f(params)) / delta
        else:
            up[i] += delta
            down[i] -= delta
            grad[i] = (f(up) - f(down)) / (2.0 * delta)
    return grad
