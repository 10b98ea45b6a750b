"""Per-antenna and system outage for the uplink co-channel cluster.

The target user's signal at antenna m and each interferer's signal are
exponentially faded (Rayleigh amplitude), so received powers are
exponential with rate d^exponent for link distance d (transmit power
cancels in the SIR). Outage at an antenna is P(SIR < K), K = 2^R - 1.

Given the interference I, the signal clears the threshold with probability
exp(-a0*K*I), a0 the signal rate. Averaging over independent exponential
interferer powers, each transmitting with probability alpha, gives the
Laplace functional of the interference in product form (Haenggi & Ganti,
Interference in Large Wireless Networks, 2009):

    P(SIR >= K) = prod_i [1 - alpha * a0 / (q_i + a0)],  q_i = rate_i / K.

product_form_outage evaluates it in log space. It is exact for every alpha
in [0, 1], including coincident interferer distances, and keeps small
outages accurate to their last digits. The system is in outage only when
every antenna fails; antenna outages are treated as independent, so the
system outage is the per-antenna product. layout_outage scores antenna
layouts on users that are already drawn; expected_outage, the radius sweep,
the search's trace rows and its gradient probes all go through it.
antenna_outage_mc is the independent fading Monte Carlo that checks the
formula.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .geometry import AntennaVector, ClusterLayout, UserVector, sample_user_batch, user_positions


@dataclass(frozen=True)
class ChannelParams:
    """Wireless channel constants shared by every link in the cluster."""

    path_loss_exponent: float
    spectral_efficiency: float = 1.0
    on_probability: float = 1.0

    def __post_init__(self) -> None:
        if not self.path_loss_exponent > 0.0:
            raise ConfigError(
                f"path loss exponent must be > 0, got {self.path_loss_exponent}"
            )
        if not self.spectral_efficiency > 0.0:
            raise ConfigError(
                f"spectral efficiency must be > 0, got {self.spectral_efficiency}"
            )
        if not 0.0 <= self.on_probability <= 1.0:
            raise ConfigError(
                f"on probability must be in [0, 1], got {self.on_probability}"
            )

    @property
    def sir_threshold(self) -> float:
        """K = 2^R - 1, the SIR below which decoding fails."""
        return 2.0**self.spectral_efficiency - 1.0


@dataclass(frozen=True)
class CellScenario:
    """Cluster geometry, antenna layout, and channel constants as one unit."""

    layout: ClusterLayout
    antennas: AntennaVector
    channel: ChannelParams


@dataclass(frozen=True)
class OutageEstimate:
    value: float
    std_err: float

    @classmethod
    def of(cls, values: np.ndarray) -> "OutageEstimate":
        """Sample mean and its standard error over per-user-vector outages."""
        return cls(float(values.mean()), float(values.std(ddof=1) / math.sqrt(values.size)))


def product_form_outage(a0, q, alpha: float) -> np.ndarray:
    """P(SIR < K) for signal rates a0, shape (...), and interferer poles
    q = rate / K, shape (..., n): 1 - prod_i [1 - alpha * a0 / (q_i + a0)].

    With no interferers (n = 0) the outage is 0.
    """
    a0 = np.asarray(a0, dtype=float)[..., None]
    log_clear = np.log1p(-alpha * a0 / (np.asarray(q, dtype=float) + a0))
    # 0 - expm1 rather than -expm1: no outage comes out as +0, never -0
    return 0.0 - np.expm1(log_clear.sum(axis=-1))


def _link_rates(
    channel: ChannelParams, ax, ay, h2, ux: np.ndarray, uy: np.ndarray
) -> np.ndarray:
    """Exponential rates d^exponent from users at (ux, uy) to an antenna at
    (ax, ay) whose squared mast height is h2; every argument broadcasts."""
    d2 = (ux - ax) ** 2 + (uy - ay) ** 2 + h2
    return d2 ** (channel.path_loss_exponent / 2.0)


def _rates_outage(channel: ChannelParams, rates: np.ndarray) -> np.ndarray:
    """P(SIR < K) from link rates with the cell on the last axis, target first."""
    return product_form_outage(
        rates[..., 0], rates[..., 1:] / channel.sir_threshold, channel.on_probability
    )


def _user_rates(scenario: CellScenario, users: UserVector, antenna: int) -> np.ndarray:
    """Rates of every cell's user to one antenna; the target cell comes first."""
    upos = user_positions(scenario.layout, users)
    ax, ay = scenario.antennas.positions()[antenna]
    h = scenario.antennas.height
    return _link_rates(scenario.channel, ax, ay, h * h, upos[:, 0], upos[:, 1])


def antenna_outage_closed_form(
    scenario: CellScenario, users: UserVector, antenna: int
) -> float:
    """Exact P(SIR < K) at one antenna for fixed users (product form)."""
    return float(_rates_outage(scenario.channel, _user_rates(scenario, users, antenna)))


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
    rates = _user_rates(scenario, users, antenna)
    alpha = scenario.channel.on_probability
    fading = rng.exponential(1.0, (trials, rates.size))
    signal = fading[:, 0] / rates[0]
    powers = fading[:, 1:] / rates[1:]
    if alpha < 1.0:
        powers = powers * (rng.random((trials, rates.size - 1)) < alpha)
    hits = np.count_nonzero(signal < scenario.channel.sir_threshold * powers.sum(axis=1))
    p_hat = int(hits) / trials
    return p_hat, math.sqrt(p_hat * (1.0 - p_hat) / trials)


def layout_outage(
    channel: ChannelParams, layouts, ux: np.ndarray, uy: np.ndarray
) -> np.ndarray:
    """System outage of each antenna layout for users that are already drawn.

    ux, uy hold user coordinates with the cell on the last axis, target
    cell first: shape (cells,) for one user vector, (samples, cells) for a
    batch. Every layout is scored on the same users; the result has shape
    (len(layouts), *ux.shape[:-1]). Layouts must have equal antenna counts;
    each multiplies its antenna outages in its own (angle-sorted) order.
    """
    positions = np.stack([antennas.positions() for antennas in layouts])
    heights = np.array([antennas.height for antennas in layouts])
    # per-layout values broadcast over the users and their cells
    lead = (len(layouts),) + (1,) * ux.ndim
    h2 = (heights * heights).reshape(lead)
    product = np.ones(lead[:1] + ux.shape[:-1])
    for m in range(positions.shape[1]):
        ax = positions[:, m, 0].reshape(lead)
        ay = positions[:, m, 1].reshape(lead)
        product *= _rates_outage(channel, _link_rates(channel, ax, ay, h2, ux, uy))
    return product


def conditional_system_outage(scenario: CellScenario, users: UserVector) -> float:
    """System outage for a fixed user vector: the product over antennas."""
    upos = user_positions(scenario.layout, users)
    values = layout_outage(scenario.channel, [scenario.antennas], upos[:, 0], upos[:, 1])
    return float(values[0])


def expected_outage(
    scenario: CellScenario,
    samples: int,
    rng: np.random.Generator,
    workers: int = 1,
) -> OutageEstimate:
    """System outage marginalized over user placement.

    Draws `samples` independent user vectors, evaluates the conditional
    system outage for each, and averages. The user stream depends only on
    rng, never on the antenna layout, so calls sharing a seed share their
    user draws (common random numbers across layouts). workers > 1 splits
    the batch across threads; the values do not depend on the split.
    """
    if samples < 2:
        raise ConfigError(f"need at least 2 samples, got {samples}")
    ux, uy = sample_user_batch(scenario.layout, samples, rng)
    layouts = [scenario.antennas]
    if workers <= 1 or samples < 2 * workers:
        values = layout_outage(scenario.channel, layouts, ux, uy)[0]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = pool.map(
                lambda xy: layout_outage(scenario.channel, layouts, *xy)[0],
                zip(np.array_split(ux, workers), np.array_split(uy, workers)),
            )
            values = np.concatenate(list(parts))
    return OutageEstimate.of(values)
