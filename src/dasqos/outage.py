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
system outage is the per-antenna product. antenna_outage_mc is the
independent fading Monte Carlo that checks the formula.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

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

    def with_antennas(self, antennas: AntennaVector) -> "CellScenario":
        return replace(self, antennas=antennas)


@dataclass(frozen=True)
class OutageEstimate:
    value: float
    std_err: float
    samples: int


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
    scenario: CellScenario, ux: np.ndarray, uy: np.ndarray, antenna: int
) -> np.ndarray:
    """Exponential rates d^exponent from users at (ux, uy) to one antenna."""
    apos = scenario.antennas.positions()[antenna]
    h = scenario.antennas.height
    d2 = (ux - apos[0]) ** 2 + (uy - apos[1]) ** 2 + h * h
    return d2 ** (scenario.channel.path_loss_exponent / 2.0)


def _user_rates(scenario: CellScenario, users: UserVector, antenna: int) -> np.ndarray:
    """Rates of every cell's user to one antenna; the target cell comes first."""
    upos = user_positions(scenario.layout, users)
    return _link_rates(scenario, upos[:, 0], upos[:, 1], antenna)


def antenna_outage_closed_form(
    scenario: CellScenario, users: UserVector, antenna: int
) -> float:
    """Exact P(SIR < K) at one antenna for fixed users (product form)."""
    rates = _user_rates(scenario, users, antenna)
    channel = scenario.channel
    return float(
        product_form_outage(
            rates[0], rates[1:] / channel.sir_threshold, channel.on_probability
        )
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


def _system_outage_batch(
    scenario: CellScenario, ux: np.ndarray, uy: np.ndarray
) -> np.ndarray:
    """Per-sample system outage for (samples, cells) user coordinates."""
    channel = scenario.channel
    product = np.ones(ux.shape[0])
    for antenna in range(scenario.antennas.count):
        rates = _link_rates(scenario, ux, uy, antenna)
        product *= product_form_outage(
            rates[:, 0], rates[:, 1:] / channel.sir_threshold, channel.on_probability
        )
    return product


def expected_outage(
    scenario: CellScenario,
    samples: int,
    rng: np.random.Generator,
    antennas: AntennaVector | None = None,
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
    if antennas is not None:
        scenario = scenario.with_antennas(antennas)
    ux, uy = sample_user_batch(scenario.layout, samples, rng)
    if workers <= 1 or samples < 2 * workers:
        values = _system_outage_batch(scenario, ux, uy)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = pool.map(
                lambda xy: _system_outage_batch(scenario, *xy),
                zip(np.array_split(ux, workers), np.array_split(uy, workers)),
            )
            values = np.concatenate(list(parts))
    return OutageEstimate(
        float(values.mean()),
        float(values.std(ddof=1) / math.sqrt(samples)),
        samples,
    )
