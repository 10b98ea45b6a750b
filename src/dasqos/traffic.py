"""Arrival and service models for slotted multi-priority uplink traffic.

Arrivals are renewal processes described by their inter-arrival
distribution; services are per-packet slot counts. Everything downstream
(energy functions, delay bounds, the slot simulator) consumes only the
interval moments, the service probability generating function, and raw
samples, so each model implements exactly those.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class Poisson:
    """Poisson arrivals: exponential inter-arrival times with the given rate."""

    rate: float

    def __post_init__(self) -> None:
        if not self.rate > 0.0:
            raise ConfigError(f"poisson rate must be > 0, got {self.rate}")


@dataclass(frozen=True)
class MarkovFluidRenewal:
    """Two-branch hyperexponential inter-arrival times.

    Each interval is drawn from Exp(rate_a) with probability weight_a and
    from Exp(rate_b) otherwise; weights must sum to 1.
    """

    rate_a: float
    rate_b: float
    weight_a: float
    weight_b: float

    def __post_init__(self) -> None:
        if not (self.rate_a > 0.0 and self.rate_b > 0.0):
            raise ConfigError("markov-fluid branch rates must be > 0")
        if self.weight_a < 0.0 or self.weight_b < 0.0:
            raise ConfigError("markov-fluid branch weights must be >= 0")
        if abs(self.weight_a + self.weight_b - 1.0) > 1e-9:
            raise ConfigError(
                f"markov-fluid weights must sum to 1, got "
                f"{self.weight_a} + {self.weight_b}"
            )


@dataclass(frozen=True)
class GenericRenewal:
    """Renewal arrivals known only through interval mean and variance.

    Supports the moment-based (asymptotic) analysis but cannot be sampled.
    """

    mean: float
    variance: float

    def __post_init__(self) -> None:
        if not self.mean > 0.0:
            raise ConfigError(f"renewal interval mean must be > 0, got {self.mean}")
        if self.variance < 0.0:
            raise ConfigError(f"renewal interval variance must be >= 0, got {self.variance}")


ArrivalModel = Union[Poisson, MarkovFluidRenewal, GenericRenewal]


@dataclass(frozen=True)
class DeterministicUnit:
    """One slot per packet, no retransmission; a failed attempt is a loss."""


@dataclass(frozen=True)
class TruncatedGeometric:
    """Retransmit on failure up to max_attempts total tries.

    Each attempt independently fails with probability failure_prob; a packet
    that exhausts all attempts leaves the queue as a loss. Slot count per
    packet is therefore truncated geometric on {1, ..., max_attempts}.
    """

    failure_prob: float
    max_attempts: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.failure_prob < 1.0:
            raise ConfigError(
                f"attempt failure probability must be in [0, 1), got {self.failure_prob}"
            )
        if self.max_attempts < 1:
            raise ConfigError(f"max_attempts must be >= 1, got {self.max_attempts}")


ServiceModel = Union[DeterministicUnit, TruncatedGeometric]


@dataclass(frozen=True)
class TrafficFlow:
    """One priority class: an arrival process paired with a service model."""

    priority: int
    arrival: ArrivalModel
    service: ServiceModel
    name: str = ""

    def __post_init__(self) -> None:
        if self.priority < 1:
            raise ConfigError(f"priority must be >= 1, got {self.priority}")


def arrival_moments(model: ArrivalModel) -> tuple[float, float]:
    """Mean and variance of the inter-arrival interval."""
    match model:
        case Poisson(rate=lam):
            return 1.0 / lam, 1.0 / (lam * lam)
        case MarkovFluidRenewal(rate_a=la, rate_b=lb, weight_a=wa, weight_b=wb):
            mean = wa / la + wb / lb
            second = 2.0 * wa / (la * la) + 2.0 * wb / (lb * lb)
            return mean, second - mean * mean
        case GenericRenewal(mean=m, variance=v):
            return m, v
    raise TypeError(f"unknown arrival model {model!r}")


def arrival_rate(model: ArrivalModel) -> float:
    """Long-run packets per slot, the reciprocal interval mean."""
    return 1.0 / arrival_moments(model)[0]


def service_moments(model: ServiceModel) -> tuple[float, float]:
    """Mean and variance of the per-packet slot count."""
    match model:
        case DeterministicUnit():
            return 1.0, 0.0
        case TruncatedGeometric(failure_prob=p, max_attempts=L):
            # sums of nonnegative terms over the mass (1-p)p^(k-1), k < L, and
            # p^(L-1) at k = L: the closed forms cancel catastrophically as p -> 1
            probs = [(1.0 - p) * p ** (k - 1) for k in range(1, L)] + [p ** (L - 1)]
            mean = math.fsum(k * w for k, w in enumerate(probs, start=1))
            var = math.fsum(w * (k - mean) ** 2 for k, w in enumerate(probs, start=1))
            return mean, var
    raise TypeError(f"unknown service model {model!r}")


def service_pgf(model: ServiceModel, z: float) -> float:
    """E[z^y] for the slot count y.

    For the truncated geometric the mass is (1-p)p^(i-1) on i < L and
    p^(L-1) on i = L; the geometric partial sum needs a separate branch at
    z*p == 1 where the ratio form degenerates.
    """
    match model:
        case DeterministicUnit():
            return z
        case TruncatedGeometric(failure_prob=p, max_attempts=L):
            zp = z * p
            tail = z**L * p ** (L - 1)
            if abs(1.0 - zp) < 1e-14:
                return (1.0 - p) * z * (L - 1) + tail
            return (1.0 - p) * z * (1.0 - zp ** (L - 1)) / (1.0 - zp) + tail
    raise TypeError(f"unknown service model {model!r}")


def packet_loss_probability(model: ServiceModel) -> float:
    """Probability a packet exhausts every transmission attempt."""
    match model:
        case DeterministicUnit():
            return 0.0
        case TruncatedGeometric(failure_prob=p, max_attempts=L):
            return p**L
    raise TypeError(f"unknown service model {model!r}")


def sample_interarrival(
    model: ArrivalModel, rng: np.random.Generator, size: int | None = None
) -> float | np.ndarray:
    """Draw inter-arrival intervals; scalar when size is None."""
    match model:
        case Poisson(rate=lam):
            return rng.exponential(1.0 / lam, size)
        case MarkovFluidRenewal(rate_a=la, rate_b=lb, weight_a=wa):
            n = 1 if size is None else size
            pick_a = rng.random(n) < wa
            scale = np.where(pick_a, 1.0 / la, 1.0 / lb)
            draws = rng.exponential(scale)
            return float(draws[0]) if size is None else draws
        case GenericRenewal():
            raise ConfigError("generic renewal arrivals have no sampling distribution")
    raise TypeError(f"unknown arrival model {model!r}")
