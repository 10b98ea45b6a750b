"""Energy functions: asymptotic log moment generating functions of counting
processes.

For a renewal counting process A(t) the energy function is
Lambda(phi) = lim (1/t) log E[exp(phi A(t))]. Exact forms exist for the
Poisson and per-slot binomial processes; any renewal process with known
interval mean and variance gets the central-limit approximation
phi/mean + phi^2 variance / (2 mean^3).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

from .errors import ConfigError
from .traffic import ArrivalModel, Poisson, arrival_moments


@dataclass(frozen=True)
class ExactPoisson:
    """Poisson counting process of the given rate: rate * (e^phi - 1)."""

    rate: float


@dataclass(frozen=True)
class ExactBinomial:
    """Per-slot Bernoulli counting: one arrival per slot with probability 1 - q.

    Energy log(q + (1 - q) e^phi); q is the idle probability.
    """

    q: float

    def __post_init__(self) -> None:
        if not 0.0 < self.q < 1.0:
            raise ConfigError(f"idle probability q must be in (0, 1), got {self.q}")


@dataclass(frozen=True)
class AsymptoticRenewal:
    """CLT approximation from the renewal interval mean and variance."""

    mean: float
    variance: float

    def __post_init__(self) -> None:
        if not self.mean > 0.0:
            raise ConfigError(f"interval mean must be > 0, got {self.mean}")
        if self.variance < 0.0:
            raise ConfigError(f"interval variance must be >= 0, got {self.variance}")


EnergyFunction = Union[ExactPoisson, ExactBinomial, AsymptoticRenewal]


def expm1(x: float) -> float:
    # e^x - 1 without cancellation near 0; overflow shows up as a legitimate
    # +inf bracket endpoint during root expansion, not as an exception.
    try:
        return math.expm1(x)
    except OverflowError:
        return math.inf


def eval_energy(f: EnergyFunction, phi: float) -> float:
    """Evaluate the energy function at phi (any real phi)."""
    match f:
        case ExactPoisson(rate=lam):
            return lam * expm1(phi)
        case ExactBinomial(q=q):
            return math.log1p((1.0 - q) * expm1(phi))
        case AsymptoticRenewal(mean=m, variance=v):
            return phi / m + phi * phi * v / (2.0 * m**3)
    raise TypeError(f"unknown energy function {f!r}")


def arrival_energy(model: ArrivalModel) -> EnergyFunction:
    """Energy function used for an arrival process.

    Poisson arrivals keep their exact form; everything else falls back to
    the moment-based approximation.
    """
    if isinstance(model, Poisson):
        return ExactPoisson(model.rate)
    mean, var = arrival_moments(model)
    return AsymptoticRenewal(mean, var)


def binomial_asymptotic(q: float) -> AsymptoticRenewal:
    """Moment-based counterpart of ExactBinomial.

    Inter-arrival slots are geometric with success probability 1 - q:
    mean 1/(1-q), variance q/(1-q)^2. The resulting energy simplifies to
    (1-q) phi (1 + q phi / 2).
    """
    if not 0.0 < q < 1.0:
        raise ConfigError(f"idle probability q must be in (0, 1), got {q}")
    return AsymptoticRenewal(1.0 / (1.0 - q), q / (1.0 - q) ** 2)


def binomial_energy_gap(q: float, phi_max: float, grid: int = 1000) -> float:
    """Max relative deviation |asymptotic - exact| / exact over (0, phi_max].

    Both energies vanish at phi = 0 with matching first and second
    derivatives, so the ratio is well behaved near the origin; the grid
    starts strictly above zero.
    """
    if not phi_max > 0.0:
        raise ConfigError(f"phi_max must be > 0, got {phi_max}")
    exact = ExactBinomial(q)
    approx = binomial_asymptotic(q)
    worst = 0.0
    for k in range(1, grid + 1):
        phi = phi_max * k / grid
        e = eval_energy(exact, phi)
        a = eval_energy(approx, phi)
        worst = max(worst, abs(a - e) / e)
    return worst
