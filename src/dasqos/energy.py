"""Energy functions: asymptotic log moment generating functions of counting
processes.

For a renewal counting process A(t) the energy function is
Lambda(phi) = lim (1/t) log E[exp(phi A(t))]. The arrival models carry
their own energies: Poisson arrivals keep the exact form
rate * (e^phi - 1), and any renewal process with known interval mean and
variance, a GenericRenewal, gets the central-limit approximation
phi/mean + phi^2 variance / (2 mean^3). The exact per-slot binomial
energy and its gap to that approximation are test oracles under tests/.
"""
from __future__ import annotations

import math

from .traffic import ArrivalModel, GenericRenewal, Poisson, arrival_moments


def expm1(x: float) -> float:
    # e^x - 1 without cancellation near 0; overflow shows up as a legitimate
    # +inf bracket endpoint during root expansion, not as an exception.
    try:
        return math.expm1(x)
    except OverflowError:
        return math.inf


def eval_energy(f: Poisson | GenericRenewal, phi: float) -> float:
    """Evaluate the energy function at phi (any real phi)."""
    match f:
        case Poisson(rate=lam):
            return lam * expm1(phi)
        case GenericRenewal(mean=m, variance=v):
            return phi / m + phi * phi * v / (2.0 * m**3)
    raise TypeError(f"unknown energy function {f!r}")


def arrival_energy(model: ArrivalModel) -> Poisson | GenericRenewal:
    """Energy function used for an arrival process.

    Poisson arrivals keep their exact form; everything else falls back to
    the moment-based approximation of its interval mean and variance.
    """
    if isinstance(model, Poisson):
        return model
    return GenericRenewal(*arrival_moments(model))
