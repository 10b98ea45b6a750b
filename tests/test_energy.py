import math

import numpy as np
import pytest

from analysis_helpers import ExactBinomial, binomial_asymptotic, binomial_energy_gap
from dasqos.energy import arrival_energy, eval_energy
from dasqos.errors import ConfigError
from dasqos.traffic import GenericRenewal, MarkovFluidRenewal, Poisson


ALL_KINDS = [
    Poisson(0.5),
    ExactBinomial(0.1),
    GenericRenewal(2.0, 4.0),
    GenericRenewal(7.0, 61.0),
]


def energy(f, phi):
    """The library's energy, or the oracle's own for ExactBinomial."""
    return f.energy(phi) if isinstance(f, ExactBinomial) else eval_energy(f, phi)


@pytest.mark.parametrize("f", ALL_KINDS)
def test_zero_at_origin(f):
    assert energy(f, 0.0) == 0.0


def test_poisson_value():
    assert eval_energy(Poisson(0.5), 1.0) == pytest.approx(
        0.5 * (math.e - 1.0), rel=1e-15
    )


def test_binomial_asymptotic_value():
    # geometric intervals, q=0.1: energy (1-q) phi (1 + q phi / 2)
    f = binomial_asymptotic(0.1)
    assert eval_energy(f, 1.0) == pytest.approx(0.9 * 1.05, rel=1e-13)
    assert ExactBinomial(0.1).energy(1.0) == pytest.approx(
        math.log(0.1 + 0.9 * math.e), rel=1e-15
    )
    # frozen: exact at phi=1 is 0.9347016640011664, asymptotic 0.945
    assert ExactBinomial(0.1).energy(1.0) == pytest.approx(
        0.9347016640011664, abs=1e-15
    )


def test_gap_within_two_percent():
    assert binomial_energy_gap(0.1, 1.0) <= 0.02
    # frozen from a dense independent grid evaluation
    assert binomial_energy_gap(0.1, 1.0) == pytest.approx(0.01102, abs=2e-4)


def test_gap_taylor_regime():
    assert binomial_energy_gap(0.1, 0.1) <= 2e-4


def test_gap_vanishes_with_q():
    gaps = [binomial_energy_gap(q, 1.0) for q in (0.2, 0.1, 0.02, 0.001)]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 1e-3


@pytest.mark.parametrize("f", ALL_KINDS)
def test_convex_and_increasing_on_grid(f):
    phis = np.linspace(-2.0, 2.0, 801)
    vals = np.array([energy(f, p) for p in phis])
    second = vals[2:] - 2 * vals[1:-1] + vals[:-2]
    assert np.all(second > -1e-12)


def test_asymptotic_matches_poisson_to_second_order():
    lam = 0.5
    exact = Poisson(lam)
    approx = GenericRenewal(1.0 / lam, 1.0 / lam**2)
    for phi in (0.01, 0.1):
        e = eval_energy(exact, phi)
        a = eval_energy(approx, phi)
        # agreement through phi^2; difference is the lam/6 phi^3 Taylor term
        assert abs(a - e) < 0.3 * lam * phi**3


def test_binomial_derivatives_agree_at_origin():
    q = 0.3
    h = 1e-4

    def fd(f):
        d1 = (energy(f, h) - energy(f, -h)) / (2 * h)
        d2 = (energy(f, h) - 2 * energy(f, 0.0) + energy(f, -h)) / h**2
        return d1, d2

    d1e, d2e = fd(ExactBinomial(q))
    d1a, d2a = fd(binomial_asymptotic(q))
    assert d1a == pytest.approx(d1e, abs=1e-6)
    assert d2a == pytest.approx(d2e, abs=1e-6)


def test_arrival_energy_dispatch():
    assert arrival_energy(Poisson(0.25)) == Poisson(0.25)
    assert arrival_energy(GenericRenewal(2.0, 4.0)) == GenericRenewal(2.0, 4.0)
    f = arrival_energy(MarkovFluidRenewal(0.1, 0.2, 0.4, 0.6))
    assert isinstance(f, GenericRenewal)
    assert f.mean == pytest.approx(7.0)


def test_overflow_becomes_inf_not_exception():
    assert eval_energy(Poisson(1.0), 1000.0) == math.inf


def test_validation():
    with pytest.raises(ConfigError):
        ExactBinomial(0.0)
    with pytest.raises(ConfigError):
        binomial_asymptotic(1.0)
    with pytest.raises(ConfigError):
        GenericRenewal(0.0, 1.0)
    with pytest.raises(ConfigError):
        binomial_energy_gap(0.1, 0.0)
