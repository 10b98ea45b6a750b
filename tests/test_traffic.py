"""Moment oracles for the arrival and service models.

Closed forms are checked against brute-force enumeration (truncated
geometric) and numerical integration of the mixture pdf (hyperexponential),
so a transcription slip in either closed form cannot hide.
"""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from dasqos.errors import ConfigError
from dasqos.traffic import (
    DeterministicUnit,
    GenericRenewal,
    MarkovFluidRenewal,
    Poisson,
    TrafficFlow,
    TruncatedGeometric,
    arrival_moments,
    arrival_rate,
    packet_loss_probability,
    sample_interarrival,
    service_moments,
)
from analysis_helpers import service_pgf


def enumerate_service(p: float, L: int) -> tuple[float, float]:
    """Brute-force mean/variance of the attempt-count distribution."""
    probs = [(1.0 - p) * p ** (i - 1) for i in range(1, L)]
    probs.append(p ** (L - 1))
    assert abs(sum(probs) - 1.0) < 1e-12
    mean = sum(i * q for i, q in zip(range(1, L + 1), probs))
    second = sum(i * i * q for i, q in zip(range(1, L + 1), probs))
    return mean, second - mean * mean


def integrate_hyperexp(la: float, lb: float, wa: float) -> tuple[float, float]:
    wb = 1.0 - wa
    pdf = lambda t: wa * la * math.exp(-la * t) + wb * lb * math.exp(-lb * t)
    mean, _ = integrate.quad(lambda t: t * pdf(t), 0, np.inf)
    second, _ = integrate.quad(lambda t: t * t * pdf(t), 0, np.inf)
    return mean, second - mean * mean


def test_poisson_moments():
    assert arrival_moments(Poisson(0.5)) == (2.0, 4.0)
    assert arrival_rate(Poisson(0.5)) == 0.5


def test_markov_fluid_degenerates_to_exponential():
    m = MarkovFluidRenewal(0.3, 0.3, 0.25, 0.75)
    mu, var = arrival_moments(m)
    assert mu == pytest.approx(1.0 / 0.3, abs=1e-15)
    assert var == pytest.approx(1.0 / 0.09, rel=1e-12)


def test_markov_fluid_moments_against_integration():
    # the printed textbook variance for this mixture omits the cross term
    # and would give 85; the pdf itself gives 61
    m = MarkovFluidRenewal(0.1, 0.2, 0.4, 0.6)
    mu, var = arrival_moments(m)
    assert mu == pytest.approx(7.0, abs=1e-12)
    assert var == pytest.approx(61.0, abs=1e-9)
    mu_q, var_q = integrate_hyperexp(0.1, 0.2, 0.4)
    assert mu == pytest.approx(mu_q, rel=1e-9)
    assert var == pytest.approx(var_q, rel=1e-8)


@pytest.mark.parametrize("la,lb,wa", [(0.5, 2.0, 0.3), (1.0, 0.05, 0.9), (0.7, 0.7, 0.5)])
def test_markov_fluid_grid_against_integration(la, lb, wa):
    mu, var = arrival_moments(MarkovFluidRenewal(la, lb, wa, 1.0 - wa))
    mu_q, var_q = integrate_hyperexp(la, lb, wa)
    assert mu == pytest.approx(mu_q, rel=1e-9)
    assert var == pytest.approx(var_q, rel=1e-8)


def test_generic_renewal_passthrough():
    assert arrival_moments(GenericRenewal(7.0, 61.0)) == (7.0, 61.0)


def test_service_moments_unit():
    assert service_moments(DeterministicUnit()) == (1.0, 0.0)


def test_service_moments_frozen_values():
    mu, var = service_moments(TruncatedGeometric(0.1, 2))
    assert mu == pytest.approx(1.1, abs=1e-15)
    assert var == pytest.approx(0.09, abs=1e-15)  # p - p^2
    mu, var = service_moments(TruncatedGeometric(0.1, 4))
    assert mu == pytest.approx(1.111, abs=1e-12)
    assert var == pytest.approx(0.122679, abs=5e-7)


def test_service_moments_p_zero():
    assert service_moments(TruncatedGeometric(0.0, 7)) == (1.0, 0.0)


def test_certain_failure_uses_every_attempt():
    # p = 1: every packet takes all L slots and is lost
    model = TruncatedGeometric(1.0, 6)
    assert service_moments(model) == (6.0, 0.0)
    assert packet_loss_probability(1.0, 6) == 1.0


def test_service_moments_exact_near_certain_failure():
    # exact rational enumeration over the binary value of p; the variance
    # is a difference of nearly equal terms as p -> 1 and must stay accurate
    for p in (0.0, 0.1, 0.5, 0.9, 0.99, 1 - 1e-5, 1 - 1e-7, 1 - 1e-9):
        for L in (1, 2, 3, 10, 40):
            pf = Fraction(p)
            probs = [(1 - pf) * pf ** (k - 1) for k in range(1, L)] + [pf ** (L - 1)]
            mean = sum(k * w for k, w in enumerate(probs, start=1))
            var = sum(w * (k - mean) ** 2 for k, w in enumerate(probs, start=1))
            got_mean, got_var = service_moments(TruncatedGeometric(p, L))
            assert got_var >= 0.0, (p, L)
            assert abs(Fraction(got_mean) - mean) <= Fraction(1e-10) * mean, (p, L)
            assert abs(Fraction(got_var) - var) <= Fraction(1e-10) * var, (p, L)


@pytest.mark.parametrize("p", [0.05, 0.1, 0.2, 0.3, 0.4, 0.5])
@pytest.mark.parametrize("L", list(range(1, 11)))
def test_service_moments_enumeration_grid(p, L):
    mu, var = service_moments(TruncatedGeometric(p, L))
    mu_e, var_e = enumerate_service(p, L)
    assert mu == pytest.approx(mu_e, abs=1e-12)
    assert var == pytest.approx(var_e, abs=1e-12)


@given(
    p=st.floats(min_value=0.0, max_value=0.95, allow_nan=False),
    L=st.integers(min_value=1, max_value=30),
)
@settings(max_examples=200, deadline=None)
def test_service_moments_enumeration_property(p, L):
    mu, var = service_moments(TruncatedGeometric(p, L))
    mu_e, var_e = enumerate_service(p, L)
    assert math.isclose(mu, mu_e, rel_tol=0, abs_tol=1e-10)
    assert math.isclose(var, var_e, rel_tol=0, abs_tol=1e-10)


def test_service_mean_monotone_in_p_and_L():
    for L in (2, 4, 8):
        means = [service_moments(TruncatedGeometric(p, L))[0] for p in (0.1, 0.2, 0.3)]
        assert means == sorted(means)
    for p in (0.1, 0.3):
        means = [service_moments(TruncatedGeometric(p, L))[0] for L in (1, 2, 4, 8)]
        assert means == sorted(means)


def test_pgf_values():
    g = TruncatedGeometric(0.1, 2)
    assert service_pgf(g, 1.0) == pytest.approx(1.0, abs=1e-15)
    assert service_pgf(g, 0.0) == 0.0
    assert service_pgf(g, 0.5) == pytest.approx(0.475, abs=1e-15)
    assert service_pgf(DeterministicUnit(), 0.3) == 0.3


def test_pgf_degenerate_branch():
    # z*p = 1 hits the removable singularity of the ratio form
    g = TruncatedGeometric(0.5, 4)
    direct = sum(
        z_pow * prob
        for z_pow, prob in zip(
            (2.0**i for i in range(1, 5)),
            [(1 - 0.5) * 0.5 ** (i - 1) for i in range(1, 4)] + [0.5**3],
        )
    )
    assert service_pgf(g, 2.0) == pytest.approx(direct, rel=1e-13)


@pytest.mark.parametrize("p,L", [(0.1, 4), (0.3, 2), (0.45, 9)])
def test_pgf_derivatives_reproduce_moments(p, L):
    g = TruncatedGeometric(p, L)
    h = 1e-5
    d1 = (service_pgf(g, 1 + h) - service_pgf(g, 1 - h)) / (2 * h)
    d2 = (service_pgf(g, 1 + h) - 2 * service_pgf(g, 1.0) + service_pgf(g, 1 - h)) / h**2
    mu, var = service_moments(g)
    assert d1 == pytest.approx(mu, rel=1e-8)
    assert d2 + d1 - d1 * d1 == pytest.approx(var, rel=1e-4)


def test_packet_loss():
    assert packet_loss_probability(0.37, 1) == pytest.approx(0.37)
    assert packet_loss_probability(0.2, 4) == pytest.approx(0.0016)
    assert packet_loss_probability(0.0, 4) == 0.0
    assert packet_loss_probability(0.2, 1) == 0.2  # unit service: its one attempt fails


def test_loss_strictly_decreasing_in_L():
    losses = [packet_loss_probability(0.2, L) for L in (1, 2, 4, 8)]
    assert all(a > b for a, b in zip(losses, losses[1:]))


def test_sampling_matches_moments():
    rng = np.random.default_rng(7)
    draws = sample_interarrival(Poisson(1.0), rng, 10**6)
    assert abs(draws.mean() - 1.0) < 4 * draws.std(ddof=1) / 1000.0
    draws = sample_interarrival(MarkovFluidRenewal(0.1, 0.2, 0.4, 0.6), rng, 10**6)
    se = draws.std(ddof=1) / 1000.0
    assert abs(draws.mean() - 7.0) < 4 * se


def test_sampling_deterministic_replay():
    a = sample_interarrival(Poisson(0.5), np.random.default_rng(11), 100)
    b = sample_interarrival(Poisson(0.5), np.random.default_rng(11), 100)
    np.testing.assert_array_equal(a, b)
    x = sample_interarrival(MarkovFluidRenewal(0.1, 0.2, 0.4, 0.6), np.random.default_rng(3), 100)
    y = sample_interarrival(MarkovFluidRenewal(0.1, 0.2, 0.4, 0.6), np.random.default_rng(3), 100)
    np.testing.assert_array_equal(x, y)


@pytest.mark.parametrize("rate", [0.2, 0.6, 1 / 8])
def test_poisson_gaps_are_numpys_exponential_draws(rate):
    # drawn as scaled standard exponentials: the same floats as
    # rng.exponential(1 / rate), and the generator left in the same state
    ours, numpys = np.random.default_rng(5), np.random.default_rng(5)
    gaps = sample_interarrival(Poisson(rate), ours, 10_000)
    np.testing.assert_array_equal(gaps, numpys.exponential(1.0 / rate, 10_000))
    assert ours.standard_exponential() == numpys.standard_exponential()


def test_validation():
    with pytest.raises(ConfigError):
        Poisson(0.0)
    with pytest.raises(ConfigError):
        MarkovFluidRenewal(0.1, 0.2, 0.5, 0.6)
    with pytest.raises(ConfigError):
        TruncatedGeometric(1.5, 4)
    with pytest.raises(ConfigError):
        TruncatedGeometric(0.1, 0)
    with pytest.raises(ConfigError):
        GenericRenewal(0.0, 1.0)
    with pytest.raises(ConfigError):
        TrafficFlow(0, Poisson(1.0), DeterministicUnit())


def test_unit_service_states_its_attempt_cap():
    # the simulator reads every service model's max_attempts
    assert DeterministicUnit.max_attempts == DeterministicUnit().max_attempts == 1


@pytest.mark.parametrize(
    "arrival",
    [
        Poisson(1e-320),  # rate * rate underflows to 0
        Poisson(1e-160),  # the variance overflows to inf
        MarkovFluidRenewal(1.0, 1e-200, 0.5, 0.5),
        GenericRenewal(1e110, 1.0),  # mean**3 raises OverflowError
        GenericRenewal(2.0, math.inf),
    ],
    ids=repr,
)
def test_flow_moments_must_fit_a_float(arrival):
    with pytest.raises(ConfigError, match="do not fit a float"):
        TrafficFlow(1, arrival, DeterministicUnit())


def test_flow_moments_at_the_float_edge_are_kept():
    # the cube of the mean still fits: the energies keep mean**3 as it is
    flow = TrafficFlow(1, GenericRenewal(5e102, 1e308), DeterministicUnit())
    assert math.isfinite(arrival_moments(flow.arrival)[0] ** 3)
    TrafficFlow(1, Poisson(1e-100), DeterministicUnit())
