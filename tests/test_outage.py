"""Product-form outage against independent oracles.

The two-interferer case has a hand-derivable answer, general geometries
get a fading Monte-Carlo oracle at every on-probability, repeated poles get
an Erlang-transform oracle, separated poles get the paper's partial-fraction
expansion (kept under tests/), and tiny outages get an exact rational
product.
"""
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate

from dasqos.errors import ConfigError
from dasqos.geometry import (
    AntennaVector,
    UserVector,
    cluster_from_centers,
    hex_cluster,
    sample_user_vector,
    symmetric_circle,
)
from dasqos.outage import (
    CellScenario,
    ChannelParams,
    antenna_outage_closed_form,
    antenna_outage_mc,
    conditional_system_outage,
    expected_outage,
    product_form_outage,
    system_outage,
)
from dasqos.outage import _user_rates
from partial_fraction_oracle import outage_expansion


def two_cell_scenario(exponent=4.0, efficiency=1.0, alpha=1.0, spacing=2.0):
    layout = cluster_from_centers([(0.0, 0.0), (spacing, 0.0)])
    channel = ChannelParams(exponent, efficiency, alpha)
    antennas = AntennaVector((0.0,), (0.0,), 0.05)
    return CellScenario(layout, antennas, channel)


def seven_cell_scenario(exponent=2.0, efficiency=1.0, alpha=1.0, radius=0.42):
    layout = hex_cluster(7, 2.0)
    channel = ChannelParams(exponent, efficiency, alpha)
    return CellScenario(layout, symmetric_circle(4, radius), channel)


def f2_reference(rho0, rho1, exponent, efficiency):
    # P(X < K Y), X ~ Exp(a0), Y ~ Exp(a1): K a0 / (K a0 + a1)
    k = 2.0**efficiency - 1.0
    a0 = rho0**exponent
    a1 = rho1**exponent
    return k * a0 / (k * a0 + a1)


def test_f2_textbook_case():
    # rho0=1, rho1=2, 2lam=4, R=1: 1/(1+16) exactly
    scenario = two_cell_scenario()
    users = UserVector((1.0, 0.0), (math.pi / 2, 0.0))
    # place the target user at distance sqrt(1 + h^2)... use explicit radii:
    # target at (0,1) -> rho0 = sqrt(1 + 0.0025); easier to check the formula
    got = antenna_outage_closed_form(scenario, users, 0)
    rho0 = math.sqrt(1.0 + 0.05**2)
    rho1 = math.sqrt(4.0 + 0.05**2)
    assert got == pytest.approx(f2_reference(rho0, rho1, 4.0, 1.0), abs=1e-14)


def test_f2_against_quadrature():
    scenario = two_cell_scenario()
    users = UserVector((1.0, 0.0), (math.pi / 2, 0.0))
    rho0 = math.sqrt(1.0 + 0.05**2)
    rho1 = math.sqrt(4.0 + 0.05**2)
    a0, a1 = rho0**4, rho1**4
    # integrate P(X < K y) against the density of Y
    val, _ = integrate.quad(
        lambda y: (1.0 - math.exp(-a0 * y)) * a1 * math.exp(-a1 * y), 0, np.inf
    )
    assert antenna_outage_closed_form(scenario, users, 0) == pytest.approx(
        val, rel=1e-9
    )


def test_f2_random_tuples():
    # one interferer on with probability alpha: alpha * K a0 / (K a0 + a1)
    rng = np.random.default_rng(2)
    for _ in range(100):
        rho0 = float(rng.uniform(0.05, 1.5))
        rho1 = float(rng.uniform(0.05, 3.0))
        exponent = float(rng.uniform(1.5, 5.0))
        efficiency = float(rng.uniform(0.25, 3.0))
        alpha = float(rng.uniform(0.0, 1.0))
        k = 2.0**efficiency - 1.0
        a0, a1 = rho0**exponent, rho1**exponent
        want = f2_reference(rho0, rho1, exponent, efficiency)
        assert product_form_outage(a0, [a1 / k], 1.0) == pytest.approx(want, abs=1e-12)
        got = product_form_outage(a0, [a1 / k], alpha)
        assert got == pytest.approx(alpha * want, abs=1e-12)


def test_f2_equidistant_symmetry():
    # equal signal and interferer rates at K = 1: a fair coin
    assert product_form_outage(1.7, [1.7], 1.0) == pytest.approx(0.5, abs=1e-14)


def test_expansion_structure_and_reconstruction():
    rng = np.random.default_rng(3)
    scenario = seven_cell_scenario()
    users = sample_user_vector(scenario.layout, rng)
    rates = _user_rates(scenario, users, 0)
    expansion = outage_expansion(rates[0], rates[1:], scenario.channel.sir_threshold)
    # multiplicities cover every cell, exactly one negative (signal) pole
    assert sum(k for _, k in expansion.poles) == 7
    assert sum(1 for c, _ in expansion.poles if c < 0) == 1
    product = lambda s: expansion.scale / np.prod(
        [(s + c) ** k for c, k in expansion.poles]
    )
    for _ in range(20):
        s = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if min(abs(s + c) for c, _ in expansion.poles) < 0.05:
            continue
        want = product(s)
        got = expansion.reconstruct(s)
        assert abs(got - want) <= 1e-9 * abs(want)


def test_repeated_pole_against_erlang_oracle():
    # two interferers at exactly the same distance: K*Y is Erlang(2, a/K),
    # so P(X < K Y) = 1 - (q / (q + a0))^2 with q = a/K
    a0, a, k = 1.3, 2.1, 1.6
    q = a / k
    want = 1.0 - (q / (q + a0)) ** 2
    assert product_form_outage(a0, [q, q], 1.0) == pytest.approx(want, rel=1e-12)


def test_triple_pole_against_erlang_oracle():
    a0, a, k = 0.9, 1.4, 3.0
    # Y ~ Erlang(3, a/K) after folding the threshold into the rate
    rate = a / k
    want = 1.0 - (rate / (rate + a0)) ** 3
    assert product_form_outage(a0, [rate] * 3, 1.0) == pytest.approx(want, rel=1e-12)


def test_kernel_matches_partial_fractions_on_separated_poles():
    rng = np.random.default_rng(5)
    checked, worst = 0, 0.0
    while checked < 1000:
        if rng.random() < 0.5:
            layout = hex_cluster(7, 2.0)
        else:
            layout = cluster_from_centers([(0.0, 0.0)] + [
                (float(rng.uniform(-2.5, 2.5)), float(rng.uniform(-2.5, 2.5)))
                for _ in range(int(rng.integers(1, 6)))
            ])
        antennas = AntennaVector(
            (float(rng.uniform(0.0, 0.9)),), (float(rng.uniform(0, 2 * math.pi)),), 0.05
        )
        channel = ChannelParams(float(rng.uniform(1.5, 5.0)), float(rng.uniform(0.25, 3.0)))
        scenario = CellScenario(layout, antennas, channel)
        rates = _user_rates(scenario, sample_user_vector(layout, rng), 0)
        q = np.sort(rates[1:])
        if q.size > 1 and np.min(np.diff(q) / q[1:]) < 1e-3:
            continue  # the expansion's residues cancel badly here
        k = channel.sir_threshold
        want = outage_expansion(rates[0], rates[1:], k).positive_tail_mass()
        got = float(product_form_outage(rates[0], rates[1:] / k, 1.0))
        worst = max(worst, abs(got - want))
        checked += 1
    assert worst <= 1e-8


def test_tiny_outage_matches_exact_fraction_product():
    # the target sits under its antenna, so the outage is ~2e-9 and
    # 1 - prod(...) in plain floating point would keep only ~7 digits
    layout = hex_cluster(7, 2.0)
    antennas = AntennaVector((0.42, 0.42), (0.0, math.pi), 0.01)
    scenario = CellScenario(layout, antennas, ChannelParams(4.0, 1.0, 0.75))
    users = UserVector((0.42, 0.3, 0.5, 0.7, 0.2, 0.9, 0.6), (0.0, 1, 2, 3, 4, 5, 6))
    rates = _user_rates(scenario, users, 0)
    k = scenario.channel.sir_threshold
    a0, alpha = Fraction(float(rates[0])), Fraction(0.75)
    clear = Fraction(1)
    for q in rates[1:] / k:
        clear *= 1 - alpha * a0 / (Fraction(float(q)) + a0)
    exact = float(1 - clear)
    assert exact < 1e-8
    got = antenna_outage_closed_form(scenario, users, 0)
    assert got == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("alpha", [0.3, 0.75, 1.0])
def test_near_coincident_poles_match_mc(alpha):
    # interferers on the x-axis facing the origin: distances 1.5 and
    # 1.5 - 5e-8, a relative rate gap ~1.3e-7 that wrecks partial fractions
    layout = cluster_from_centers([(0.0, 0.0), (2.0, 0.0), (-2.0, 0.0)])
    antennas = AntennaVector((0.0,), (0.0,), 0.05)
    scenario = CellScenario(layout, antennas, ChannelParams(4.0, 1.0, alpha))
    eps = 1e-7
    users_tight = UserVector((0.3, 0.5, 0.5 * (1 + eps)), (0.1, math.pi, 0.0))
    users_equal = UserVector((0.3, 0.5, 0.5), (0.1, math.pi, 0.0))
    users_apart = UserVector((0.3, 0.5, 0.505), (0.1, math.pi, 0.0))
    tight = antenna_outage_closed_form(scenario, users_tight, 0)
    # continuous through the coincidence: O(gap) from the exact double pole
    equal = antenna_outage_closed_form(scenario, users_equal, 0)
    assert tight == pytest.approx(equal, rel=1e-6)
    apart = antenna_outage_closed_form(scenario, users_apart, 0)
    assert tight == pytest.approx(apart, rel=0.05)
    mc, se = antenna_outage_mc(scenario, users_tight, 0, 200_000,
                               np.random.default_rng(4))
    assert abs(tight - mc) <= 3 * se


def test_closed_form_matches_mc_random_geometries():
    rng = np.random.default_rng(17)
    for cells, exponent in [(2, 2.0), (3, 4.0), (7, 2.0), (7, 4.0)]:
        if cells == 7:
            layout = hex_cluster(7, 2.0)
        else:
            centers = [(0.0, 0.0)] + [
                (float(rng.uniform(-2.5, 2.5)), float(rng.uniform(-2.5, 2.5)))
                for _ in range(cells - 1)
            ]
            layout = cluster_from_centers(centers)
        scenario = CellScenario(
            layout,
            symmetric_circle(3, float(rng.uniform(0.1, 0.9)), float(rng.uniform(0, 2))),
            ChannelParams(exponent, 1.0),
        )
        users = sample_user_vector(layout, rng)
        closed = antenna_outage_closed_form(scenario, users, 1)
        mc, se = antenna_outage_mc(scenario, users, 1, 400_000, rng)
        assert abs(closed - mc) <= 3 * max(se, 1e-5), (cells, exponent)


@pytest.mark.parametrize("alpha", [0.3, 0.75])
def test_closed_form_matches_mc_intermittent(alpha):
    rng = np.random.default_rng(19)
    for exponent in (2.0, 4.0):
        scenario = seven_cell_scenario(exponent, alpha=alpha, radius=float(rng.uniform(0.1, 0.9)))
        users = sample_user_vector(scenario.layout, rng)
        for m in range(scenario.antennas.count):
            closed = antenna_outage_closed_form(scenario, users, m)
            mc, se = antenna_outage_mc(scenario, users, m, 200_000, rng)
            assert abs(closed - mc) <= 3 * max(se, 1e-5), (exponent, m)


def test_single_cell_never_fails():
    layout = hex_cluster(1)
    scenario = CellScenario(layout, symmetric_circle(2, 0.4), ChannelParams(2.0, 1.0))
    users = UserVector((0.3,), (0.7,))
    assert antenna_outage_closed_form(scenario, users, 0) == 0.0
    assert antenna_outage_mc(scenario, users, 0, 100, np.random.default_rng(0)) == (
        0.0,
        0.0,
    )
    assert product_form_outage(1.0, np.empty(0), 1.0) == 0.0


def test_outage_monotone_in_spectral_efficiency():
    scenario = seven_cell_scenario()
    users = sample_user_vector(scenario.layout, np.random.default_rng(23))
    values = []
    for eff in (0.25, 0.5, 1.0, 2.0, 3.0):
        s = CellScenario(
            scenario.layout, scenario.antennas, ChannelParams(2.0, eff)
        )
        values.append(antenna_outage_closed_form(s, users, 0))
    assert all(a < b for a, b in zip(values, values[1:]))


def test_moving_antenna_toward_user_helps():
    # single antenna so the angle sort cannot reshuffle identities
    from dasqos.geometry import user_positions

    layout = hex_cluster(7, 2.0)
    channel = ChannelParams(2.0, 1.0)
    rng = np.random.default_rng(31)
    for _ in range(10):
        start = AntennaVector(
            (float(rng.uniform(0.1, 0.9)),), (float(rng.uniform(0, 6.2)),), 0.05
        )
        scenario = CellScenario(layout, start, channel)
        users = sample_user_vector(layout, rng)
        base = antenna_outage_closed_form(scenario, users, 0)
        apos = start.positions()[0]
        upos = user_positions(layout, users)[0]
        gap = upos - apos
        if np.linalg.norm(gap) < 0.05:
            continue
        new = apos + 0.02 * gap / np.linalg.norm(gap)
        moved = AntennaVector(
            (float(np.hypot(*new)),),
            (float(np.arctan2(new[1], new[0]) % (2 * math.pi)),),
            0.05,
        )
        perturbed = antenna_outage_closed_form(
            scenario.with_antennas(moved), users, 0
        )
        assert perturbed <= base + 1e-12


def test_sinr_sampling_replay_and_alpha_zero():
    scenario = seven_cell_scenario(alpha=0.0)
    users = sample_user_vector(scenario.layout, np.random.default_rng(2))
    assert antenna_outage_closed_form(scenario, users, 0) == 0.0
    assert antenna_outage_mc(scenario, users, 0, 5000, np.random.default_rng(5)) == (
        0.0,
        0.0,
    )
    for alpha in (0.7, 1.0):
        live = seven_cell_scenario(alpha=alpha)
        a = antenna_outage_mc(live, users, 2, 10_000, np.random.default_rng(5))
        b = antenna_outage_mc(live, users, 2, 10_000, np.random.default_rng(5))
        assert a == b


def test_mc_worker_determinism():
    # one RNG stream, no thread split: a seed replays the estimate exactly
    scenario = seven_cell_scenario()
    users = sample_user_vector(scenario.layout, np.random.default_rng(9))
    a = antenna_outage_mc(scenario, users, 0, 10_000, np.random.default_rng(1))
    b = antenna_outage_mc(scenario, users, 0, 10_000, np.random.default_rng(1))
    assert a == b
    exact = antenna_outage_closed_form(scenario, users, 0)
    assert abs(a[0] - exact) <= 3 * a[1]


def test_alpha_decomposition_two_cells():
    # single interferer: outage(alpha) = alpha * outage(1)
    scenario = two_cell_scenario(alpha=0.5)
    users = UserVector((0.6, 0.2), (0.3, 1.0))
    full = antenna_outage_closed_form(two_cell_scenario(alpha=1.0), users, 0)
    half = antenna_outage_closed_form(scenario, users, 0)
    assert half == pytest.approx(0.5 * full, rel=1e-12)
    mc, se = antenna_outage_mc(scenario, users, 0, 400_000, np.random.default_rng(6))
    assert abs(mc - 0.5 * full) <= 3 * se


def test_system_outage_product():
    assert system_outage([0.1, 0.2, 0.3]) == pytest.approx(0.006, rel=1e-12)
    assert system_outage([0.4, 0.0, 0.9]) == 0.0
    assert system_outage([0.37]) == 0.37
    with pytest.raises(ConfigError):
        system_outage([0.5, 1.2])


def test_conditional_system_outage_closed_path():
    scenario = seven_cell_scenario()
    users = sample_user_vector(scenario.layout, np.random.default_rng(77))
    per = [
        antenna_outage_closed_form(scenario, users, m)
        for m in range(scenario.antennas.count)
    ]
    assert conditional_system_outage(scenario, users) == pytest.approx(
        math.prod(per), rel=1e-12
    )


def test_expected_outage_matches_scalar_loop():
    # the vectorized batch engine must agree with the one-user closed form
    from dasqos.geometry import sample_user_batch

    seed = 123
    for alpha in (1.0, 0.5):
        scenario = seven_cell_scenario(exponent=4.0, alpha=alpha, radius=0.58)
        est = expected_outage(scenario, 200, np.random.default_rng(seed))
        ux, uy = sample_user_batch(scenario.layout, 200, np.random.default_rng(seed))
        centers = scenario.layout.center_array()
        values = []
        for row in range(200):
            dx = ux[row] - centers[:, 0]
            dy = uy[row] - centers[:, 1]
            users = UserVector(
                tuple(float(min(r, 1.0)) for r in np.hypot(dx, dy)),
                tuple(float(a % (2 * math.pi)) for a in np.arctan2(dy, dx)),
            )
            values.append(conditional_system_outage(scenario, users))
        assert est.value == pytest.approx(float(np.mean(values)), rel=1e-12)
        assert est.std_err == pytest.approx(
            float(np.std(values, ddof=1) / math.sqrt(200)), rel=1e-9
        )
        assert est.samples == 200


def test_expected_outage_deterministic_and_worker_invariant():
    scenario = seven_cell_scenario()
    a = expected_outage(scenario, 500, np.random.default_rng(4))
    b = expected_outage(scenario, 500, np.random.default_rng(4))
    assert a == b
    c = expected_outage(scenario, 500, np.random.default_rng(4), workers=4)
    assert c.value == pytest.approx(a.value, rel=1e-12)


def test_expected_outage_common_random_numbers():
    # same seed, different antennas: identical user draws, so the difference
    # between two layouts is exactly the integrand difference
    scenario = seven_cell_scenario()
    near = expected_outage(scenario, 300, np.random.default_rng(8),
                           antennas=symmetric_circle(4, 0.42))
    far = expected_outage(scenario, 300, np.random.default_rng(8),
                          antennas=symmetric_circle(4, 0.9))
    assert near.value != far.value  # different layouts actually evaluated


def test_expected_outage_scales_with_alpha():
    # fewer active interferers never hurt, and alpha = 0 means no outage
    values = [
        expected_outage(seven_cell_scenario(alpha=a), 500, np.random.default_rng(11)).value
        for a in (0.0, 0.3, 0.75, 1.0)
    ]
    assert values[0] == 0.0
    assert all(a < b for a, b in zip(values, values[1:]))


def test_expected_outage_validation():
    scenario = seven_cell_scenario()
    with pytest.raises(ConfigError):
        expected_outage(scenario, 1, np.random.default_rng(0))
