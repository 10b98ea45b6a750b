"""Product-form outage against independent oracles.

The two-interferer case has a hand-derivable answer, general geometries
get a fading Monte-Carlo oracle at every on-probability, repeated poles get
an Erlang-transform oracle, separated poles get the paper's partial-fraction
expansion, and tiny outages get an exact rational product. The scalar
union recurrence and the log-space form it replaced are both held to the
recurrence's rounding bound against exact rationals. The Monte Carlo, the
link rates it draws on and both scalar forms are kept under tests/
(probe_loop_oracle); the kernel must match the recurrence bit for bit.
"""
import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from dasqos import outage
from dasqos.errors import ConfigError
from dasqos.geometry import (
    AntennaVector,
    ClusterLayout,
    UserVector,
    antenna_polar,
    hex_cluster,
    sample_user_batch,
    sample_user_vector,
    symmetric_circle,
)
from dasqos.outage import (
    CellScenario,
    ChannelParams,
    antenna_outage_closed_form,
    conditional_system_outage,
    expected_outage,
    layout_outage,
)
from partial_fraction_oracle import outage_expansion
import probe_loop_oracle
from probe_loop_oracle import _link_rates, antenna_outage_mc, product_form_outage, user_positions


def two_cell_scenario(exponent=4.0, efficiency=1.0, alpha=1.0, spacing=2.0):
    layout = ClusterLayout(((0.0, 0.0), (spacing, 0.0)))
    channel = ChannelParams(exponent, efficiency, alpha)
    antennas = AntennaVector((0.0,), (0.0,), 0.05)
    return CellScenario(layout, antennas, channel)


def one_height(layouts):
    """layout_outage's polar array and mast height for AntennaVectors of one height."""
    (height,) = {a.height for a in layouts}
    return np.array([(a.radii, a.angles) for a in layouts]), height


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
    rates = _link_rates(scenario, users, 0)
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
            layout = ClusterLayout(tuple([(0.0, 0.0)] + [
                (float(rng.uniform(-2.5, 2.5)), float(rng.uniform(-2.5, 2.5)))
                for _ in range(int(rng.integers(1, 6)))
            ]))
        antennas = AntennaVector(
            (float(rng.uniform(0.0, 0.9)),), (float(rng.uniform(0, 2 * math.pi)),), 0.05
        )
        channel = ChannelParams(float(rng.uniform(1.5, 5.0)), float(rng.uniform(0.25, 3.0)))
        scenario = CellScenario(layout, antennas, channel)
        rates = _link_rates(scenario, sample_user_vector(layout, rng), 0)
        q = np.sort(rates[1:])
        if q.size > 1 and np.min(np.diff(q) / q[1:]) < 1e-3:
            continue  # the expansion's residues cancel badly here
        k = channel.sir_threshold
        want = outage_expansion(rates[0], rates[1:], k).positive_tail_mass()
        got = float(product_form_outage(rates[0], rates[1:] / k, 1.0))
        worst = max(worst, abs(got - want))
        checked += 1
    assert worst <= 1e-8


def _under_antenna_outage(exponent: float, alpha: float) -> tuple[float, float]:
    """(kernel, exact Fraction product) at antenna 0 with the target under it."""
    layout = hex_cluster(7, 2.0)
    antennas = AntennaVector((0.42, 0.42), (0.0, math.pi), 0.01)
    scenario = CellScenario(layout, antennas, ChannelParams(exponent, 1.0, alpha))
    users = UserVector((0.42, 0.3, 0.5, 0.7, 0.2, 0.9, 0.6), (0.0, 1, 2, 3, 4, 5, 6))
    rates = _link_rates(scenario, users, 0)
    k = scenario.channel.sir_threshold
    a0, alpha_q = Fraction(float(rates[0])), Fraction(alpha)
    clear = Fraction(1)
    for q in rates[1:] / k:
        clear *= 1 - alpha_q * a0 / (Fraction(float(q)) + a0)
    return antenna_outage_closed_form(scenario, users, 0), float(1 - clear)


def test_tiny_outage_matches_exact_fraction_product():
    # the target sits under its antenna, so the outage is ~2e-9 and
    # 1 - prod(...) in plain floating point would keep only ~7 digits
    got, exact = _under_antenna_outage(4.0, 0.75)
    assert exact < 1e-8
    assert got == pytest.approx(exact, rel=1e-12)
    # near-idle interferers make each factor 1 - tiny; a flat exponent
    # brings every interferer close to the target's rate, a steep one
    # leaves the outage far below 1e-9
    for exponent in (0.5, 8.0):
        for alpha in (1e-12, 1e-6, 1.0):
            got, exact = _under_antenna_outage(exponent, alpha)
            assert got == pytest.approx(exact, rel=1e-12), (exponent, alpha)


# Rounding count of the union recurrence, u = 2^-53: t_1 = alpha * a0 /
# (q_1 + a0) takes three roundings (product, sum, quotient), so it is within
# 3u of exact. A later interferer adds t_i * (1 - fail), within 5u (t_i's
# three roundings, the difference's and the product's); fail's own error
# reaches the sum scaled by 1 - t_i, so before its rounding the sum is off
# by a weighted mean of the two, at most the larger, and the sum's rounding
# adds u. So n interferers stay within (n + 4)u, to first order; Higham's
# gamma_{n+4} = (n + 4)u / (1 - (n + 4)u) holds the higher-order terms. A
# relative error of (n + 4)u is at most n + 4 ulps. alpha >= 1e-6 keeps
# every t_i clear of subnormals, where no relative bound holds.
@pytest.mark.parametrize(
    "form", [product_form_outage, probe_loop_oracle.log_space_outage], ids=["union", "log-space"]
)
@given(
    a0=st.floats(1e-3, 1e3),
    decades=st.lists(
        st.one_of(st.floats(-2.0, 12.0), st.sampled_from([0.0, 3.0])), min_size=1, max_size=12
    ),
    alpha=st.floats(1e-6, 1.0),
)
@example(a0=1.0, decades=[12.0], alpha=1e-6)  # outage 1e-18
@example(a0=7.0, decades=[-2.0] * 12, alpha=1.0)  # outage 1 - 1e-24
@example(a0=0.3, decades=[0.0] * 12, alpha=0.5)  # twelve interferers at the target's rate
@example(a0=2.0, decades=[1.0, 1.0, 5.0], alpha=0.0)  # no outage, +0
@settings(max_examples=300)
def test_outage_within_rounding_bound_of_exact(form, a0, decades, alpha):
    # the log-space form the recurrence replaced meets the same bound
    q = [a0 * 10.0**d for d in decades]
    clear = Fraction(1)
    for qi in q:
        clear *= 1 - Fraction(alpha) * Fraction(a0) / (Fraction(qi) + Fraction(a0))
    exact = 1 - clear
    got = float(form(a0, np.array(q), alpha))
    if exact == 0:  # alpha = 0: no interferer ever transmits
        assert got == 0.0 and math.copysign(1.0, got) == 1.0
        return
    ku = Fraction(len(q) + 4, 2**53)
    assert abs(Fraction(got) - exact) <= ku / (1 - ku) * exact


@pytest.mark.parametrize("alpha", [0.3, 0.75, 1.0])
def test_near_coincident_poles_match_mc(alpha):
    # interferers on the x-axis facing the origin: distances 1.5 and
    # 1.5 - 5e-8, a relative rate gap ~1.3e-7 that wrecks partial fractions
    layout = ClusterLayout(((0.0, 0.0), (2.0, 0.0), (-2.0, 0.0)))
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
            layout = ClusterLayout(tuple(centers))
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
        apos = probe_loop_oracle.antenna_positions(start)[0]
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
            replace(scenario, antennas=moved), users, 0
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
    system_outage = probe_loop_oracle.system_outage
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


KERNEL_LAYOUTS = (
    symmetric_circle(4, 0.58),
    symmetric_circle(3, 0.0, 0.4, 0.2),
    AntennaVector((1.0, 0.25, 0.7, 0.0), (0.1, 2.0, 6.2, 4.0), 0.05),
    AntennaVector((0.9, 0.9, 0.3, 0.5), (0.0, 1e-4, 3.0, 2 * math.pi - 1e-4), 0.3),
)


@pytest.mark.parametrize("exponent", [2.0, 3.7, 4.0])
def test_link_rates_match_distance_oracle(exponent):
    # rate = d^exponent, d the plain 3-D antenna-user distance
    layout = hex_cluster(7, 2.0)
    channel = ChannelParams(exponent, 1.0, 0.6)
    rng = np.random.default_rng(31)
    for antennas in KERNEL_LAYOUTS:
        scenario = CellScenario(layout, antennas, channel)
        for _ in range(5):
            users = sample_user_vector(layout, rng)
            expected = 1.0
            for m in range(antennas.count):
                dist = [
                    probe_loop_oracle.antenna_user_distance(layout, antennas, users, m, i)
                    for i in range(layout.size)
                ]
                rates = np.array(dist) ** exponent
                assert _link_rates(scenario, users, m) == pytest.approx(rates, rel=1e-12)
                expected *= float(
                    product_form_outage(rates[0], rates[1:] / channel.sir_threshold, 0.6)
                )
            upos = user_positions(layout, users)
            value = layout_outage(channel, *one_height([antennas]), upos[:, 0], upos[:, 1])
            assert value.shape == (1,)
            assert value[0] == pytest.approx(expected, rel=1e-10)


@pytest.mark.parametrize("alpha", [1.0, 0.45])
def test_kernel_matches_scalar_loop_bitwise(alpha):
    # conditional_system_outage, the batch over users and the batch over
    # layouts all equal the per-antenna Python product of the replaced path
    layout = hex_cluster(7, 2.0)
    channel = ChannelParams(3.3, 1.0, alpha)
    rng = np.random.default_rng(8)
    ux, uy = sample_user_batch(layout, 40, np.random.default_rng(9))
    # stacked layouts share a count and a height
    four = [a for a in KERNEL_LAYOUTS if a.count == 4 and a.height == 0.05]
    stacked = layout_outage(channel, *one_height(four), ux, uy)
    assert stacked.shape == (2, 40)
    for k, antennas in enumerate(four):
        alone = layout_outage(channel, *one_height([antennas]), ux, uy)[0]
        assert alone.tobytes() == stacked[k].tobytes()
    for antennas in KERNEL_LAYOUTS:
        scenario = CellScenario(layout, antennas, channel)
        for _ in range(30):
            users = sample_user_vector(layout, rng)
            reference = probe_loop_oracle.conditional_system_outage(scenario, users)
            assert conditional_system_outage(scenario, users) == reference
            upos = user_positions(layout, users)
            value = layout_outage(channel, *one_height([antennas, antennas]), upos[:, 0], upos[:, 1])
            assert value.tolist() == [reference, reference]


# target, the six neighbours at spacing 2, and six more on the next ring
THIRTEEN_CELLS = ClusterLayout(tuple(
    [(0.0, 0.0)]
    + [(2.0 * math.cos(k * math.pi / 3), 2.0 * math.sin(k * math.pi / 3)) for k in range(6)]
    + [(3.5 * math.cos((k + 0.5) * math.pi / 3), 3.5 * math.sin((k + 0.5) * math.pi / 3))
       for k in range(6)]
))
CLUSTERS = {"one": hex_cluster(1), "hex": hex_cluster(7, 2.0), "thirteen": THIRTEEN_CELLS}


# blocks of 1, 2, 3 and 7 users put the user counts across block edges;
# exponents 2 and 4 and R = 1 (K = 1) take the kernel's skipped or squared
# passes, the drawn values the full ones, and the oracle never skips
@given(
    seed=st.integers(0, 2**32 - 1),
    n_layouts=st.integers(1, 16),
    n_antennas=st.integers(1, 5),
    n_users=st.integers(1, 12),
    alpha=st.one_of(st.just(1.0), st.floats(0.0, 1.0)),
    exponent=st.one_of(st.sampled_from([2.0, 4.0]), st.floats(0.5, 8.0)),
    efficiency=st.one_of(st.just(1.0), st.floats(0.05, 6.0)),
    cluster=st.sampled_from(sorted(CLUSTERS)),
    block=st.sampled_from([1, 2, 3, 7, outage._BLOCK]),
)
@settings(max_examples=200)
def test_kernel_matches_probe_loop_property(
    seed, n_layouts, n_antennas, n_users, alpha, exponent, efficiency, cluster, block
):
    layout = CLUSTERS[cluster]
    channel = ChannelParams(exponent, efficiency, alpha)
    rng = np.random.default_rng(seed)
    height = float(rng.uniform(0.01, 0.5))
    layouts = [
        AntennaVector(
            tuple(rng.random(n_antennas)), tuple(rng.random(n_antennas) * 2 * math.pi), height
        )
        for _ in range(n_layouts)
    ]
    users = [sample_user_vector(layout, rng) for _ in range(n_users)]
    upos = np.stack([user_positions(layout, u) for u in users])
    with mock.patch.object(outage, "_BLOCK", block):
        got = layout_outage(channel, *one_height(layouts), upos[..., 0], upos[..., 1])
    want = np.array([
        [
            probe_loop_oracle.conditional_system_outage(CellScenario(layout, a, channel), u)
            for u in users
        ]
        for a in layouts
    ])
    assert got.tobytes() == want.tobytes()
    if cluster == "one":
        assert not got.any()  # no interferer, no outage
    # one antenna alone, the kernel on a one-antenna slice, bit for bit
    scenarios = [CellScenario(layout, a, channel) for a in layouts[:2]]
    cases = [(s, u, m) for s in scenarios for u in users[:2] for m in range(n_antennas)]
    alone = np.array([antenna_outage_closed_form(*case) for case in cases])
    oracle = np.array([probe_loop_oracle.antenna_outage_closed_form(*case) for case in cases])
    assert alone.tobytes() == oracle.tobytes()


# layouts that take the kernel's skips: every antenna at the centre (each
# after the first repeats the one before), two centred antennas next to each
# other in angle order among antennas elsewhere, and two centred antennas
# that other antennas separate; then neighbours that share only x (0.5 at
# angles 0 and 1) or only y (0 at (0.5, 0) and the centre), which must not
# skip; alpha exactly 1 skips alpha * a0, its neighbour 1 - 2^-53 does not
REPEAT_LAYOUTS = (
    AntennaVector((0.0, 0.0, 0.0, 0.0), (0.0, 1.5, 3.0, 4.5), 0.05),
    AntennaVector((0.0, 0.0, 0.5, 0.7), (0.1, 0.2, 3.0, 5.0), 0.05),
    AntennaVector((0.0, 0.6, 0.0, 0.3), (0.1, 2.0, 3.0, 5.0), 0.05),
    AntennaVector((0.5, 0.5 / math.cos(1.0), 0.2), (0.0, 1.0, 3.0), 0.05),
    AntennaVector((0.5, 0.0, 0.3), (0.0, 0.1, 2.0), 0.05),
)


@pytest.mark.parametrize("alpha", [1.0, 1.0 - 2.0**-53])
@pytest.mark.parametrize("block", [1, 2, 3, outage._BLOCK])
@pytest.mark.parametrize("layouts", [[0], [1], [2], [3], [4], [0, 1, 2], [0, 0]])
def test_kernel_matches_probe_loop_on_repeated_antennas(alpha, block, layouts):
    # a step skips antenna m only where every layout in it repeats antenna
    # m - 1; each result still equals the scalar product form byte for byte,
    # on a batch (one layout per step) and on one user vector (all in one)
    layout = hex_cluster(7, 2.0)
    channel = ChannelParams(3.3, 1.0, alpha)
    chosen = [REPEAT_LAYOUTS[i] for i in layouts]
    rng = np.random.default_rng(41)
    users = [sample_user_vector(layout, rng) for _ in range(5)]
    upos = np.stack([user_positions(layout, u) for u in users])
    want = np.array([
        [
            probe_loop_oracle.conditional_system_outage(CellScenario(layout, a, channel), u)
            for u in users
        ]
        for a in chosen
    ])
    with mock.patch.object(outage, "_BLOCK", block):
        got = layout_outage(channel, *one_height(chosen), upos[..., 0], upos[..., 1])
        alone = layout_outage(channel, *one_height(chosen), upos[0, :, 0], upos[0, :, 1])
    assert got.tobytes() == want.tobytes()
    assert alone.tobytes() == want[:, 0].copy().tobytes()


# the one-user pass against the batch path on the same user as a batch of
# one: every layout's first `centred` antennas sit at the centre, so sorted
# by angle they may or may not neighbour each other; a batch _BLOCK of 1
# steps one layout at a time and skips more repeats than one of _BLOCK
@given(
    seed=st.integers(0, 2**32 - 1),
    n_layouts=st.integers(1, 9),
    n_antennas=st.integers(1, 5),
    centred=st.integers(0, 5),
    alpha=st.one_of(st.just(1.0), st.floats(0.0, 1.0)),
    exponent=st.sampled_from([2.0, 3.7, 4.0]),
    efficiency=st.one_of(st.just(1.0), st.floats(0.05, 6.0)),
    cluster=st.sampled_from(["one", "hex"]),
    block=st.sampled_from([1, outage._BLOCK]),
)
@settings(max_examples=200)
def test_one_user_pass_equals_a_batch_of_one(
    seed, n_layouts, n_antennas, centred, alpha, exponent, efficiency, cluster, block
):
    channel = ChannelParams(exponent, efficiency, alpha)
    rng = np.random.default_rng(seed)
    height = float(rng.uniform(0.01, 0.5))
    radii = rng.random((n_layouts, n_antennas))
    radii[:, :centred] = 0.0
    polar = antenna_polar(radii, rng.random((n_layouts, n_antennas)) * 2 * math.pi)
    ux, uy = sample_user_batch(CLUSTERS[cluster], 1, rng)
    one = layout_outage(channel, polar, height, ux[0], uy[0])
    with mock.patch.object(outage, "_BLOCK", block):
        batch = layout_outage(channel, polar, height, ux, uy)
    assert one.shape == (n_layouts,)
    assert one.tobytes() == batch[:, 0].copy().tobytes()


# 10 users in blocks of _BLOCK: a full block steps one layout at a time, a
# partial last block of r users _BLOCK // r, so 4 steps 1 then 2 (the last
# of 9 layouts alone), 8 steps 1 then 4, 9 steps 1 then all 9, 30 steps 3
# and 2048 more than the 9 layouts
@pytest.mark.parametrize("block", [1, 4, 8, 9, 30, 2048])
def test_layout_steps_match_single_layout_calls(block):
    channel = ChannelParams(3.3, 1.5, 0.7)
    rng = np.random.default_rng(21)
    height = float(rng.uniform(0.01, 0.5))
    layouts = [
        AntennaVector(tuple(rng.random(4)), tuple(rng.random(4) * 2 * math.pi), height)
        for _ in range(9)
    ]
    ux, uy = sample_user_batch(hex_cluster(7, 2.0), 10, rng)
    with mock.patch.object(outage, "_BLOCK", block):
        stacked = layout_outage(channel, *one_height(layouts), ux, uy)
    alone = [layout_outage(channel, *one_height([a]), ux, uy)[0] for a in layouts]
    assert stacked.tobytes() == np.array(alone).tobytes()


@pytest.mark.parametrize("antenna", [-1, 4])
def test_antenna_index_out_of_range_rejected(antenna):
    # an empty slice would score 1.0, and -1 would score the last antenna
    scenario = seven_cell_scenario()
    users = sample_user_vector(scenario.layout, np.random.default_rng(1))
    with pytest.raises(ConfigError, match="out of range"):
        antenna_outage_closed_form(scenario, users, antenna)


@pytest.mark.parametrize("sizes", [(1, 1, 1, 1), (7, 7, 49, 49), (43008, 43008, 43008, 43008), (511, 513, 1, 4096)])
def test_staggered_buffers_sit_a_quarter_page_apart(sizes):
    # each buffer starts 1024 bytes further past a page boundary than the one
    # before, and none overlaps the next
    buffers = outage._staggered(*sizes)
    assert [len(b) for b in buffers] == list(sizes)
    starts = [b.ctypes.data for b in buffers]
    assert [a % 4096 for a in starts] == [1024 * k for k in range(len(sizes))]
    assert all(a + 8 * n <= b for a, n, b in zip(starts, sizes, starts[1:]))
    assert all(b.base is buffers[0].base for b in buffers)


def test_kernel_memory_stays_per_block():
    # 1e5 users x 7 cells: the output is 0.8 MB, one whole-batch
    # temporary 5.6 MB; the blocks keep the rest cache-sized. One buffer
    # pair per call for the block's users and one for the rates, cut from
    # one allocation, peaks at 2,257,291 bytes; the bound is 2,237,315 (the
    # peak before the cut's 20 kB of page padding) plus 10%
    layout = hex_cluster(7, 2.0)
    ux, uy = sample_user_batch(layout, 100_000, np.random.default_rng(3))
    tracemalloc.start()
    try:
        layout_outage(ChannelParams(2.0), *one_height([symmetric_circle(4, 0.5)]), ux, uy)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.46e6


def test_expected_outage_matches_scalar_loop():
    # the vectorized batch engine must agree with the one-user closed form
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


def test_expected_outage_deterministic_and_worker_invariant():
    scenario = seven_cell_scenario()
    a = expected_outage(scenario, 500, np.random.default_rng(4))
    b = expected_outage(scenario, 500, np.random.default_rng(4))
    assert a == b
    c = expected_outage(scenario, 500, np.random.default_rng(4), workers=4)
    assert c == a


def test_expected_outage_common_random_numbers():
    # same seed, different antennas: identical user draws, so the difference
    # between two layouts is exactly the integrand difference
    scenario = seven_cell_scenario()
    near = expected_outage(replace(scenario, antennas=symmetric_circle(4, 0.42)), 300,
                           np.random.default_rng(8))
    far = expected_outage(replace(scenario, antennas=symmetric_circle(4, 0.9)), 300,
                          np.random.default_rng(8))
    assert near.value != far.value  # different layouts actually evaluated


def test_expected_outage_scales_with_alpha():
    # fewer active interferers never hurt, and alpha = 0 means no outage
    values = [
        expected_outage(seven_cell_scenario(alpha=a), 500, np.random.default_rng(11)).value
        for a in (0.0, 0.3, 0.75, 1.0)
    ]
    assert values[0] == 0.0
    assert all(a < b for a, b in zip(values, values[1:]))
