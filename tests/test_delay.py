"""Root solves and delay-violation bounds for the priority system.

Frozen phi* values come from independent scans: a 1e-6-step sign-change
scan refined by bisection on the raw root function, written out here as
constants so a regression in either the energies or the solver shows up as
a numeric drift, not just a changed shape.
"""
import math
from fractions import Fraction

import pytest

from dasqos.delay import (
    PrioritySystem,
    delay_decay_rate,
    delay_violation_probability,
    four_flow_delay,
    priority_service_energy,
    solve_phi_star,
)
from dasqos.energy import eval_energy, ExactPoisson
from dasqos.errors import ConfigError, NoRootError, StabilityError
from dasqos.traffic import (
    DeterministicUnit,
    GenericRenewal,
    MarkovFluidRenewal,
    Poisson,
    TrafficFlow,
    TruncatedGeometric,
)


def single_poisson(rate: float) -> PrioritySystem:
    return PrioritySystem((TrafficFlow(1, Poisson(rate), DeterministicUnit()),))


def two_flow(lam_v=0.2, lam_d=0.6, p=0.1, L=4, mode="gaussian") -> PrioritySystem:
    return PrioritySystem(
        (
            TrafficFlow(1, Poisson(lam_v), DeterministicUnit(), "voice"),
            TrafficFlow(2, Poisson(lam_d), TruncatedGeometric(p, L), "data"),
        ),
        higher_priority_mode=mode,
    )


def raw_root_fn(system: PrioritySystem, priority: int):
    from dasqos.delay import flow_arrival_energy

    index = system.flow_index(priority)
    energy = flow_arrival_energy(system, index)
    return lambda phi: eval_energy(energy, phi) + priority_service_energy(
        system, index, phi
    )


def test_unit_service_energy_is_linear():
    sys1 = single_poisson(0.5)
    for phi in (0.1, 0.7, 2.3):
        # single flow, one slot per packet: energy at -phi is exactly -phi
        assert priority_service_energy(sys1, 0, phi) == pytest.approx(-phi, rel=1e-15)


def test_no_higher_flows_equals_own_quadratic():
    sys2 = two_flow(lam_v=1e-9)
    f = raw_root_fn(sys2, 2)
    mu_y, var_y = 1.111, None  # mean pinned by the service moments test
    own = lambda phi: -phi / 1.111 + phi * phi * 0.12267900000000013 / (2 * 1.111**3)
    for phi in (0.2, 0.5, 1.0):
        got = priority_service_energy(sys2, 1, phi)
        # lam_v=1e-9 leaves a vanishing voice term
        assert got == pytest.approx(own(phi), abs=1e-8)


def test_service_energy_two_implementations_agree():
    # independent re-statement of the composition: own quadratic at -phi
    # plus each higher flow's exact Poisson energy at +phi/mu + phi^2 s2/2mu^3
    sys2 = two_flow(mode="exact_poisson")
    phi = 0.5
    mu_y = (1 - 0.1**4) / 0.9
    var_y = (0.1 - 7 * 0.1**4 + 7 * 0.1**5 - 0.1**8) / 0.81
    hat = phi / mu_y + phi * phi * var_y / (2 * mu_y**3)
    expected = -phi / mu_y + phi * phi * var_y / (2 * mu_y**3) + 0.2 * (
        math.exp(hat) - 1.0
    )
    assert priority_service_energy(sys2, 1, phi) == pytest.approx(expected, rel=1e-12)


def test_exact_poisson_mode_rejects_wrong_flows():
    bad = PrioritySystem(
        (
            TrafficFlow(1, Poisson(0.2), TruncatedGeometric(0.1, 4)),
            TrafficFlow(2, Poisson(0.6), DeterministicUnit()),
        ),
        higher_priority_mode="exact_poisson",
    )
    with pytest.raises(ConfigError):
        priority_service_energy(bad, 1, 0.5)


def test_phi_star_single_poisson_oracle():
    # root of 0.5(e^phi - 1) = phi, bisected independently to 1e-13
    assert solve_phi_star(single_poisson(0.5), 1) == pytest.approx(
        1.2564312086261697, abs=1e-9
    )
    # root of 0.1(e^phi - 1) = phi, same independent bisection
    assert solve_phi_star(single_poisson(0.1), 1) == pytest.approx(
        3.61495042708753, abs=1e-9
    )


def test_phi_star_residual_and_uniqueness():
    for system, priority in [
        (single_poisson(0.5), 1),
        (two_flow(), 2),
        (two_flow(mode="exact_poisson"), 2),
        (two_flow(), 1),
    ]:
        phi = solve_phi_star(system, priority)
        f = raw_root_fn(system, priority)
        assert abs(f(phi)) < 1e-10
        # exactly one sign change on a dense scan of the bracket
        grid = [phi * k / 400 for k in range(1, 801)]
        signs = [f(x) >= 0 for x in grid]
        flips = sum(a != b for a, b in zip(signs, signs[1:]))
        assert flips == 1


def test_phi_star_two_flow_frozen_values():
    assert solve_phi_star(two_flow(), 2) == pytest.approx(0.258551, abs=2e-6)
    assert solve_phi_star(two_flow(mode="exact_poisson"), 2) == pytest.approx(
        0.255035, abs=2e-6
    )
    assert solve_phi_star(two_flow(), 1) == pytest.approx(2.660399, abs=2e-6)


def test_modes_differ_under_five_percent():
    g = solve_phi_star(two_flow(), 2)
    e = solve_phi_star(two_flow(mode="exact_poisson"), 2)
    assert abs(g - e) / e < 0.05


def test_phi_star_shrinks_toward_stability_boundary():
    # load -> 1 from below: root -> 0
    roots = [solve_phi_star(single_poisson(lam), 1) for lam in (0.5, 0.8, 0.95, 0.99)]
    assert all(a > b for a, b in zip(roots, roots[1:]))
    assert roots[-1] < 0.025


@pytest.mark.parametrize("gap, rel", [(1e-3, 1e-9), (1e-6, 1e-9), (2e-9, 1e-6)])
def test_phi_star_relative_accuracy_near_unit_load(gap, rel):
    # lam (e^phi - 1) = phi is sum_{k>=1} phi^k / (k+1)! = (1 - lam) / lam,
    # a series without cancellation; bisect it in exact rationals. The
    # series' tail past k = 12 is below 1e-30 of its value for phi < 0.01.
    lam = 1.0 - gap
    target = (1 - Fraction(lam)) / Fraction(lam)
    terms = [math.factorial(k + 1) for k in range(1, 13)]
    lo, hi = Fraction(0), Fraction(1, 100)
    for _ in range(90):
        mid = (lo + hi) / 2
        series = sum(mid**k / f for k, f in enumerate(terms, start=1))
        lo, hi = (mid, hi) if series < target else (lo, mid)
    want = float(lo)
    assert solve_phi_star(single_poisson(lam), 1) == pytest.approx(want, rel=rel)


def test_unstable_system_raises():
    with pytest.raises(StabilityError):
        solve_phi_star(single_poisson(1.0), 1)
    with pytest.raises(StabilityError):
        solve_phi_star(two_flow(lam_v=0.4, lam_d=0.6), 2)  # load 0.4 + 0.6*1.111


def test_stability_ignores_lower_priority():
    # voice only competes with itself: overloaded data must not block it
    system = two_flow(lam_v=0.2, lam_d=0.95)
    assert solve_phi_star(system, 1) > 0


def test_no_root_when_tail_decays_faster_than_exponential():
    # deterministic arrivals, deterministic service: the delay never exceeds
    # a bound, the root function stays negative and the cap reports it
    system = PrioritySystem(
        (TrafficFlow(1, GenericRenewal(2.0, 0.0), DeterministicUnit()),)
    )
    with pytest.raises(NoRootError):
        solve_phi_star(system, 1)


def test_violation_probability_basics():
    system = single_poisson(0.5)
    assert delay_violation_probability(system, 1, 0.0) == 1.0
    p5 = delay_violation_probability(system, 1, 5.0)
    # Lambda(phi*) = phi* for unit-rate... no: 0.5(e^phi*-1) = phi* at the root
    assert p5 == pytest.approx(math.exp(-1.2564312086261697 * 5.0), rel=1e-6)
    with pytest.raises(ConfigError):
        delay_violation_probability(system, 1, -1.0)


def test_log_linear_in_threshold():
    system = two_flow()
    probs = [delay_violation_probability(system, 2, d) for d in range(0, 40, 4)]
    logs = [math.log(p) for p in probs]
    slopes = [b - a for a, b in zip(logs, logs[1:])]
    for s in slopes[1:]:
        assert s == pytest.approx(slopes[0], abs=1e-12)
    assert delay_decay_rate(two_flow(), 2) == pytest.approx(0.177031, abs=2e-6)


def test_monotone_in_every_load_knob():
    d_th = 10.0
    base = dict(lam_v=0.2, lam_d=0.6, p=0.1, L=4)

    def prob(**kw):
        return delay_violation_probability(two_flow(**{**base, **kw}), 2, d_th)

    # grids stay inside the stability region (0.2 + 0.6 mu_y < 1)
    for grid, key in [
        ((0.05, 0.1, 0.2, 0.3), "lam_v"),
        ((0.3, 0.45, 0.6, 0.7), "lam_d"),
        ((0.02, 0.05, 0.1, 0.2), "p"),
        ((1, 2, 4, 8), "L"),
    ]:
        vals = [prob(**{key: g}) for g in grid]
        assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:])), (key, vals)


def test_delay_loss_tradeoff_in_L():
    # longer retry budgets trade delay for loss
    d_th = 10.0
    viol = []
    loss = []
    for L in (1, 2, 4, 8):
        viol.append(delay_violation_probability(two_flow(p=0.2, L=L), 2, d_th))
        loss.append(0.2**L)
    assert all(a <= b + 1e-15 for a, b in zip(viol, viol[1:]))
    assert all(a > b for a, b in zip(loss, loss[1:]))


def four_flow(lam_v=0.2, lam_b1=0.3, lam_b2=0.2, pi_b1=0.7, lam_d=0.2, p=0.1, L=4):
    return PrioritySystem(
        (
            TrafficFlow(1, Poisson(lam_v), DeterministicUnit(), "voice"),
            TrafficFlow(2, MarkovFluidRenewal(lam_b1, lam_b2, pi_b1, 1 - pi_b1),
                        DeterministicUnit(), "streamA"),
            TrafficFlow(3, MarkovFluidRenewal(lam_b2, lam_b1, 1 - pi_b1, pi_b1),
                        DeterministicUnit(), "streamB"),
            TrafficFlow(4, Poisson(lam_d), TruncatedGeometric(p, L), "data"),
        )
    )


def test_four_flow_shape():
    system = four_flow()
    probs = [delay_violation_probability(system, 4, d) for d in (5, 10, 20, 30)]
    assert all(a > b for a, b in zip(probs, probs[1:]))
    logs = [math.log(p) for p in probs]
    assert logs[1] - logs[0] == pytest.approx((logs[3] - logs[2]) / 2, rel=1e-9)
    table = four_flow_delay(system, 10.0)
    assert set(table) == {1, 2, 3, 4}
    # deeper priority means more traffic in the way
    assert table[1] <= table[2] <= table[4]


def test_four_flow_reduces_to_two_flow():
    degenerate = four_flow(lam_b1=1e-9, lam_b2=1e-9)
    full = two_flow(lam_v=0.2, lam_d=0.2)
    a = delay_violation_probability(degenerate, 4, 15.0)
    b = delay_violation_probability(full, 2, 15.0)
    assert a == pytest.approx(b, rel=1e-5)


def test_four_flow_monotone_in_voice_rate():
    probs = [
        delay_violation_probability(four_flow(lam_v=v), 4, 10.0)
        for v in (0.05, 0.125, 0.2)
    ]
    assert probs[0] < probs[1] < probs[2]
