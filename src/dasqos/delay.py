"""Delay-bound violation for prioritized flows sharing one server.

Each flow n sees the server through the lens of strict priority: flows
above it steal service slots, flows below are invisible. The analysis
combines the flow's arrival energy with a priority-adjusted service energy;
the violation exponent is the unique positive root phi* of their sum, and

    P(delay > d) ~ exp(-arrival_energy(phi*) * d).

Service slots are counted in units of the tagged flow's packets, so the
higher-priority traffic enters through its packet-count generating energy
evaluated at the slot-usage argument. The curves are checked against the
slot simulator by the tail fit under tests/.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Literal

from .energy import arrival_energy, eval_energy, expm1
from .errors import ConfigError, NoRootError, StabilityError
from .traffic import (
    Poisson,
    TrafficFlow,
    arrival_moments,
    arrival_rate,
    service_moments,
)

BRACKET_CAP = 64.0
ROOT_TOL = 1e-12
MAX_BISECTIONS = 200

HigherPriorityMode = Literal["gaussian", "exact_poisson"]


@dataclass(frozen=True)
class PrioritySystem:
    """Flows sharing a server under preemptive-resume strict priority.

    flows is non-empty and their priorities are distinct (the scenario
    parser rejects an empty list and a repeated priority); smaller numbers
    are served first.
    higher_priority_mode picks how flows above the tagged one enter its
    service energy: "gaussian" matches their slot-usage mean and variance,
    "exact_poisson" keeps the exact Poisson counting energy and therefore
    requires those flows to be Poisson with single-attempt service, which
    check_higher_flows checks.
    """

    flows: tuple[TrafficFlow, ...]
    higher_priority_mode: HigherPriorityMode = "gaussian"

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "flows", tuple(sorted(self.flows, key=lambda f: f.priority))
        )

    def flow_index(self, priority: int) -> int:
        for i, f in enumerate(self.flows):
            if f.priority == priority:
                return i
        raise ConfigError(f"no flow with priority {priority}")

    def check_higher_flows(self, index: int) -> None:
        """Raise unless the mode can take every flow above flows[index]."""
        if self.higher_priority_mode == "exact_poisson" and any(
            not isinstance(f.arrival, Poisson) or service_moments(f.service) != (1.0, 0.0)
            for f in self.flows[:index]
        ):
            raise ConfigError(
                "exact_poisson mode needs Poisson arrivals and "
                "single-attempt service on every higher-priority flow"
            )

    def effective_load(self, upto: int | None = None) -> float:
        """Sum of packet-rate * mean-attempts over flows, optionally truncated.

        upto is an index bound (exclusive of lower-priority flows): load of
        flows[0..upto]. The server serves one attempt per slot, so a load
        under 1 is stable.
        """
        flows = self.flows if upto is None else self.flows[: upto + 1]
        return sum(
            arrival_rate(f.arrival) * service_moments(f.service)[0] for f in flows
        )

    def check_stability(self, index: int) -> None:
        load = self.effective_load(index)
        if load >= 1.0:
            raise StabilityError(
                f"flows 0..{index} carry load {load:.6g} >= 1; "
                "no positive decay exponent exists"
            )


def service_energy(system: PrioritySystem, index: int) -> Callable[[float], float]:
    """Energy of the service process seen by flows[index], as a function of phi.

    The function evaluates the service energy at -phi. The tagged flow's own
    departures contribute the renewal quadratic at -phi. Each higher-priority
    flow j steals the slots of its busy periods, which enter through flow
    j's slot-usage energy at

        phi_hat = phi/mu_y + phi^2 var_y/(2 mu_y^3),

    the positive rate at which withheld slots cost the tagged flow packets.
    Every such term is positive, so priority load above the flow always
    shrinks its decay exponent. The moments of every flow are taken once
    here, not on each evaluation. In exact_poisson mode the higher flows are
    taken as system.check_higher_flows(index) accepts them.
    """
    mu_y, var_y = service_moments(system.flows[index].service)
    scale = 2.0 * mu_y**3
    exact = system.higher_priority_mode == "exact_poisson"
    terms = []
    for other in system.flows[:index]:
        if exact:
            terms.append(arrival_rate(other.arrival))
        else:
            mu_x, var_x = arrival_moments(other.arrival)
            mu_s, var_s = service_moments(other.service)
            # slot usage per unit time: mean mu_s/mu_x, variance by renewal CLT;
            # mu_s^2 var_x alone can overflow, so it is then divided first
            var = mu_s * mu_s * var_x / mu_x**3
            if var == math.inf:
                var = mu_s * mu_s * (var_x / mu_x**3)
            terms.append((mu_s / mu_x, var + var_s / mu_x))

    def energy(phi: float) -> float:
        quad = phi * phi * var_y / scale
        total = -phi / mu_y + quad
        hat = phi / mu_y + quad
        if exact:
            for rate in terms:
                total += rate * expm1(hat)
        else:
            for mean, var in terms:
                total += hat * mean + hat * hat * var / 2.0
        return total

    return energy


def solve_phi_star(system: PrioritySystem, priority: int) -> float:
    """Unique positive root of arrival energy + service energy for one flow.

    The combined function is convex, zero at the origin, and has negative
    slope there exactly when the flow is stable, so a sign change brackets
    one root. Brackets grow by doubling from (0, 1]; the bisection keeps
    each end's value, and an end whose energy overflowed is not negative,
    so it moves down like any other. No sign change up to BRACKET_CAP, or a
    root the bisection cannot reach in MAX_BISECTIONS steps, raises NoRootError.
    """
    index = system.flow_index(priority)
    system.check_stability(index)
    energy = arrival_energy(system.flows[index].arrival)
    service = service_energy(system, index)

    def f(phi: float) -> float:
        return eval_energy(energy, phi) + service(phi)

    # f(0) = 0; a bisection that converges has moved lo off 0
    lo, f_lo = 0.0, 0.0
    hi, f_hi = 1.0, f(1.0)
    while f_hi < 0.0:
        lo, f_lo = hi, f_hi
        hi *= 2.0
        if hi > BRACKET_CAP:
            raise NoRootError(
                f"no sign change up to phi = {BRACKET_CAP:g}; decay exponent out of range"
            )
        f_hi = f(hi)
    for _ in range(MAX_BISECTIONS):
        if hi - lo <= ROOT_TOL * hi:
            break
        mid = (lo + hi) / 2.0
        if (f_mid := f(mid)) < 0.0:
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
    if hi - lo > ROOT_TOL * hi:
        raise NoRootError(
            f"{MAX_BISECTIONS} bisections left the root in ({lo:.3g}, {hi:.3g}]; "
            "decay exponent out of range"
        )
    root = (lo + hi) / 2.0
    # one secant polish, kept only if it stays bracketed and improves (f_hi = inf gives lo)
    if f_hi > f_lo:
        candidate = lo - f_lo * (hi - lo) / (f_hi - f_lo)
        if lo < candidate < hi and abs(f(candidate)) <= abs(f(root)):
            root = candidate
    return root


def delay_decay_rate(system: PrioritySystem, priority: int) -> float:
    """Arrival energy at phi*: the per-slot exponential decay of the delay tail."""
    index = system.flow_index(priority)
    phi_star = solve_phi_star(system, priority)
    return eval_energy(arrival_energy(system.flows[index].arrival), phi_star)
