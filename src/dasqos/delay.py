"""Delay-bound violation for prioritized flows sharing one server.

Each flow n sees the server through the lens of strict priority: flows
above it steal service slots, flows below are invisible. The analysis
combines the flow's arrival energy with a priority-adjusted service energy;
the violation exponent is the unique positive root phi* of their sum, and

    P(delay > d) ~ exp(-arrival_energy(phi*) * d).

Service slots are counted in units of the tagged flow's packets, so the
higher-priority traffic enters through its packet-count generating energy
evaluated at the slot-usage argument.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .energy import EnergyFunction, arrival_energy, eval_energy, expm1
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


@dataclass(frozen=True)
class PrioritySystem:
    """Flows sharing a server under preemptive-resume strict priority.

    Priorities must be distinct; smaller numbers are served first.
    higher_priority_mode picks how flows above the tagged one enter its
    service energy: "gaussian" matches their slot-usage mean and variance,
    "exact_poisson" keeps the exact Poisson counting energy and therefore
    requires those flows to be Poisson with single-attempt service.
    """

    flows: tuple[TrafficFlow, ...]
    higher_priority_mode: str = "gaussian"

    def __post_init__(self) -> None:
        if not self.flows:
            raise ConfigError("a priority system needs at least one flow")
        priorities = [f.priority for f in self.flows]
        if len(set(priorities)) != len(priorities):
            raise ConfigError(f"duplicate priorities: {sorted(priorities)}")
        if self.higher_priority_mode not in ("gaussian", "exact_poisson"):
            raise ConfigError(
                f"unknown higher_priority_mode {self.higher_priority_mode!r}"
            )
        object.__setattr__(
            self, "flows", tuple(sorted(self.flows, key=lambda f: f.priority))
        )

    def flow_index(self, priority: int) -> int:
        for i, f in enumerate(self.flows):
            if f.priority == priority:
                return i
        raise ConfigError(f"no flow with priority {priority}")

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


def priority_service_energy(system: PrioritySystem, index: int, phi: float) -> float:
    """Energy of the service process seen by flows[index], evaluated at -phi.

    The tagged flow's own departures contribute the renewal quadratic at
    -phi. Each higher-priority flow j steals the slots of its busy periods,
    which enter through flow j's slot-usage energy at

        phi_hat = phi/mu_y + phi^2 var_y/(2 mu_y^3),

    the positive rate at which withheld slots cost the tagged flow packets.
    Every such term is positive, so priority load above the flow always
    shrinks its decay exponent.
    """
    flow = system.flows[index]
    mu_y, var_y = service_moments(flow.service)
    quad = phi * phi * var_y / (2.0 * mu_y**3)
    total = -phi / mu_y + quad
    hat = phi / mu_y + quad
    for other in system.flows[:index]:
        mu_x, var_x = arrival_moments(other.arrival)
        mu_s, var_s = service_moments(other.service)
        if system.higher_priority_mode == "exact_poisson":
            if not isinstance(other.arrival, Poisson) or (mu_s, var_s) != (1.0, 0.0):
                raise ConfigError(
                    "exact_poisson mode needs Poisson arrivals and "
                    "single-attempt service on every higher-priority flow"
                )
            total += arrival_rate(other.arrival) * expm1(hat)
        else:
            # slot usage per unit time: mean mu_s/mu_x, variance by renewal CLT
            mean = mu_s / mu_x
            var = mu_s * mu_s * var_x / mu_x**3 + var_s / mu_x
            total += hat * mean + hat * hat * var / 2.0
    return total


def flow_arrival_energy(system: PrioritySystem, index: int) -> EnergyFunction:
    """Arrival energy of flows[index]: exact for Poisson, asymptotic otherwise."""
    return arrival_energy(system.flows[index].arrival)


def solve_phi_star(system: PrioritySystem, priority: int) -> float:
    """Unique positive root of arrival energy + service energy for one flow.

    The combined function is convex, zero at the origin, and has negative
    slope there exactly when the flow is stable, so a sign change brackets
    one root. Brackets grow by doubling from (0, 1]; hitting BRACKET_CAP
    without a sign change raises NoRootError.
    """
    index = system.flow_index(priority)
    system.check_stability(index)
    energy = flow_arrival_energy(system, index)

    def f(phi: float) -> float:
        return eval_energy(energy, phi) + priority_service_energy(system, index, phi)

    lo, hi = 0.0, 1.0
    while f(hi) < 0.0:
        lo = hi
        hi *= 2.0
        if hi > BRACKET_CAP:
            raise NoRootError(
                f"no sign change up to phi = {BRACKET_CAP:g}; "
                "decay exponent out of range"
            )
    if math.isinf(f(hi)):
        # shrink back from an overflowed endpoint before bisecting
        while math.isinf(f((lo + hi) / 2.0)):
            hi = (lo + hi) / 2.0
    for _ in range(MAX_BISECTIONS):
        mid = (lo + hi) / 2.0
        if hi - lo <= ROOT_TOL * hi:
            break
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    root = (lo + hi) / 2.0
    # one secant polish; keep it only if it stays bracketed and improves
    f_lo, f_hi = f(lo), f(hi)
    if f_hi > f_lo and math.isfinite(f_hi):
        candidate = lo - f_lo * (hi - lo) / (f_hi - f_lo)
        if lo < candidate < hi and abs(f(candidate)) <= abs(f(root)):
            root = candidate
    return root


def delay_violation_probability(
    system: PrioritySystem, priority: int, delay_bound: float
) -> float:
    """P(queueing delay of the tagged flow exceeds delay_bound slots)."""
    if delay_bound < 0.0:
        raise ConfigError(f"delay bound must be >= 0, got {delay_bound}")
    return math.exp(-delay_decay_rate(system, priority) * delay_bound)


def delay_decay_rate(system: PrioritySystem, priority: int) -> float:
    """Arrival energy at phi*: the per-slot exponential decay of the delay tail."""
    index = system.flow_index(priority)
    phi_star = solve_phi_star(system, priority)
    return eval_energy(flow_arrival_energy(system, index), phi_star)


def four_flow_delay(
    system: PrioritySystem, delay_bound: float
) -> dict[int, float]:
    """Violation probability per priority for every flow in the system."""
    return {
        f.priority: delay_violation_probability(system, f.priority, delay_bound)
        for f in system.flows
    }
