"""Analysis helpers that no engine or CLI path calls, kept as test oracles.

service_pgf is the slot-count generating function E[z^y]; an exact
discrete-time priority-queue oracle for the delay curves would take it as
input. four_flow_delay tabulates the violation probability of every flow
at one delay bound.
"""
from __future__ import annotations

from dasqos.delay import PrioritySystem, delay_violation_probability
from dasqos.traffic import DeterministicUnit, ServiceModel, TruncatedGeometric


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


def four_flow_delay(
    system: PrioritySystem, delay_bound: float
) -> dict[int, float]:
    """Violation probability per priority for every flow in the system."""
    return {
        f.priority: delay_violation_probability(system, f.priority, delay_bound)
        for f in system.flows
    }
