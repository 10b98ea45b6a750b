"""The service energy as it stood before its constants were hoisted.

priority_service_energy here recomputes every moment of the tagged flow and
of each higher-priority flow on each evaluation. delay.service_energy takes
them once per solve; its function must return the same bits at every phi,
and PrioritySystem.check_higher_flows must raise the same ConfigError for a
flow that exact_poisson mode rejects.
"""
from __future__ import annotations

from dasqos.delay import PrioritySystem
from dasqos.energy import expm1
from dasqos.errors import ConfigError
from dasqos.traffic import Poisson, arrival_moments, arrival_rate, service_moments


def priority_service_energy(system: PrioritySystem, index: int, phi: float) -> float:
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
