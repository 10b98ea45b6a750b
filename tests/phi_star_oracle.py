"""The phi* solver as it stood before its overflow pass was folded into
the bisection.

solve_phi_star here grows the bracket, then, when the energy overflowed at
its upper end, halves that end back until the midpoint is finite, then
bisects, and after the bisection evaluates the root function again at both
ends for the secant polish. A bisection that runs out returns its last
midpoint. delay.solve_phi_star keeps each end's value instead and raises
NoRootError where this one runs out; everywhere else it must return the
same root bit for bit and raise the same errors.
"""
from __future__ import annotations

import math

from dasqos.delay import (
    BRACKET_CAP,
    MAX_BISECTIONS,
    ROOT_TOL,
    PrioritySystem,
    service_energy,
)
from dasqos.energy import arrival_energy, eval_energy
from dasqos.errors import NoRootError


def solve_phi_star(system: PrioritySystem, priority: int) -> float:
    """Unique positive root of arrival energy + service energy for one flow.

    The combined function is convex, zero at the origin, and has negative
    slope there exactly when the flow is stable, so a sign change brackets
    one root. Brackets grow by doubling from (0, 1]; hitting BRACKET_CAP
    without a sign change raises NoRootError.
    """
    index = system.flow_index(priority)
    system.check_stability(index)
    energy = arrival_energy(system.flows[index].arrival)
    service = service_energy(system, index)

    def f(phi: float) -> float:
        return eval_energy(energy, phi) + service(phi)

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
