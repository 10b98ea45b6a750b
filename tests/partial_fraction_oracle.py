"""The paper's partial-fraction outage, kept as a test oracle.

Z = K * interference - signal has the rational two-sided Laplace transform
scale * prod_n (s + pole_n)^(-mult_n); its partial-fraction expansion gives
the outage P(Z > 0) as the mass of the right-sided terms. The production
code evaluates the equivalent product form instead (dasqos.outage); this
module is the independent check on it. Interferer poles closer than
merge_tol (relative) are folded into one repeated pole; nearly coincident
but unmerged poles make the residues cancel badly, so callers compare on
well-separated geometries only.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PartialFractionExpansion:
    """scale * sum_n sum_j residues[n][j-1] / (s + pole_n)^j.

    poles[0] is the signal pole (negative); the rest come from interferers
    and are positive.
    """

    scale: float
    poles: tuple[tuple[float, int], ...]
    residues: tuple[tuple[float, ...], ...]

    def reconstruct(self, s: complex) -> complex:
        total = 0.0 + 0.0j
        for (c, _), coeffs in zip(self.poles, self.residues):
            for j, b in enumerate(coeffs, start=1):
                total += b / (s + c) ** j
        return self.scale * total

    def positive_tail_mass(self) -> float:
        """P(Z > 0): integrate the right-sided terms over (0, inf)."""
        total = 0.0
        for (c, _), coeffs in zip(self.poles, self.residues):
            if c <= 0.0:
                continue  # signal pole inverts to the negative axis
            total += sum(b / c**j for j, b in enumerate(coeffs, start=1))
        return self.scale * total


def _merged_poles(q: np.ndarray, merge_tol: float) -> list[tuple[float, int]]:
    groups: list[list[float]] = []
    for v in map(float, np.sort(q)):
        if groups and v - groups[-1][-1] <= merge_tol * v:
            groups[-1].append(v)
        else:
            groups.append([v])
    return [(sum(g) / len(g), len(g)) for g in groups]


def outage_expansion(
    signal_rate: float, interferer_rates, sir_threshold: float, merge_tol: float = 1e-9
) -> PartialFractionExpansion:
    """Expansion for one antenna: signal rate d0^exponent, interferer rates
    d_i^exponent (at least one), threshold K."""
    rates = np.asarray(interferer_rates, dtype=float)
    assert rates.size >= 1 and signal_rate > 0.0 and np.all(rates > 0.0)
    poles = [(-float(signal_rate), 1)] + _merged_poles(rates / sir_threshold, merge_tol)

    # scale = -signal_rate * prod(q_i) over all interferers (with multiplicity)
    scale = -float(signal_rate)
    for c, mult in poles[1:]:
        scale *= c**mult

    residues: list[tuple[float, ...]] = []
    for n, (c_n, k_n) in enumerate(poles):
        s0 = -c_n
        others = [(c, k) for i, (c, k) in enumerate(poles) if i != n]
        # G(s) = prod_others (s + c)^(-k); successive derivatives at s0 via
        # G' = G * psi with psi the log-derivative.
        g = [1.0]
        for c, kk in others:
            g[0] /= (s0 + c) ** kk
        psi = [
            sum(kk * (-1.0) ** (t + 1) * math.factorial(t) / (s0 + c) ** (t + 1)
                for c, kk in others)
            for t in range(k_n - 1)
        ]
        for r in range(k_n - 1):
            g.append(sum(math.comb(r, j) * g[j] * psi[r - j] for j in range(r + 1)))
        residues.append(
            tuple(g[k_n - j] / math.factorial(k_n - j) for j in range(1, k_n + 1))
        )
    return PartialFractionExpansion(scale, tuple(poles), tuple(residues))
