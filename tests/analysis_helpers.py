"""Analysis helpers that no engine or CLI path calls, kept as test oracles.

service_pgf is the slot-count generating function E[z^y]; an exact
discrete-time priority-queue oracle for the delay curves would take it as
input. delay_violation_probability is the analytic tail P(delay > d) of
one flow, the probability `dasqos delay` writes, and four_flow_delay
tabulates it for every flow at one delay bound.

ExactBinomial is the exact energy of per-slot Bernoulli arrivals, which
the analysis never builds; binomial_energy_gap measures how far the
moment-based approximation the analysis uses strays from it (criterion 1).

compare_with_analysis fits a simulated delay tail against an analytic
curve (criterion 3), and mean_delay is the mean recorded delay of one
flow's simulator tallies.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from dasqos.delay import PrioritySystem, delay_decay_rate
from dasqos.energy import eval_energy, expm1
from dasqos.errors import ConfigError
from dasqos.slotsim import FlowStats, SimConfig, SimStats, simulate
from dasqos.traffic import DeterministicUnit, GenericRenewal, ServiceModel, TruncatedGeometric

GAP_GRID = 1000  # points of (0, phi_max] at which binomial_energy_gap compares
MIN_TAIL_EVENTS = 30  # fewest tail departures a fitted threshold may rest on


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


def delay_violation_probability(
    system: PrioritySystem, priority: int, delay_bound: float
) -> float:
    """P(queueing delay of the tagged flow exceeds delay_bound >= 0 slots),
    exp(-rate * delay_bound) from one root solve per call; cli.cmd_delay
    computes the same from one solve per flow, and checks the bound."""
    return math.exp(-delay_decay_rate(system, priority) * delay_bound)


def four_flow_delay(
    system: PrioritySystem, delay_bound: float
) -> dict[int, float]:
    """Violation probability per priority for every flow in the system."""
    return {
        f.priority: delay_violation_probability(system, f.priority, delay_bound)
        for f in system.flows
    }


@dataclass(frozen=True)
class ExactBinomial:
    """Per-slot Bernoulli counting: one arrival per slot with probability 1 - q.

    Energy log(q + (1 - q) e^phi); q is the idle probability.
    """

    q: float

    def __post_init__(self) -> None:
        if not 0.0 < self.q < 1.0:
            raise ConfigError(f"idle probability q must be in (0, 1), got {self.q}")

    def energy(self, phi: float) -> float:
        return math.log1p((1.0 - self.q) * expm1(phi))


def binomial_asymptotic(q: float) -> GenericRenewal:
    """Moment-based counterpart of ExactBinomial.

    Inter-arrival slots are geometric with success probability 1 - q:
    mean 1/(1-q), variance q/(1-q)^2. The resulting energy simplifies to
    (1-q) phi (1 + q phi / 2).
    """
    if not 0.0 < q < 1.0:
        raise ConfigError(f"idle probability q must be in (0, 1), got {q}")
    return GenericRenewal(1.0 / (1.0 - q), q / (1.0 - q) ** 2)


def binomial_energy_gap(q: float, phi_max: float) -> float:
    """Max relative deviation |asymptotic - exact| / exact over (0, phi_max].

    Both energies vanish at phi = 0 with matching first and second
    derivatives, so the ratio is well behaved near the origin; the
    GAP_GRID-point grid starts strictly above zero.
    """
    if not phi_max > 0.0:
        raise ConfigError(f"phi_max must be > 0, got {phi_max}")
    exact = ExactBinomial(q)
    approx = binomial_asymptotic(q)
    worst = 0.0
    for k in range(1, GAP_GRID + 1):
        phi = phi_max * k / GAP_GRID
        e = exact.energy(phi)
        a = eval_energy(approx, phi)
        worst = max(worst, abs(a - e) / e)
    return worst


def mean_delay(fs: FlowStats) -> float:
    """Mean recorded delay over departures (NaN with none)."""
    if not fs.departures:
        return math.nan
    total = sum(d * c for d, c in enumerate(fs.delay_counts))
    return total / fs.departures


@dataclass(frozen=True)
class ComparisonReport:
    """Fit of the empirical delay tail against an analytic curve."""

    thresholds: tuple[int, ...]
    log10_gap: tuple[float, ...]
    excluded: tuple[int, ...]
    empirical_slope: float
    analytic_slope: float

    @property
    def slope_ratio(self) -> float:
        return self.empirical_slope / self.analytic_slope


def compare_with_analysis(
    cfg: SimConfig,
    priority: int,
    analytic: dict[int, float],
    stats: SimStats | None = None,
) -> ComparisonReport:
    """Simulate (unless stats is given) and fit the flow's log tail.

    Thresholds whose empirical tail holds fewer than MIN_TAIL_EVENTS
    departures are dropped from the gap and slope fits and reported in
    excluded. Slopes are least-squares fits of log10 CCDF versus threshold,
    so the ratio is meaningful even when the analytic curve is not exactly
    exponential.
    """
    if stats is None:
        stats = simulate(cfg)
    fs = stats.flows[cfg.system.flow_index(priority)]
    kept: list[int] = []
    dropped: list[int] = []
    emp: list[float] = []
    ana: list[float] = []
    gaps: list[float] = []
    for d in sorted(analytic):
        p_hat = fs.ccdf(int(d))
        events = p_hat * fs.departures if fs.departures else 0.0
        if events < MIN_TAIL_EVENTS or analytic[d] <= 0.0:
            dropped.append(int(d))
            continue
        kept.append(int(d))
        emp.append(p_hat)
        ana.append(analytic[d])
        gaps.append(math.log10(p_hat) - math.log10(analytic[d]))
    if len(kept) < 2:
        raise ConfigError(
            f"only {len(kept)} thresholds have >= {MIN_TAIL_EVENTS} tail "
            "events; cannot fit a slope"
        )
    x = np.asarray(kept, dtype=float)
    slope_emp = float(np.polyfit(x, np.log10(emp), 1)[0])
    slope_ana = float(np.polyfit(x, np.log10(ana), 1)[0])
    return ComparisonReport(tuple(kept), tuple(gaps), tuple(dropped), slope_emp, slope_ana)
