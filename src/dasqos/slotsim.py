"""Slot-level simulation of the prioritized single-server uplink.

Packets arrive in continuous time from each flow's renewal process and
become eligible at the next slot boundary. Every slot the server takes the
head packet of the highest-priority nonempty queue; the attempt fails with
probability attempt_failure_prob, independently per slot. Single-attempt
flows depart either way (a failure is a loss); retrying flows keep the head
packet until success or max_attempts failures, with higher-priority packets
free to cut in between attempts.

Failure coins are pre-drawn indexed by slot, so an attempt's outcome
depends only on when it happens, not on queue history; together with a
fixed seed this makes runs bit-reproducible. The per-attempt probability
may be a plain number or the expected-outage output of the antenna engine;
the simulator does not care where it came from.
"""
from __future__ import annotations

import array
import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .traffic import (
    DeterministicUnit,
    TrafficFlow,
    TruncatedGeometric,
    arrival_rate,
    sample_interarrival,
    service_moments,
)

Z_95 = 1.959963984540054  # two-sided 95% normal quantile for the CCDF bands


@dataclass(frozen=True)
class SimConfig:
    flows: tuple[TrafficFlow, ...]
    attempt_failure_prob: float
    horizon: int
    warmup: int = 0
    seed: int = 0
    delay_convention: str = "sojourn"

    def __post_init__(self) -> None:
        if not 0.0 <= self.attempt_failure_prob <= 1.0:
            raise ConfigError(
                f"attempt failure probability must be in [0, 1], "
                f"got {self.attempt_failure_prob}"
            )
        if not self.horizon > self.warmup >= 0:
            raise ConfigError(
                f"need horizon > warmup >= 0, got {self.horizon}, {self.warmup}"
            )
        if self.delay_convention not in ("sojourn", "waiting"):
            raise ConfigError(
                f"delay convention must be sojourn or waiting, "
                f"got {self.delay_convention!r}"
            )
        priorities = [f.priority for f in self.flows]
        if len(set(priorities)) != len(priorities):
            raise ConfigError(f"duplicate priorities: {sorted(priorities)}")
        for f in self.flows:
            if (
                isinstance(f.service, TruncatedGeometric)
                and f.service.failure_prob != self.attempt_failure_prob
            ):
                raise ConfigError(
                    "per-attempt failure probability must match the retry "
                    f"model of flow {f.priority} "
                    f"({f.service.failure_prob} != {self.attempt_failure_prob})"
                )
        object.__setattr__(
            self, "flows", tuple(sorted(self.flows, key=lambda f: f.priority))
        )

    def effective_load(self) -> float:
        return sum(
            arrival_rate(f.arrival) * service_moments(f.service)[0]
            for f in self.flows
        )


@dataclass(frozen=True)
class FlowStats:
    """Post-warmup tallies for one flow.

    delay_counts[d] is the number of departures (served or lost) whose
    recorded delay was exactly d slots; area is the summed per-slot number
    of packets present, which divided by the window length is the mean
    queue length (head-of-line packet included).
    """

    priority: int
    arrived: int
    served: int
    lost: int
    delay_counts: tuple[int, ...]
    area: int
    window: int

    @property
    def departures(self) -> int:
        return self.served + self.lost

    @property
    def loss_rate(self) -> float:
        return self.lost / self.departures if self.departures else 0.0

    @property
    def mean_queue_length(self) -> float:
        return self.area / self.window

    @property
    def mean_delay(self) -> float:
        if not self.departures:
            return math.nan
        total = sum(d * c for d, c in enumerate(self.delay_counts))
        return total / self.departures

    def ccdf(self, threshold: int) -> float:
        """Empirical P(delay > threshold) over departures."""
        if not self.departures:
            return math.nan
        tail = sum(self.delay_counts[threshold + 1 :]) if threshold >= 0 else self.departures
        return tail / self.departures

    def ccdf_table(
        self, thresholds
    ) -> list[tuple[int, float, float, float, int]]:
        """Rows (threshold, p_hat, ci_low, ci_high, tail_events)."""
        rows = []
        for d in thresholds:
            p_hat = self.ccdf(int(d))
            n = self.departures
            half = Z_95 * math.sqrt(p_hat * (1.0 - p_hat) / n) if n else math.nan
            rows.append(
                (
                    int(d),
                    p_hat,
                    max(0.0, p_hat - half),
                    min(1.0, p_hat + half),
                    int(round(p_hat * n)) if n else 0,
                )
            )
        return rows


@dataclass(frozen=True)
class SimStats:
    flows: tuple[FlowStats, ...]
    horizon: int
    warmup: int
    delay_convention: str
    stable: bool

    def flow(self, priority: int) -> FlowStats:
        for fs in self.flows:
            if fs.priority == priority:
                return fs
        raise ConfigError(f"no flow with priority {priority}")


def _eligible_slots(flow: TrafficFlow, horizon: int, rng: np.random.Generator):
    """All arrival eligibility slots below horizon, as a list of ints.

    A packet landing inside slot s waits for boundary s+1; one landing
    exactly on a boundary (probability zero for the continuous models)
    waits out that slot too.
    """
    rate = arrival_rate(flow.arrival)
    times: list[np.ndarray] = []
    total = 0.0
    remaining = float(horizon)
    while remaining > 0.0:
        n = max(64, int(remaining * rate * 1.1) + 16)
        chunk = np.cumsum(sample_interarrival(flow.arrival, rng, n)) + total
        times.append(chunk)
        total = float(chunk[-1])
        remaining = horizon - total
    all_times = np.concatenate(times)
    eligible = np.floor(all_times).astype(np.int64) + 1
    eligible = eligible[eligible < horizon]
    # array.array keeps 10^7-slot runs at 8 bytes per packet and indexes fast
    out = array.array("q")
    out.frombytes(eligible.tobytes())
    return out


def simulate(cfg: SimConfig) -> SimStats:
    """Run one replication; deterministic in cfg.seed.

    Queues are unbounded. Delays are recorded at departure for served and
    lost packets alike: sojourn counts arrival slot through departure slot
    inclusive, waiting drops the final (service) slot.
    """
    rng = np.random.default_rng(cfg.seed)
    horizon, warmup = cfg.horizon, cfg.warmup
    window = horizon - warmup
    n_flows = len(cfg.flows)
    queues = [_eligible_slots(f, horizon, rng) for f in cfg.flows]
    heads = [0] * n_flows
    sizes = [len(q) for q in queues]
    arrived = [len(q) - bisect_left(q, warmup) for q in queues]  # q is sorted
    fail_bytes = (rng.random(horizon) < cfg.attempt_failure_prob).tobytes()

    retry_limit = []
    for f in cfg.flows:
        if isinstance(f.service, TruncatedGeometric):
            retry_limit.append(f.service.max_attempts)
        elif isinstance(f.service, DeterministicUnit):
            retry_limit.append(1)
        else:
            raise ConfigError(
                f"flow {f.priority}: only unit and retrying service can be "
                "simulated at slot level"
            )

    base = 1 if cfg.delay_convention == "sojourn" else 0
    delay_counts: list[dict[int, int]] = [{} for _ in range(n_flows)]
    served = [0] * n_flows
    lost = [0] * n_flows
    area = [0] * n_flows
    attempts = [0] * n_flows

    def close_out(flow_idx: int, eligible: int, depart: int, was_lost: bool) -> None:
        lo = max(eligible, warmup)
        hi = min(depart, horizon - 1)
        if hi >= lo:
            area[flow_idx] += hi - lo + 1
        if eligible >= warmup:
            if was_lost:
                lost[flow_idx] += 1
            else:
                served[flow_idx] += 1
            d = depart - eligible + base
            counts = delay_counts[flow_idx]
            counts[d] = counts.get(d, 0) + 1

    slot = 0
    while slot < horizon:
        pick = -1
        for i in range(n_flows):
            h = heads[i]
            if h < sizes[i] and queues[i][h] <= slot:
                pick = i
                break
        if pick < 0:
            # work conservation: nothing is eligible, jump to the next event
            assert all(
                heads[j] >= sizes[j] or queues[j][heads[j]] > slot
                for j in range(n_flows)
            ), "server idled with work available"
            nxt = horizon
            for i in range(n_flows):
                h = heads[i]
                if h < sizes[i] and queues[i][h] < nxt:
                    nxt = queues[i][h]
            slot = nxt
            continue
        # strict priority: everything above the pick must be empty or future
        assert all(
            heads[j] >= sizes[j] or queues[j][heads[j]] > slot for j in range(pick)
        ), "priority violated"
        if fail_bytes[slot]:
            attempts[pick] += 1
            if attempts[pick] >= retry_limit[pick]:
                close_out(pick, queues[pick][heads[pick]], slot, True)
                heads[pick] += 1
                attempts[pick] = 0
        else:
            close_out(pick, queues[pick][heads[pick]], slot, False)
            heads[pick] += 1
            attempts[pick] = 0
        slot += 1

    # whatever is still queued at the horizon occupies the tail of the window
    for i in range(n_flows):
        for e in queues[i][heads[i] :]:
            lo = max(e, warmup)
            if lo <= horizon - 1:
                area[i] += horizon - lo

    flow_stats = []
    for i, f in enumerate(cfg.flows):
        counts = delay_counts[i]
        top = max(counts) if counts else -1
        table = tuple(counts.get(d, 0) for d in range(top + 1))
        flow_stats.append(
            FlowStats(f.priority, arrived[i], served[i], lost[i], table, area[i], window)
        )
    return SimStats(
        tuple(flow_stats),
        horizon,
        warmup,
        cfg.delay_convention,
        cfg.effective_load() < 1.0,
    )


@dataclass(frozen=True)
class ComparisonReport:
    """Fit of the empirical delay tail against an analytic curve."""

    thresholds: tuple[int, ...]
    empirical: tuple[float, ...]
    analytic: tuple[float, ...]
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
    min_tail_events: int = 30,
) -> ComparisonReport:
    """Simulate (unless stats is given) and fit the flow's log tail.

    Thresholds whose empirical tail holds fewer than min_tail_events
    departures are dropped from the gap and slope fits and reported in
    excluded. Slopes are least-squares fits of log10 CCDF versus threshold,
    so the ratio is meaningful even when the analytic curve is not exactly
    exponential.
    """
    if stats is None:
        stats = simulate(cfg)
    fs = stats.flow(priority)
    kept: list[int] = []
    dropped: list[int] = []
    emp: list[float] = []
    ana: list[float] = []
    gaps: list[float] = []
    for d in sorted(analytic):
        p_hat = fs.ccdf(int(d))
        events = p_hat * fs.departures if fs.departures else 0.0
        if events < min_tail_events or analytic[d] <= 0.0:
            dropped.append(int(d))
            continue
        kept.append(int(d))
        emp.append(p_hat)
        ana.append(analytic[d])
        gaps.append(math.log10(p_hat) - math.log10(analytic[d]))
    if len(kept) < 2:
        raise ConfigError(
            f"only {len(kept)} thresholds have >= {min_tail_events} tail "
            "events; cannot fit a slope"
        )
    x = np.asarray(kept, dtype=float)
    slope_emp = float(np.polyfit(x, np.log10(emp), 1)[0])
    slope_ana = float(np.polyfit(x, np.log10(ana), 1)[0])
    return ComparisonReport(
        tuple(kept),
        tuple(emp),
        tuple(ana),
        tuple(gaps),
        tuple(dropped),
        slope_emp,
        slope_ana,
    )
