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
fixed seed this makes runs bit-reproducible. It also fixes the slots a
level uses whatever the levels below do, so level n is simulated on its
own, as one FIFO queue on the slots that levels < n left free: a Lindley
recursion for unit service, one pass per packet over the coins for
retries. The per-attempt probability may be a plain number or the
expected-outage output of the antenna engine; the simulator does not care
where it came from.
"""
from __future__ import annotations

import math
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
    """All arrival eligibility slots below horizon, sorted, as an ndarray.

    A packet landing inside slot s waits for boundary s+1; one landing
    exactly on a boundary (probability zero for the continuous models)
    waits out that slot too. Slots are int32 whenever the horizon fits.
    """
    rate = arrival_rate(flow.arrival)
    times: list[np.ndarray] = []
    total = 0.0
    remaining = float(horizon)
    while remaining > 0.0:
        n = max(64, int(remaining * rate * 1.1) + 16)
        chunk = sample_interarrival(flow.arrival, rng, n)
        np.cumsum(chunk, out=chunk)
        chunk += total
        times.append(chunk)
        total = float(chunk[-1])
        remaining = horizon - total
    all_times = times[0] if len(times) == 1 else np.concatenate(times)
    # floor(t) + 1 < horizon exactly when t < horizon - 1; the times are
    # sorted and >= 0, so those are a prefix and truncation is the floor
    kept = all_times[: np.searchsorted(all_times, horizon - 1)]
    return kept.astype(np.int32 if horizon < 2**31 else np.int64) + 1


def _retry_limit(flow: TrafficFlow) -> int:
    if isinstance(flow.service, (TruncatedGeometric, DeterministicUnit)):
        return getattr(flow.service, "max_attempts", 1)
    raise ConfigError(
        f"flow {flow.priority}: only unit and retrying service can be "
        "simulated at slot level"
    )


def _serve_with_retries(idx: np.ndarray, fail_bytes: bytes, limit: int, nfree: int):
    """First and last attempt of each packet that starts before the horizon.

    Positions count the level's free slots, whose failure coins fail_bytes
    holds. A packet starts at max(idx_k, end_{k-1} + 1) and stops at its
    first success or limit-th failure; one still in service at the horizon
    gets end = nfree.
    """
    start, end = np.empty_like(idx), np.empty_like(idx)
    starts, ends, find = memoryview(start), memoryview(end), fail_bytes.find
    last, k = -1, 0
    for i in memoryview(idx):
        s = i if i > last else last + 1
        if s >= nfree:
            break
        j = find(b"\0", s, s + limit)
        last = j if j >= 0 else min(s + limit - 1, nfree)
        starts[k], ends[k] = s, last
        k += 1
    return start[:k], end[:k]


def _check_schedule(idx: np.ndarray, start: np.ndarray, end: np.ndarray, nfree: int) -> None:
    """Raise unless a level's schedule keeps strict priority and FIFO order.

    Priority: each of the nfree free slots is used at most once. FIFO and
    work conservation: start_k = max(idx_k, end_{k-1} + 1).
    """
    if len(start) and (
        start[0] < 0 or start[-1] >= nfree or np.any(end < start) or np.any(start[1:] <= end[:-1])
    ):
        raise AssertionError("priority violated: a slot was used twice or was not free")
    ready = np.empty_like(end)
    ready[:1] = 0
    np.add(end[:-1], 1, out=ready[1:])
    if not np.array_equal(start, np.maximum(ready, idx[: len(start)], out=ready)):
        raise AssertionError("FIFO order or work conservation violated")


def _serve_level(flow, limit, e, free, fail, cfg: SimConfig, last: bool):
    """Serve one level as a FIFO queue on the slots the levels above left
    free (None: all). idx, start and end are positions among them. Returns
    the level's FlowStats and the slots it leaves below (None if last)."""
    horizon, warmup = cfg.horizon, cfg.warmup
    nfree = horizon if free is None else len(free)
    idx = e if free is None else np.searchsorted(free, e).astype(e.dtype)
    if limit == 1:  # Lindley recursion as a running maximum
        k = np.arange(len(idx), dtype=idx.dtype)
        start = np.maximum.accumulate(idx - k)
        start += k
        start = end = start[: np.searchsorted(start, nfree)]
    else:
        level_fail = fail if free is None else fail[free]
        start, end = _serve_with_retries(idx, level_fail.tobytes(), limit, nfree)
    _check_schedule(idx, start, end, nfree)
    below = None
    if not last:  # drop each packet's run of slots
        run = np.zeros(nfree + 1, dtype=np.int8)
        run[start] = 1
        run[np.minimum(end, nfree - 1) + 1] -= 1
        keep = np.cumsum(run[:nfree], dtype=np.int8) == 0
        below = np.flatnonzero(keep).astype(e.dtype) if free is None else free[keep]

    done = len(end) - int(len(end) > 0 and end[-1] >= nfree)  # in service at the horizon
    depart = end[:done] if free is None else free[end[:done]]
    first = int(np.searchsorted(e, warmup))  # first post-warmup arrival
    lost = int(np.count_nonzero(fail[depart[first:]]))
    # slots present: arrival (or warmup) through departure or the horizon
    area = int(np.clip(depart[:first] - warmup + 1, 0, None).sum(dtype=np.int64))
    area += (len(e) - done) * horizon - int(np.maximum(e[done:], warmup).sum(dtype=np.int64))
    # in place: depart (a view of end on the top level) is not read again
    wait = np.subtract(depart[first:], e[first:done], out=depart[first:])
    area += int(wait.sum(dtype=np.int64)) + len(wait)
    wait += 1 if cfg.delay_convention == "sojourn" else 0
    tallies = (len(e) - first, len(wait) - lost, lost, tuple(np.bincount(wait).tolist()))
    return FlowStats(flow.priority, *tallies, area, horizon - warmup), below


def simulate(cfg: SimConfig) -> SimStats:
    """Run one replication; deterministic in cfg.seed.

    Queues are unbounded. Delays are recorded at departure for served and
    lost packets alike: sojourn counts arrival slot through departure slot
    inclusive, waiting drops the final (service) slot.
    """
    rng = np.random.default_rng(cfg.seed)
    limits = [_retry_limit(f) for f in cfg.flows]
    eligible = [_eligible_slots(f, cfg.horizon, rng) for f in cfg.flows]
    fail = rng.random(cfg.horizon) < cfg.attempt_failure_prob
    free, flow_stats = None, []
    for level, (f, limit) in enumerate(zip(cfg.flows, limits)):
        # popped, so a level's eligibility slots go once it is served
        last = level + 1 == len(cfg.flows)
        stats, free = _serve_level(f, limit, eligible.pop(0), free, fail, cfg, last)
        flow_stats.append(stats)
    stable = cfg.effective_load() < 1.0
    return SimStats(tuple(flow_stats), cfg.horizon, cfg.warmup, cfg.delay_convention, stable)


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
