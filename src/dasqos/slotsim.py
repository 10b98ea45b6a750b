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
recursion for unit service, and for retries the same recursion over a
lattice of the slots where a packet can end, with the per-packet rule run
only where a busy period starts off that lattice. A lattice cell holds a
success only at its last slot, so no packet served in one succeeds early;
a break shows in each packet's end and span alone, with no pass over the
slots. A unit packet holds one slot, so the slots a unit level leaves
below are all but its start slots. The per-attempt probability may be a
plain number or the expected-outage output of the antenna engine; the
simulator does not care where it came from.

The checks on it live under tests/: the per-slot and per-packet loops and
the per-offset break check it replaced, and the fit of its delay tails
against the analysis.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .delay import PrioritySystem
from .traffic import TrafficFlow, arrival_rate, sample_interarrival

Z_95 = 1.959963984540054  # two-sided 95% normal quantile for the CCDF bands


@dataclass(frozen=True)
class SimConfig:
    """One replication of the system's flows (distinct priorities, sorted).

    attempt_failure_prob lies in [0, 1] and horizon > warmup >= 0, as
    config.RunParams checks them. The delay command checks that every
    retrying flow's failure_prob is attempt_failure_prob and that every
    flow's arrivals can be sampled.
    """

    system: PrioritySystem
    attempt_failure_prob: float
    horizon: int
    warmup: int = 0
    seed: int = 0


@dataclass(frozen=True)
class FlowStats:
    """Post-warmup tallies for one flow.

    delay_counts[d] is the number of departures (served or lost) whose
    recorded delay was exactly d slots.
    """

    priority: int
    arrived: int
    served: int
    lost: int
    delay_counts: tuple[int, ...]

    @property
    def departures(self) -> int:
        return self.served + self.lost

    @property
    def loss_rate(self) -> float:
        return self.lost / self.departures if self.departures else 0.0

    def ccdf(self, threshold: int) -> float:
        """Empirical P(delay > threshold) over departures."""
        if not self.departures:
            return math.nan
        tail = sum(self.delay_counts[threshold + 1 :]) if threshold >= 0 else self.departures
        return tail / self.departures

    def ccdf_table(self, thresholds) -> list[tuple[int, float, float, float]]:
        """Rows (threshold, p_hat, ci_low, ci_high)."""
        rows = []
        for d in thresholds:
            p_hat = self.ccdf(int(d))
            n = self.departures
            half = Z_95 * math.sqrt(p_hat * (1.0 - p_hat) / n) if n else math.nan
            rows.append((int(d), p_hat, max(0.0, p_hat - half), min(1.0, p_hat + half)))
        return rows


@dataclass(frozen=True)
class SimStats:
    """One FlowStats per flow, in the order of the system's flows."""

    flows: tuple[FlowStats, ...]


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


_BLOCK = 1 << 14  # slots or packets per vector step; bounds the temporaries


def _lattice(fail: np.ndarray, idx: np.ndarray, limit: int, nfree: int, rank: np.ndarray):
    """The lattice starts in order, then the end of the last cell plus one.

    A segment of free slots starts at 0 and one past each success, for
    any limit; its lattice starts are its first slot and every limit-th
    slot after it. Cells are cut only inside a segment, so the invariant
    _rule_breaks rests on holds: each cell [cells[j], cells[j+1] - 1]
    holds a success only at its last slot, and the last cell, cut short
    by the horizon, holds none. So the packet started on a lattice start
    ends at the next start minus one. Writes into rank the index of the
    last start at or before each idx; returns the buffer and the number
    of starts in it.

    The first slot of the segment holding each slot is a running maximum
    of one past each success.
    """
    dtype = idx.dtype
    cells, count, seg = np.empty(nfree + 1, dtype=dtype), 0, 0
    edges = np.arange(0, nfree + _BLOCK, _BLOCK, dtype=dtype)
    edges[-1] = nfree
    bounds = np.searchsorted(idx, edges)  # packets eligible in each block
    for b, lo, hi in zip(range(0, nfree, _BLOCK), bounds.tolist(), bounds[1:].tolist()):
        pos = np.arange(b, min(b + _BLOCK, nfree), dtype=dtype)
        opened = pos + 1  # a success opens pos + 1
        opened *= ~fail[b : b + _BLOCK]
        first = np.empty_like(pos)  # first slot of the segment holding pos
        first[0], first[1:] = seg, opened[:-1]
        np.maximum.accumulate(first, out=first)
        seg = max(int(first[-1]), int(opened[-1]))
        off = np.subtract(pos, first, out=first)
        # off // limit * limit == off is off % limit == 0 for off >= 0;
        # numpy divides by an integer scalar without a hardware divide
        whole = np.floor_divide(off, limit, out=opened)
        whole *= limit
        on = whole == off
        if hi > lo:
            seen = np.cumsum(on, dtype=dtype)
            np.add(seen[idx[lo:hi] - b], count - 1, out=rank[lo:hi])
        starts = np.flatnonzero(on)
        cells[count : count + len(starts)] = starts + b
        count += len(starts)
    rank[bounds[-1] :] = count - 1  # eligible at nfree
    # the last cell ends at nfree - 1, or at the horizon if it holds no
    # success and is cut short
    s = int(cells[count - 1])
    cells[count] = nfree + (s + limit > nfree and bool(fail[s:].all()))
    return cells, count


def _rule_breaks(fail: np.ndarray, start: np.ndarray, end: np.ndarray, limit: int, nfree: int) -> np.ndarray:
    """Mask of the packets that do not stop at their first success or
    limit-th failure (or at nfree, still in service at the horizon).

    Each packet [s, e] lies inside one lattice cell, which holds a success
    only at its last slot (see _lattice), so none succeeds before e. It
    breaks the rule only by running past limit attempts, which only a
    lattice built for a larger cap allows, or by ending on a failure that
    is not its limit-th attempt and is not at the horizon: a busy period
    that starts inside a failure run. Exact for the schedule of any
    lattice, so it also finds every break of a wrong one.
    """
    span = end - start
    bad = span >= limit
    bad |= fail[np.minimum(end, nfree - 1)] & (span != limit - 1) & (end != nfree)
    return bad


def _serve_with_retries(idx: np.ndarray, fail_bytes: bytes, limit: int, nfree: int):
    """First and last attempt of each packet that starts before the horizon.

    Positions count the level's free slots, whose failure coins fail_bytes
    holds. A packet starts at max(idx_k, end_{k-1} + 1) and stops at its
    first success or limit-th failure; one still in service at the horizon
    gets end = nfree.

    Every success inside a busy stretch ends a packet, so a busy period
    that starts on the lattice stays on it: packet k takes cell
    r_k = max(R_k, r_{k-1} + 1), with R_k the last cell starting at or
    before idx_k, the unit Lindley recursion in lattice ranks. A busy
    period that starts off the lattice, inside a failure run longer than
    what is left of its cell, breaks the per-packet rule; from each such
    packet the rule is run one packet at a time until the schedule meets
    the lattice again. The recursion gives each packet the FIFO start
    max(idx_k, end_{k-1} + 1) inside its cell, so _rule_breaks finds the
    breaks per block of _BLOCK packets from each packet's end and span.
    """
    start, end = np.empty_like(idx), np.empty_like(idx)
    if nfree == 0:
        return start[:0], end[:0]
    fail = np.frombuffer(fail_bytes, dtype=bool)
    cells, count = _lattice(fail, idx, limit, nfree, start)
    n, broken, top = len(idx), [], 0  # top = r_{k-1} - (k-1)
    for c in range(0, len(idx), _BLOCK):
        i = idx[c : c + _BLOCK]
        m, k = len(i), np.arange(c, c + len(i))
        r = start[c : c + m] - k
        np.maximum.accumulate(r, out=r)
        np.maximum(r, top, out=r)
        r += k
        # cut where idx reaches nfree or the last cell is taken: that cell
        # ends at nfree - 1 or later, so the packet after it starts at or
        # past nfree once it follows the rule
        stop = min(int(np.searchsorted(r, count)), int(np.searchsorted(i, i.dtype.type(nfree))))
        if stop:
            r, i = r[:stop], i[:stop]
            s = start[c : c + stop]
            np.maximum(cells[r], i, out=s)
            e = np.subtract(cells[r + 1], 1, out=end[c : c + stop])
            broken.extend((np.flatnonzero(_rule_breaks(fail, s, e, limit, nfree)) + c).tolist())
        if stop < m:
            n = c + stop
            break
        top = int(r[-1] - k[-1])

    find, ids, starts, ends = fail_bytes.find, memoryview(idx), memoryview(start), memoryview(end)
    done = 0  # packets before done follow the rule
    for k in broken:
        if k < done:
            continue
        last = ends[k - 1] if k else -1
        while k < len(idx):
            s = max(ids[k], last + 1)
            if s >= nfree:
                return start[:k], end[:k]
            j = find(b"\0", s, s + limit)
            last = j if j >= 0 else min(s + limit - 1, nfree)
            if k < n and starts[k] == s and ends[k] == last:
                break
            starts[k], ends[k] = s, last
            k += 1
        n, done = max(n, k), k + 1
    return start[:n], end[:n]


def _check_schedule(idx: np.ndarray, start: np.ndarray, end: np.ndarray, nfree: int) -> None:
    """Raise unless a level's schedule keeps strict priority and FIFO order.

    Priority: each of the nfree free slots is used at most once. FIFO and
    work conservation: start_k = max(idx_k, end_{k-1} + 1).
    """
    if len(start) and (
        start[0] < 0 or start[-1] >= nfree or np.any(end < start) or np.any(start[1:] <= end[:-1])
    ):
        raise AssertionError("priority violated: a slot was used twice or was not free")
    ready = np.empty_like(end)  # end_{k-1} + 1, and 0 before the first
    ready[:1] = 0
    np.add(end[:-1], 1, out=ready[1:])
    if np.any(np.maximum(ready, idx[: len(start)], out=ready) != start):
        raise AssertionError("FIFO order or work conservation violated")


def _serve_level(flow, e, idx, free, fail, cfg: SimConfig, last: bool):
    """Serve one level as a FIFO queue on the slots the levels above left
    free (None: all). idx, start and end are positions among them; idx_k
    is that of the first free slot at or after e_k (nfree if none). Returns
    the level's FlowStats and the mask of the free slots it leaves below
    (None if last)."""
    horizon, warmup, limit = cfg.horizon, cfg.warmup, flow.service.max_attempts
    nfree = horizon if free is None else len(free)
    if limit == 1:  # Lindley recursion as a running maximum
        k = np.arange(len(idx), dtype=idx.dtype)
        start = np.maximum.accumulate(idx - k)
        start += k
        start = end = start[: np.searchsorted(start, nfree)]
    else:
        coins = (fail if free is None else fail[free]).tobytes()
        start, end = _serve_with_retries(idx, coins, limit, nfree)
    _check_schedule(idx, start, end, nfree)
    keep = None
    if not last and limit == 1:  # a unit packet holds its start slot only
        keep = np.ones(nfree, dtype=bool)
        keep[start] = False
    elif not last:  # drop each packet's run of slots
        run = np.zeros(nfree + 1, dtype=np.int8)
        run[start] = 1
        run[np.minimum(end, nfree - 1) + 1] -= 1
        keep = np.cumsum(run[:nfree], dtype=np.int8) == 0

    done = len(end) - int(len(end) > 0 and end[-1] >= nfree)  # in service at the horizon
    depart = end[:done] if free is None else free[end[:done]]
    first = int(np.searchsorted(e, e.dtype.type(warmup)))  # first post-warmup arrival
    lost = int(np.count_nonzero(fail[depart[first:]]))
    # in place: depart (a view of end on the top level) is not read again
    wait = np.subtract(depart[first:], e[first:done], out=depart[first:])
    wait += 1  # sojourn: the eligibility slot through the departure slot
    counts = np.zeros(int(wait.max(initial=-1)) + 1, dtype=np.int64)
    for c in range(0, len(wait), _BLOCK):  # bincount copies its input to int64
        counts += np.bincount(wait[c : c + _BLOCK], minlength=len(counts))
    tallies = (len(e) - first, len(wait) - lost, lost, tuple(counts.tolist()))
    return FlowStats(flow.priority, *tallies), keep


def simulate(cfg: SimConfig) -> SimStats:
    """Run one replication; deterministic in cfg.seed.

    Queues are unbounded. Delays are recorded at departure for served and
    lost packets alike, as the sojourn: the eligibility slot through the
    departure slot inclusive.
    """
    rng = np.random.default_rng(cfg.seed)
    flows = cfg.system.flows
    eligible = [_eligible_slots(f, cfg.horizon, rng) for f in flows]
    fail = rng.random(cfg.horizon) < cfg.attempt_failure_prob
    positions = list(eligible)  # among all slots, a level's positions are its slots
    free, flow_stats = None, []
    for f in flows:
        # popped, so a level's eligibility slots go once it is served
        e = eligible.pop(0)
        stats, keep = _serve_level(f, e, positions.pop(0), free, fail, cfg, not eligible)
        flow_stats.append(stats)
        if keep is not None:
            # the free slots kept before each position: its position below
            rank = np.zeros(len(keep) + 1, dtype=e.dtype)
            np.cumsum(keep, dtype=e.dtype, out=rank[1:])
            positions = [rank[idx] for idx in positions]
            del rank
            free = np.flatnonzero(keep).astype(e.dtype) if free is None else free[keep]
            del keep  # held through the next level, the mask would raise its peak
    return SimStats(tuple(flow_stats))
