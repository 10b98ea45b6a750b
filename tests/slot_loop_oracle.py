"""The per-slot simulator loop that `dasqos.slotsim.simulate` replaced.

It walks every slot: the server takes the head packet of the
highest-priority queue whose head is eligible, flips that slot's failure
coin, and checks work conservation and strict priority with per-slot
asserts. It draws from the generator in the same order as the per-level
simulator (every flow's arrivals in priority order, then one failure coin
per slot), so the two must agree on every `FlowStats` field. Kept verbatim
as the oracle for `tests/test_slotsim.py`; run it only at small horizons.
"""
from __future__ import annotations

import array
from bisect import bisect_left

import numpy as np

from dasqos.errors import ConfigError
from dasqos.slotsim import FlowStats, SimConfig, SimStats
from dasqos.traffic import (
    DeterministicUnit,
    TruncatedGeometric,
    TrafficFlow,
    arrival_rate,
    sample_interarrival,
)


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
