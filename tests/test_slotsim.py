"""Slot-level simulator: laws it must obey and its fit to the analysis.

Statistical checks run at pinned seeds with bands sized from the
underlying binomial noise, so they are deterministic here while staying
meaningful as statistics.
"""
from __future__ import annotations

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import slot_loop_oracle
from analysis_helpers import compare_with_analysis, delay_violation_probability, mean_delay
from dasqos import slotsim
from dasqos.delay import PrioritySystem
from dasqos.errors import ConfigError
from dasqos.slotsim import FlowStats, SimConfig, SimStats, simulate
from dasqos.traffic import (
    GenericRenewal,
    Poisson,
    TrafficFlow,
    TruncatedGeometric,
    DeterministicUnit,
    packet_loss_probability,
)


def voice_flow(rate: float = 0.2) -> TrafficFlow:
    return TrafficFlow(1, Poisson(rate), DeterministicUnit(), name="voice")


def data_flow(rate: float = 0.6, p: float = 0.1, attempts: int = 4) -> TrafficFlow:
    return TrafficFlow(2, Poisson(rate), TruncatedGeometric(p, attempts), name="data")


def fig5_config(horizon: int, seed: int, voice_rate: float = 0.2) -> SimConfig:
    return SimConfig(
        PrioritySystem((voice_flow(voice_rate), data_flow())),
        0.1,
        horizon,
        warmup=min(10_000, horizon // 10),
        seed=seed,
    )


@pytest.fixture(scope="module")
def fig5_stats() -> SimStats:
    return simulate(fig5_config(1_000_000, seed=7))


class TestConfigValidation:
    def test_effective_load(self):
        cfg = fig5_config(1000, seed=0)
        # 0.2 * 1 + 0.6 * (1 - 0.1^4) / 0.9
        assert cfg.system.effective_load() == pytest.approx(0.86660, abs=1e-5)

    def test_unsimulatable_service_rejected(self):
        # a flow's service is checked where the flow is made, so no
        # simulation ever sees a model it cannot serve
        with pytest.raises(ConfigError, match="service must be unit or retrying"):
            TrafficFlow(1, Poisson(0.5), GenericRenewal(2.0, 1.0))


class TestDeterminism:
    def test_same_seed_same_stats(self):
        a = simulate(fig5_config(100_000, seed=5))
        b = simulate(fig5_config(100_000, seed=5))
        assert a == b

    def test_different_seed_differs(self):
        a = simulate(fig5_config(100_000, seed=5))
        c = simulate(fig5_config(100_000, seed=6))
        assert a.flows[1].delay_counts != c.flows[1].delay_counts


class TestBookkeeping:
    def test_counts_are_consistent(self, fig5_stats):
        for fs in fig5_stats.flows:
            assert isinstance(fs, FlowStats)
            assert fs.departures == fs.served + fs.lost
            assert fs.arrived >= fs.departures
            assert sum(fs.delay_counts) == fs.departures
            assert mean_delay(fs) >= 1.0  # sojourn counts the service slot

    def test_ccdf_nonincreasing_from_one(self, fig5_stats):
        fs = fig5_stats.flows[1]
        assert fs.ccdf(0) == 1.0
        values = [fs.ccdf(d) for d in range(0, 40)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_ccdf_table_rows(self, fig5_stats):
        fs = fig5_stats.flows[0]
        rows = fs.ccdf_table(range(0, 5))
        assert [r[0] for r in rows] == [0, 1, 2, 3, 4]
        for d, p_hat, lo, hi in rows:
            assert p_hat == fs.ccdf(d)
            assert 0.0 <= lo <= p_hat <= hi <= 1.0

    def test_stable_flag(self):
        # the delay command's unstable-load warning reads the same load
        assert fig5_config(1_000_000, seed=7).system.effective_load() < 1.0


class TestQuietAndBoundary:
    def test_no_arrivals_in_horizon(self):
        # rate 1e-9 puts the first arrival around slot 1e9
        flow = TrafficFlow(1, Poisson(1e-9), DeterministicUnit())
        stats = simulate(SimConfig(PrioritySystem((flow,)), 0.0, 10_000, seed=1))
        fs = stats.flows[0]
        assert fs.arrived == 0
        assert fs.served == 0
        assert fs.lost == 0
        assert fs.loss_rate == 0.0
        assert math.isnan(mean_delay(fs))
        assert math.isnan(fs.ccdf(3))


class TestLossLaw:
    def test_loss_rates_match_closed_form(self, fig5_stats):
        # unit-service voice loses each failed attempt; data needs four
        for fs, attempts in zip(fig5_stats.flows, (1, 4)):
            want = packet_loss_probability(0.1, attempts)
            se = math.sqrt(want * (1.0 - want) / fs.departures)
            assert abs(fs.loss_rate - want) <= 4.0 * se

    def test_unit_flow_loses_each_failed_attempt(self):
        # one attempt per packet, so the loss is p itself; the sojourn
        # counts the departure slot, so no delay is 0
        flow = TrafficFlow(1, Poisson(0.5), DeterministicUnit())
        fs = simulate(SimConfig(PrioritySystem((flow,)), 0.2, 200_000, seed=1)).flows[0]
        want = packet_loss_probability(0.2, 1)
        assert abs(fs.loss_rate - want) <= 4.0 * math.sqrt(want * (1.0 - want) / fs.departures)
        assert fs.delay_counts[0] == 0

    def test_perfect_channel_loses_nothing(self):
        flow = TrafficFlow(1, Poisson(0.5), DeterministicUnit())
        stats = simulate(SimConfig(PrioritySystem((flow,)), 0.0, 50_000, seed=2))
        assert stats.flows[0].lost == 0


class TestAnalysisFit:
    def test_single_poisson_tail_matches_decay(self):
        # e^{-1.25643 d} nails the slope; its unit intercept sits about
        # 1.4x under the empirical tail at small d, so the fit is scored
        # on slope and bounded log-gap over thresholds with >= 30 events
        system = PrioritySystem(
            (TrafficFlow(1, Poisson(0.5), DeterministicUnit()),)
        )
        analytic = {
            d: delay_violation_probability(system, 1, float(d)) for d in range(2, 13)
        }
        cfg = SimConfig(
            system,
            0.0,
            1_000_000,
            warmup=10_000,
            seed=42,
        )
        report = compare_with_analysis(cfg, 1, analytic)
        assert report.thresholds == (2, 3, 4, 5, 6, 7)
        assert report.excluded == (8, 9, 10, 11, 12)
        assert 0.8 <= report.slope_ratio <= 1.2
        assert max(abs(g) for g in report.log10_gap) <= 0.2

    def test_fig5_two_flow_fit(self):
        system = PrioritySystem((voice_flow(), data_flow()))
        analytic = {
            d: delay_violation_probability(system, 2, float(d)) for d in range(2, 15)
        }
        report = compare_with_analysis(fig5_config(1_000_000, seed=11), 2, analytic)
        assert report.excluded == ()
        assert 0.85 <= report.slope_ratio <= 1.15
        assert max(abs(g) for g in report.log10_gap) <= 0.15

    def test_insufficient_tail_raises(self):
        flow = TrafficFlow(1, Poisson(0.5), DeterministicUnit())
        cfg = SimConfig(PrioritySystem((flow,)), 0.0, 100_000, warmup=1_000, seed=9)
        stats = simulate(cfg)
        theta = 1.2564312086261697
        # far-tail thresholds only: nothing left to fit
        sparse = {d: math.exp(-theta * d) for d in (10, 12)}
        with pytest.raises(ConfigError):
            compare_with_analysis(cfg, 1, sparse, stats=stats)

    def test_exclusion_is_reported(self):
        flow = TrafficFlow(1, Poisson(0.5), DeterministicUnit())
        cfg = SimConfig(PrioritySystem((flow,)), 0.0, 100_000, warmup=1_000, seed=9)
        theta = 1.2564312086261697
        analytic = {d: math.exp(-theta * d) for d in range(1, 9)}
        report = compare_with_analysis(cfg, 1, analytic)
        assert report.thresholds == (1, 2, 3, 4, 5, 6)
        assert report.excluded == (7, 8)


class TestTrendUnderLoad:
    def test_more_voice_lifts_data_delays(self):
        curves, loads = {}, {}
        for rate, seed in ((0.2, 3), (0.4, 4)):
            system = PrioritySystem((voice_flow(rate), data_flow()))
            curves[rate] = simulate(SimConfig(system, 0.1, 200_000, warmup=5_000, seed=seed))
            loads[rate] = system.effective_load()
        assert loads[0.2] < 1.0
        assert not loads[0.4] < 1.0  # 0.4 + 0.6667 load crosses 1
        low = curves[0.2].flows[1]
        high = curves[0.4].flows[1]
        for d in range(1, 7):
            assert high.ccdf(d) > low.ccdf(d)


def _unit(priority: int, rate: float) -> TrafficFlow:
    return TrafficFlow(priority, Poisson(rate), DeterministicUnit())


def _retry(priority: int, rate: float, p: float, attempts: int) -> TrafficFlow:
    return TrafficFlow(priority, Poisson(rate), TruncatedGeometric(p, attempts))


# scenario kind -> flows at failure probability p; rates scale with 1 - p so
# that retrying levels stay near their intended load
ORACLE_SCENARIOS = {
    "unit": lambda p: (_unit(1, 0.5),),
    "unit_over_retry": lambda p: (_unit(1, 0.2), _retry(2, 0.6 * (1 - p), p, 4)),
    "retry_over_unit": lambda p: (_retry(1, 0.3 * (1 - p), p, 3), _unit(2, 0.4)),
    "three_levels": lambda p: (
        _unit(1, 0.1), _retry(2, 0.3 * (1 - p), p, 2), _unit(3, 0.3)
    ),
    "retry_one_attempt": lambda p: (_retry(1, 0.4, p, 1), _unit(2, 0.3)),
    "empty_flow": lambda p: (_unit(1, 1e-9), _retry(2, 0.5 * (1 - p), p, 5)),
    "overload": lambda p: (_unit(1, 0.6), _retry(2, 0.7, p, 4), _unit(3, 0.5)),
    # failure runs longer than a lattice cell: a busy period that starts
    # mid-run is off the lattice; at p = 1 every packet takes all 6 slots
    "long_runs": lambda p: (_unit(1, 0.1), _retry(2, 0.12, p, 6)),
    # three levels below the top: their positions go through three rank maps
    "four_levels": lambda p: (
        _unit(1, 0.15), _retry(2, 0.2 * (1 - p), p, 3), _unit(3, 0.15), _retry(4, 0.15 * (1 - p), p, 2)
    ),
}
ORACLE_GRID = [
    ("unit", 0.0), ("unit", 0.6),
    ("unit_over_retry", 0.1), ("unit_over_retry", 0.9),
    ("retry_over_unit", 0.15), ("retry_over_unit", 0.6),
    ("three_levels", 0.1), ("three_levels", 0.9),
    ("retry_one_attempt", 0.15),
    ("empty_flow", 0.1),
    ("overload", 0.0), ("overload", 0.1),
    ("long_runs", 0.5), ("long_runs", 0.99), ("long_runs", 1.0),
    ("four_levels", 0.1), ("four_levels", 0.5),
]


@pytest.mark.parametrize("kind, p", ORACLE_GRID)
def test_simulate_matches_slot_loop(kind, p):
    # the per-level simulator against the per-slot loop it replaced: same
    # draws, so every field of every FlowStats must agree exactly
    horizon = 10_000
    system = PrioritySystem(ORACLE_SCENARIOS[kind](p))
    for seed in (1, 2, 3, 4):
        for warmup in (0, horizon // 2, horizon - 1):
            cfg = SimConfig(system, p, horizon, warmup, seed)
            got, want = simulate(cfg), slot_loop_oracle.simulate(cfg)
            assert got == want
            assert repr(got) == repr(want)  # plain ints, not numpy scalars


# one retrying level: its free-slot coins come from seed at failure
# probability p, and block sets the lattice pass's step so that its
# carries are crossed
LEVELS = dict(
    limit=st.integers(1, 8),
    p=st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]),
    nfree=st.integers(1, 60),
    seed=st.integers(0, 2**32 - 1),
    block=st.sampled_from([1, 2, 3, 7, slotsim._BLOCK]),
)


def _level(p, nfree, seed, arrivals):
    fail = np.random.default_rng(seed).random(nfree) < p
    idx = np.minimum(np.sort(np.asarray(arrivals, dtype=np.int32)), nfree)
    return idx, fail.tobytes()


# arrivals are clipped to nfree: eligible past the horizon
@given(**LEVELS, arrivals=st.lists(st.integers(0, 80), max_size=40))
@settings(max_examples=500)
# the horizon cuts a packet in service, and drops one eligible at nfree
@example(limit=4, p=1.0, nfree=6, seed=0, arrivals=[0, 0, 9], block=2)
@example(limit=2, p=1.0, nfree=4, seed=0, arrivals=[0, 0, 0], block=1)
@example(limit=3, p=0.0, nfree=1, seed=0, arrivals=[], block=1)
@example(limit=2, p=0.5, nfree=0, seed=0, arrivals=[0, 0], block=1)
@example(limit=3, p=0.5, nfree=1, seed=1, arrivals=[0, 1, 1], block=1)
# a busy period that starts inside a failure run, at every phase of its cell
@example(limit=4, p=1.0, nfree=20, seed=0, arrivals=[1, 1, 1, 14], block=3)
@example(limit=4, p=1.0, nfree=20, seed=0, arrivals=[2, 2, 2, 14], block=3)
@example(limit=4, p=1.0, nfree=20, seed=0, arrivals=[3, 3, 3, 14], block=3)
@example(limit=4, p=1.0, nfree=20, seed=0, arrivals=[4, 4, 4, 14], block=3)
def test_retry_schedule_matches_packet_loop(limit, p, nfree, seed, arrivals, block):
    idx, fail_bytes = _level(p, nfree, seed, arrivals)
    with mock.patch.object(slotsim, "_BLOCK", block):
        got = slotsim._serve_with_retries(idx, fail_bytes, limit, nfree)
    want = slot_loop_oracle.serve_with_retries(idx, fail_bytes, limit, nfree)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        np.testing.assert_array_equal(g, w)


@given(**LEVELS, arrivals=st.lists(st.integers(0, 80), max_size=40), wrong=st.integers(1, 9))
@settings(max_examples=500)
def test_retry_schedule_repairs_a_wrong_lattice(limit, p, nfree, seed, arrivals, block, wrong):
    # a lattice built for another attempt cap breaks the rule almost
    # everywhere and cuts the level at the wrong packet; the exact check
    # must find every break and the per-packet rule mend it
    idx, fail_bytes = _level(p, nfree, seed, arrivals)
    lattice = slotsim._lattice

    def wrong_lattice(fail, idx, limit, nfree, rank):
        return lattice(fail, idx, wrong, nfree, rank)

    with mock.patch.object(slotsim, "_lattice", wrong_lattice), mock.patch.object(
        slotsim, "_BLOCK", block
    ):
        got = slotsim._serve_with_retries(idx, fail_bytes, limit, nfree)
    want = slot_loop_oracle.serve_with_retries(idx, fail_bytes, limit, nfree)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)


@given(**LEVELS, arrivals=st.lists(st.integers(0, 80), max_size=40), wrong=st.none() | st.integers(1, 9))
@settings(max_examples=500)
# a packet still in service at the horizon ends at nfree
@example(limit=4, p=1.0, nfree=6, seed=0, arrivals=[0, 0, 9], block=2, wrong=None)
# coins S then fourteen F: the second block starts at 4, inside the failure
# run that starts at 1
@example(limit=3, p=0.9, nfree=20, seed=41, arrivals=[0, 2, 2, 2], block=2, wrong=None)
@example(limit=3, p=0.9, nfree=20, seed=41, arrivals=[0, 2, 2, 2], block=2, wrong=2)
def test_rule_breaks_match_the_per_offset_check(limit, p, nfree, seed, arrivals, block, wrong):
    # the segment-start check against the per-offset one it replaced, on
    # every block of a schedule served from a right or a wrong lattice
    idx, fail_bytes = _level(p, nfree, seed, arrivals)
    lattice, rule_breaks = slotsim._lattice, slotsim._rule_breaks

    def any_lattice(fail, idx, limit, nfree, rank):
        return lattice(fail, idx, wrong or limit, nfree, rank)

    def checked(fail, start, end, limit, nfree):
        got = rule_breaks(fail, start, end, limit, nfree)
        want = slot_loop_oracle.rule_breaks(fail, start, end, limit, nfree)
        np.testing.assert_array_equal(got, want)
        return got

    with mock.patch.object(slotsim, "_lattice", any_lattice), mock.patch.object(
        slotsim, "_rule_breaks", checked
    ), mock.patch.object(slotsim, "_BLOCK", block):
        slotsim._serve_with_retries(idx, fail_bytes, limit, nfree)


@given(**LEVELS)
def test_lattice_is_the_schedule_of_a_queue_never_empty(limit, p, nfree, seed, block):
    # every packet eligible at slot 0: one busy period from a lattice start
    # to the horizon, so the lattice alone must be the schedule
    idx, fail_bytes = _level(p, nfree, seed, [0] * (nfree + 1))
    rank = np.empty_like(idx)
    with mock.patch.object(slotsim, "_BLOCK", block):
        cells, count = slotsim._lattice(np.frombuffer(fail_bytes, bool), idx, limit, nfree, rank)
    start, end = slot_loop_oracle.serve_with_retries(idx, fail_bytes, limit, nfree)
    np.testing.assert_array_equal(cells[:count], start)
    np.testing.assert_array_equal(cells[1 : count + 1] - 1, end)
    assert not rank.any()


@given(**{**LEVELS, "limit": st.integers(1, 9)})
def test_lattice_cells_succeed_only_at_their_last_slot(limit, p, nfree, seed, block):
    # the invariant _rule_breaks rests on, for any cap: a segment restarts
    # one past every success, so a cell [cells[j], cells[j+1] - 1] holds a
    # success only at its last slot, and a last cell that ends at nfree, cut
    # short by the horizon, holds none
    idx, fail_bytes = _level(p, nfree, seed, [])
    fail = np.frombuffer(fail_bytes, bool)
    with mock.patch.object(slotsim, "_BLOCK", block):
        cells, count = slotsim._lattice(fail, idx, limit, nfree, np.empty_like(idx))
    assert cells[0] == 0
    for j in range(count):
        assert fail[cells[j] : cells[j + 1] - 1].all()


def test_simulate_memory_stays_per_block():
    # the README two-flow scenario at 5e5 slots peaks at ~9.5 MB, the
    # per-level arrays of the horizon; an auxiliary array over the whole
    # horizon (4e5 int32 free slots of the data level is 1.6 MB) breaks it
    cfg = fig5_config(500_000, seed=1)
    simulate(fig5_config(1_000, seed=1))  # the imports of a first call are ~0.8 MB more
    tracemalloc.start()
    try:
        simulate(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10e6


class TestScheduleInvariants:
    # positions in a level's free slots: arrivals eligible at 0, 0 and 5
    idx = np.array([0, 0, 5], dtype=np.int32)

    def schedule(self):
        return np.array([0, 1, 5], dtype=np.int32), np.array([0, 3, 5], dtype=np.int32)

    def test_valid_schedule_passes(self):
        start, end = self.schedule()
        slotsim._check_schedule(self.idx, start, end, nfree=6)

    def test_idle_server_with_work_raises(self):
        start, end = self.schedule()
        start[1] = 2  # slot 1 left idle while packet 1 waited
        with pytest.raises(AssertionError, match="work conservation"):
            slotsim._check_schedule(self.idx, start, end, nfree=6)

    def test_service_before_eligibility_raises(self):
        start, end = self.schedule()
        start[2] = end[2] = 4  # a free slot, but packet 2 is not there until 5
        with pytest.raises(AssertionError, match="FIFO"):
            slotsim._check_schedule(self.idx, start, end, nfree=6)

    def test_slot_used_twice_raises(self):
        start, end = self.schedule()
        end[1] = 5  # packet 1 still holds slot 5 when packet 2 takes it
        with pytest.raises(AssertionError, match="priority"):
            slotsim._check_schedule(self.idx, start, end, nfree=6)

    def test_slot_that_was_not_free_raises(self):
        start, end = self.schedule()
        with pytest.raises(AssertionError, match="priority"):
            slotsim._check_schedule(self.idx, start, end, nfree=5)

    def test_simulate_runs_the_checks(self, monkeypatch):
        serve = slotsim._serve_with_retries

        def overlapping(*args):
            start, end = serve(*args)
            end = end.copy()
            end[10] = start[11]
            return start, end

        monkeypatch.setattr(slotsim, "_serve_with_retries", overlapping)
        with pytest.raises(AssertionError, match="priority"):
            simulate(fig5_config(5_000, seed=1))
