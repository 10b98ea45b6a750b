"""Slot-level simulator: laws it must obey and its fit to the analysis.

Statistical checks run at pinned seeds with bands sized from the
underlying binomial noise, so they are deterministic here while staying
meaningful as statistics.
"""
from __future__ import annotations

import math

import numpy as np
import pytest

import slot_loop_oracle
from dasqos import slotsim
from dasqos.delay import PrioritySystem, delay_violation_probability
from dasqos.errors import ConfigError
from dasqos.slotsim import (
    FlowStats,
    SimConfig,
    SimStats,
    compare_with_analysis,
    simulate,
)
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
        (voice_flow(voice_rate), data_flow()),
        0.1,
        horizon,
        warmup=min(10_000, horizon // 10),
        seed=seed,
    )


@pytest.fixture(scope="module")
def fig5_stats() -> SimStats:
    return simulate(fig5_config(1_000_000, seed=7))


class TestConfigValidation:
    def test_failure_prob_range(self):
        with pytest.raises(ConfigError):
            SimConfig((voice_flow(),), 1.5, 1000)
        with pytest.raises(ConfigError):
            SimConfig((voice_flow(),), -0.1, 1000)

    def test_horizon_must_exceed_warmup(self):
        with pytest.raises(ConfigError):
            SimConfig((voice_flow(),), 0.0, 1000, warmup=1000)
        with pytest.raises(ConfigError):
            SimConfig((voice_flow(),), 0.0, 1000, warmup=-1)

    def test_unknown_convention(self):
        with pytest.raises(ConfigError):
            SimConfig((voice_flow(),), 0.0, 1000, delay_convention="response")

    def test_duplicate_priorities(self):
        with pytest.raises(ConfigError):
            SimConfig((voice_flow(), voice_flow(0.3)), 0.0, 1000)

    def test_retry_model_must_match_channel(self):
        # the retry chain and the failure coins describe the same channel
        with pytest.raises(ConfigError):
            SimConfig((data_flow(p=0.1),), 0.2, 1000)

    def test_effective_load(self):
        cfg = fig5_config(1000, seed=0)
        # 0.2 * 1 + 0.6 * (1 - 0.1^4) / 0.9
        assert cfg.effective_load() == pytest.approx(0.86660, abs=1e-5)

    def test_unsimulatable_service_rejected(self):
        flow = TrafficFlow(1, Poisson(0.5), GenericRenewal(2.0, 1.0))
        cfg = SimConfig((flow,), 0.0, 1000)
        with pytest.raises(ConfigError):
            simulate(cfg)


class TestDeterminism:
    def test_same_seed_same_stats(self):
        a = simulate(fig5_config(100_000, seed=5))
        b = simulate(fig5_config(100_000, seed=5))
        assert a == b

    def test_different_seed_differs(self):
        a = simulate(fig5_config(100_000, seed=5))
        c = simulate(fig5_config(100_000, seed=6))
        assert a.flow(2).delay_counts != c.flow(2).delay_counts


class TestBookkeeping:
    def test_counts_are_consistent(self, fig5_stats):
        for fs in fig5_stats.flows:
            assert isinstance(fs, FlowStats)
            assert fs.departures == fs.served + fs.lost
            assert fs.arrived >= fs.departures
            assert sum(fs.delay_counts) == fs.departures
            assert fs.window == 990_000
            assert fs.mean_delay >= 1.0  # sojourn counts the service slot

    def test_ccdf_nonincreasing_from_one(self, fig5_stats):
        fs = fig5_stats.flow(2)
        assert fs.ccdf(0) == 1.0
        values = [fs.ccdf(d) for d in range(0, 40)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_ccdf_table_rows(self, fig5_stats):
        fs = fig5_stats.flow(1)
        rows = fs.ccdf_table(range(0, 5))
        assert [r[0] for r in rows] == [0, 1, 2, 3, 4]
        for d, p_hat, lo, hi, events in rows:
            assert 0.0 <= lo <= p_hat <= hi <= 1.0
            assert events == round(p_hat * fs.departures)

    def test_little_law_is_tight(self, fig5_stats):
        # area sums the same slots the recorded delays count, so the law
        # holds to boundary clipping, far inside the 3 s.e. it must meet
        for fs in fig5_stats.flows:
            lam_hat = fs.departures / fs.window
            assert fs.mean_queue_length == pytest.approx(
                lam_hat * fs.mean_delay, rel=1e-3
            )

    def test_stable_flag(self, fig5_stats):
        assert fig5_stats.stable


class TestQuietAndBoundary:
    def test_no_arrivals_in_horizon(self):
        # rate 1e-9 puts the first arrival around slot 1e9
        flow = TrafficFlow(1, Poisson(1e-9), DeterministicUnit())
        stats = simulate(SimConfig((flow,), 0.0, 10_000, seed=1))
        fs = stats.flow(1)
        assert fs.arrived == 0
        assert fs.served == 0
        assert fs.lost == 0
        assert fs.loss_rate == 0.0
        assert fs.mean_queue_length == 0.0
        assert math.isnan(fs.mean_delay)
        assert math.isnan(fs.ccdf(3))

    def test_waiting_convention_shifts_by_one_slot(self):
        # identical seed, identical event sequence; only the recorded
        # delay changes, by exactly the service slot
        base = dict(flows=(data_flow(),), attempt_failure_prob=0.1, horizon=20_000)
        soj = simulate(SimConfig(**base, seed=13, delay_convention="sojourn")).flow(2)
        wait = simulate(SimConfig(**base, seed=13, delay_convention="waiting")).flow(2)
        assert soj.delay_counts[0] == 0
        assert wait.delay_counts == soj.delay_counts[1:]


class TestLossLaw:
    def test_loss_rates_match_closed_form(self, fig5_stats):
        # unit-service voice loses each failed attempt; data needs four
        data_loss = packet_loss_probability(TruncatedGeometric(0.1, 4))
        for priority, want in ((1, 0.1), (2, data_loss)):
            fs = fig5_stats.flow(priority)
            se = math.sqrt(want * (1.0 - want) / fs.departures)
            assert abs(fs.loss_rate - want) <= 4.0 * se

    def test_perfect_channel_loses_nothing(self):
        flow = TrafficFlow(1, Poisson(0.5), DeterministicUnit())
        stats = simulate(SimConfig((flow,), 0.0, 50_000, seed=2))
        assert stats.flow(1).lost == 0


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
            (TrafficFlow(1, Poisson(0.5), DeterministicUnit()),),
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
        cfg = SimConfig((flow,), 0.0, 100_000, warmup=1_000, seed=9)
        stats = simulate(cfg)
        theta = 1.2564312086261697
        # far-tail thresholds only: nothing left to fit
        sparse = {d: math.exp(-theta * d) for d in (10, 12)}
        with pytest.raises(ConfigError):
            compare_with_analysis(cfg, 1, sparse, stats=stats)

    def test_exclusion_is_reported(self):
        flow = TrafficFlow(1, Poisson(0.5), DeterministicUnit())
        cfg = SimConfig((flow,), 0.0, 100_000, warmup=1_000, seed=9)
        theta = 1.2564312086261697
        analytic = {d: math.exp(-theta * d) for d in range(1, 9)}
        report = compare_with_analysis(cfg, 1, analytic)
        assert report.thresholds == (1, 2, 3, 4, 5, 6)
        assert report.excluded == (7, 8)


class TestTrendUnderLoad:
    def test_more_voice_lifts_data_delays(self):
        curves = {}
        for rate, seed in ((0.2, 3), (0.4, 4)):
            stats = simulate(
                SimConfig(
                    (voice_flow(rate), data_flow()),
                    0.1,
                    200_000,
                    warmup=5_000,
                    seed=seed,
                )
            )
            curves[rate] = stats
        assert curves[0.2].stable
        assert not curves[0.4].stable  # 0.4 + 0.6667 load crosses 1
        low = curves[0.2].flow(2)
        high = curves[0.4].flow(2)
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
}
ORACLE_GRID = [
    ("unit", 0.0), ("unit", 0.6),
    ("unit_over_retry", 0.1), ("unit_over_retry", 0.9),
    ("retry_over_unit", 0.15), ("retry_over_unit", 0.6),
    ("three_levels", 0.1), ("three_levels", 0.9),
    ("retry_one_attempt", 0.15),
    ("empty_flow", 0.1),
    ("overload", 0.0), ("overload", 0.1),
]


@pytest.mark.parametrize("kind, p", ORACLE_GRID)
def test_simulate_matches_slot_loop(kind, p):
    # the per-level simulator against the per-slot loop it replaced: same
    # draws, so every field of every FlowStats must agree exactly
    horizon = 10_000
    flows = ORACLE_SCENARIOS[kind](p)
    for seed in (1, 2, 3, 4):
        for convention in ("sojourn", "waiting"):
            for warmup in (0, horizon // 2, horizon - 1):
                cfg = SimConfig(flows, p, horizon, warmup, seed, convention)
                got, want = simulate(cfg), slot_loop_oracle.simulate(cfg)
                assert got == want
                assert repr(got) == repr(want)  # plain ints, not numpy scalars


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
