"""Robbins-Monro placement loop and the radius grid sweep.

The stochastic runs are pinned to fixed seeds; the statistical bands were
sized from repeated runs at other seeds before freezing.
"""
from __future__ import annotations

import math
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from dasqos import placement
from dasqos.errors import ConfigError
from dasqos.geometry import (
    AntennaVector,
    antenna_polar,
    hex_cluster,
    sample_user_vector,
    symmetric_circle,
)
from dasqos.outage import CellScenario, ChannelParams, expected_outage
from dasqos.placement import (
    RMConfig,
    RMTrace,
    _antennas_from_params,
    _fd_gradient,
    radius_sweep,
    rm_optimize,
    step_sequence,
)
import probe_loop_oracle

GRID = tuple(i * 0.05 for i in range(19))  # 0.0 .. 0.90


def cluster_scenario(exponent: float, on_probability: float = 1.0) -> CellScenario:
    return CellScenario(
        hex_cluster(7, 2.0),
        symmetric_circle(4, 0.3),
        ChannelParams(
            path_loss_exponent=exponent,
            spectral_efficiency=1.0,
            on_probability=on_probability,
        ),
    )


def short_run(max_iter: int = 25) -> tuple:
    cfg = RMConfig(
        mode="radius_only",
        step_scale=5.0,
        max_iter=max_iter,
        eval_samples=2,
        tolerance=1e-12,
    )
    return rm_optimize(
        cluster_scenario(2.0),
        symmetric_circle(4, 0.3),
        cfg,
        np.random.default_rng(5),
    )


DEFAULT_STEPS = (RMConfig().step_scale, RMConfig().step_exponent)


class TestStepSequence:
    def test_first_step(self):
        assert step_sequence(1, *DEFAULT_STEPS) == 15.0

    def test_sixteenth_step(self):
        # 15 / 16^0.75 = 15 / 8
        assert step_sequence(16, *DEFAULT_STEPS) == pytest.approx(1.875, abs=1e-15)

    def test_positive_and_decreasing(self):
        steps = [step_sequence(n, *DEFAULT_STEPS) for n in range(1, 61)]
        assert all(c > 0.0 for c in steps)
        assert all(a > b for a, b in zip(steps, steps[1:]))

    def test_custom_scale_and_exponent(self):
        assert step_sequence(4, scale=2.0, exponent=1.0) == pytest.approx(0.5)


class TestRMConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"step_scale": 0.0},
            {"step_scale": -2.0},
            {"step_exponent": 0.5},
            {"step_exponent": 1.01},
            {"fd_step": 0.0},
            {"max_iter": 0},
            {"convergence_window": 0},
            {"fd_step": -1e-4},
            {"convergence_window": -1},
            {"eval_samples": 0},
            {"eval_samples": 1},
        ],
    )
    def test_bad_field_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            RMConfig(**kwargs)

    def test_defaults_accepted(self):
        cfg = RMConfig()
        assert cfg.mode == "radius_only"
        assert cfg.step_scale == 15.0


class TestTrace:
    def test_polyak_recurrence_exact(self):
        _, trace = short_run()
        iterates = np.asarray(trace.iterates)
        averages = np.asarray(trace.averages)
        assert np.array_equal(averages[0], iterates[0])
        for k in range(1, len(trace)):
            step = averages[k - 1] + (iterates[k - 1] - averages[k - 1]) / k
            assert np.max(np.abs(averages[k] - step)) <= 1e-12

    def test_average_matches_definition(self):
        # row n stores the mean of the first n-1 raw iterates
        _, trace = short_run()
        iterates = np.asarray(trace.iterates)
        averages = np.asarray(trace.averages)
        for k in range(1, len(trace)):
            assert np.max(np.abs(averages[k] - iterates[:k].mean(axis=0))) <= 1e-12

    def test_columns_align(self):
        _, trace = short_run(max_iter=8)
        assert isinstance(trace, RMTrace)
        assert len(trace) == 8
        assert len(trace.averages) == 8
        assert len(trace.outage) == 8
        assert len(trace.outage_se) == 8
        assert all(0.0 <= p <= 1.0 for p in trace.outage)
        assert all(se >= 0.0 for se in trace.outage_se)
        assert not trace.diverged

    def test_single_iteration_returns_start(self):
        antennas, trace = short_run(max_iter=1)
        assert len(trace) == 1
        assert trace.iterates[0] == (0.3,)
        assert trace.averages[0] == (0.3,)
        assert not trace.converged
        assert antennas.radii == pytest.approx((0.3,) * 4)


class TestFixedPoint:
    @pytest.mark.parametrize("seed", [7, 2026])
    def test_centered_even_circle_stays_put(self, seed):
        # all four antennas coincide at the cell center, so the probe
        # directions cancel and the update has nothing to descend; the
        # spread below 0.02 is the one-sided-difference leak at the bound
        cfg = RMConfig(
            mode="radius_only", max_iter=60, eval_samples=2, tolerance=1e-12
        )
        _, trace = rm_optimize(
            cluster_scenario(4.0),
            symmetric_circle(4, 0.0),
            cfg,
            np.random.default_rng(seed),
        )
        assert max(row[0] for row in trace.iterates) <= 0.02
        assert trace.averages[-1][0] <= 0.02
        assert not trace.diverged


class TestOptimizerSweepConsistency:
    @pytest.mark.parametrize("exponent", [2.0, 4.0])
    def test_final_average_near_sweep_argmin(self, exponent):
        # the sweep and the loop share one outage engine, so the averaged
        # iterate must land on the grid argmin; step scale 5 keeps the
        # single shared-radius coordinate from slamming the bounds (the
        # default 15 suits full_polar, where each coordinate sees roughly
        # a quarter of this gradient)
        scenario = cluster_scenario(exponent)
        sweep = radius_sweep(scenario, GRID, 2000, np.random.default_rng(7))
        cfg = RMConfig(
            mode="radius_only",
            step_scale=5.0,
            max_iter=1500,
            eval_samples=2,
            tolerance=1e-12,
        )
        _, trace = rm_optimize(
            scenario, symmetric_circle(4, 0.3), cfg, np.random.default_rng(1)
        )
        argmin = sweep.radii[sweep.outage.index(min(sweep.outage))]
        assert abs(trace.averages[-1][0] - argmin) <= 0.05


class TestRotationInvariance:
    def test_expected_outage_flat_in_rotation(self):
        # independent streams per rotation; agreement within 3 combined
        # standard errors is the most the estimator can certify
        scenario = cluster_scenario(4.0)
        estimates = []
        for rotation, seed in ((0.0, 11), (math.pi / 6, 12), (math.pi / 4, 13)):
            antennas = symmetric_circle(4, 0.58, rotation)
            estimates.append(
                expected_outage(
                    replace(scenario, antennas=antennas), 6000, np.random.default_rng(seed)
                )
            )
        for i in range(len(estimates)):
            for j in range(i + 1, len(estimates)):
                gap = abs(estimates[i].value - estimates[j].value)
                band = 3.0 * math.hypot(estimates[i].std_err, estimates[j].std_err)
                assert gap <= band


class TestDivergenceFlag:
    def test_pinned_radius_with_live_gradient_reported(self):
        # the optimum sits far outside these bounds, so the iterate parks
        # on the upper edge while the gradient keeps pushing
        cfg = RMConfig(
            mode="radius_only",
            max_iter=12,
            convergence_window=5,
            eval_samples=2,
        )
        with mock.patch.object(placement, "RADIUS_BOUNDS", (0.0, 0.05)):
            _, trace = rm_optimize(
                cluster_scenario(2.0),
                symmetric_circle(4, 0.02),
                cfg,
                np.random.default_rng(3),
            )
        assert trace.diverged
        assert all(0.0 <= row[0] <= 0.05 for row in trace.iterates)


class TestRadiusSweep:
    def test_curve_structure(self):
        scenario = cluster_scenario(2.0)
        sweep = radius_sweep(scenario, GRID, 2000, np.random.default_rng(7))
        assert sweep.radii == GRID
        assert len(sweep.outage) == len(GRID)
        assert len(sweep.std_err) == len(GRID)
        k = sweep.outage.index(min(sweep.outage))
        # interior minimum, and centered antennas are clearly beatable;
        # the quarter-improvement figure itself is scored in the
        # acceptance suite
        assert 0 < k < len(GRID) - 1
        assert sweep.outage[k] < sweep.outage[0] * 0.85

    def test_common_random_numbers_reproduce(self):
        scenario = cluster_scenario(4.0)
        grid = (0.2, 0.5, 0.8)
        a = radius_sweep(scenario, grid, 500, np.random.default_rng(21))
        b = radius_sweep(scenario, grid, 500, np.random.default_rng(21))
        assert a.outage == b.outage
        assert a.std_err == b.std_err
        c = radius_sweep(scenario, grid, 500, np.random.default_rng(22))
        assert c.outage != a.outage


class TestFullPolar:
    def test_smoke_run_moves_all_coordinates(self):
        cfg = RMConfig(mode="full_polar", max_iter=8, eval_samples=2, tolerance=1e-12)
        init = symmetric_circle(4, 0.3)
        antennas, trace = rm_optimize(
            cluster_scenario(2.0), init, cfg, np.random.default_rng(9)
        )
        assert len(trace.iterates[0]) == 8  # four radii then four angles
        assert trace.iterates[0][:4] == pytest.approx((0.3,) * 4)
        assert trace.iterates[0][4:] == pytest.approx(
            (0.0, math.pi / 2, math.pi, 3 * math.pi / 2)
        )
        assert antennas.count == 4
        assert all(0.0 <= r <= 1.0 for r in antennas.radii)

    def test_intermittent_interferers_run(self):
        # the product form is exact at alpha < 1, so the probes need no
        # Monte Carlo and the search replays from its seed
        cfg = RMConfig(mode="radius_only", max_iter=3, eval_samples=2)
        runs = [
            rm_optimize(
                cluster_scenario(2.0, on_probability=0.75),
                symmetric_circle(4, 0.3),
                cfg,
                np.random.default_rng(4),
            )[1]
            for _ in range(2)
        ]
        assert len(runs[0]) == 3
        assert runs[0] == runs[1]


class TestBatchedScoring:
    """Bit identity of the hoisted user draws and the one-call probe batch.

    The sweep and the trace score every layout on one batch of users, and
    the gradient scores all its probes in one kernel call; each must equal
    the per-layout expected_outage or the per-probe scalar loop exactly.
    """

    @pytest.mark.parametrize("exponent,alpha", [(2.0, 1.0), (3.5, 0.6)])
    def test_sweep_rows_equal_expected_outage(self, exponent, alpha):
        scenario = cluster_scenario(exponent, alpha)
        grid = (0.0, 0.15, 0.5, 0.9, 1.0)
        sweep = radius_sweep(scenario, grid, 700, np.random.default_rng(13))
        spawned = int(np.random.default_rng(13).integers(2**63))
        base = scenario.antennas
        for r, value, se in zip(grid, sweep.outage, sweep.std_err):
            est = expected_outage(
                replace(scenario, antennas=AntennaVector((r,) * base.count, base.angles, base.height)),
                700,
                np.random.default_rng(spawned),
            )
            assert (value, se) == (est.value, est.std_err)

    @pytest.mark.parametrize("mode", ["radius_only", "full_polar"])
    def test_trace_rows_equal_expected_outage(self, mode):
        scenario = cluster_scenario(4.0, 0.8)
        init = symmetric_circle(4, 0.2)
        cfg = RMConfig(mode=mode, max_iter=12, eval_samples=300, tolerance=1e-12)
        _, trace = rm_optimize(scenario, init, cfg, np.random.default_rng(3))
        eval_seed = int(np.random.default_rng(3).integers(2**63))
        for average, value, se in zip(trace.averages, trace.outage, trace.outage_se):
            est = expected_outage(
                replace(scenario, antennas=_antennas_from_params(np.array(average), init, mode)),
                cfg.eval_samples,
                np.random.default_rng(eval_seed),
            )
            assert (value, se) == (est.value, est.std_err)

    @pytest.mark.parametrize("mode", ["radius_only", "full_polar"])
    def test_trace_is_scored_in_one_call(self, mode):
        # every iteration scores its 2P gradient probe layouts in one kernel
        # call on its one user vector; after the loop one call
        # scores every trace row, and a row whose Polyak average did not
        # move (row 2 repeats the start) scores as its predecessor
        scenario = cluster_scenario(4.0, 0.8)
        init = symmetric_circle(4, 0.2)
        cfg = RMConfig(mode=mode, max_iter=12, eval_samples=300, tolerance=1e-12)
        layouts_per_call = []

        def counting(channel, polar, *rest):
            layouts_per_call.append(len(polar))
            return kernel(channel, polar, *rest)

        kernel = placement.layout_outage
        with mock.patch.object(placement, "layout_outage", counting):
            _, trace = rm_optimize(scenario, init, cfg, np.random.default_rng(3))
        probes = 2 if mode == "radius_only" else 16
        moved = [a != b for a, b in zip(trace.averages, trace.averages[1:])]
        assert moved[0] is False and sum(moved) >= 5
        assert len(trace) == cfg.max_iter
        assert layouts_per_call == [probes] * cfg.max_iter + [len(trace)]
        for row, moved_here in enumerate(moved, start=1):
            if not moved_here:
                assert trace.outage[row] == trace.outage[row - 1]
                assert trace.outage_se[row] == trace.outage_se[row - 1]

    @pytest.mark.parametrize("mode", ["radius_only", "full_polar"])
    @pytest.mark.parametrize(
        "max_iter, window, tolerance, rows",
        [(1, 10, 1e-12, 1), (40, 3, 3e-2, 4)],  # one row; converged early
    )
    def test_short_traces_equal_expected_outage(self, mode, max_iter, window, tolerance, rows):
        scenario = cluster_scenario(4.0, 0.8)
        init = symmetric_circle(4, 0.2)
        cfg = RMConfig(
            mode=mode,
            max_iter=max_iter,
            convergence_window=window,
            eval_samples=300,
            tolerance=tolerance,
        )
        _, trace = rm_optimize(scenario, init, cfg, np.random.default_rng(3))
        assert len(trace) == rows and trace.converged == (rows < max_iter)
        eval_seed = int(np.random.default_rng(3).integers(2**63))
        for average, value, se in zip(trace.averages, trace.outage, trace.outage_se):
            est = expected_outage(
                replace(scenario, antennas=_antennas_from_params(np.array(average), init, mode)),
                cfg.eval_samples,
                np.random.default_rng(eval_seed),
            )
            assert (value, se) == (est.value, est.std_err)

    @pytest.mark.parametrize("budget", [1, 700, 2 * 700, 5 * 700 - 1])
    def test_sliced_scoring_equals_one_slice(self, budget):
        # one row per slice, two rows, four: each row's mean and standard
        # error are the ones a single slice gives, bit for bit
        scenario = cluster_scenario(3.5, 0.6)
        grid = tuple(i * 0.1 for i in range(9))
        whole = radius_sweep(scenario, grid, 700, np.random.default_rng(13))
        with mock.patch.object(placement, "_SCORE_VALUES", budget):
            sliced = radius_sweep(scenario, grid, 700, np.random.default_rng(13))
        assert sliced == whole

    def test_scoring_memory_stays_under_budget(self):
        # 400 layouts on 5,000 users: all the values at once are 16 MB, and
        # slices of 2**19 values peak at 5,856,707 bytes; the bound is that
        # plus 10%
        scenario = cluster_scenario(4.0)
        rng = np.random.default_rng(2)
        polar = antenna_polar(rng.random((400, 4)), rng.random((400, 4)) * 6.0)
        tracemalloc.start()
        try:
            placement._score(scenario, polar, 0.05, 5000, 9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6.45e6

    @pytest.mark.parametrize("mode", ["radius_only", "full_polar"])
    def test_search_leaves_rng_stream_in_place(self, mode):
        # the evaluation seed, then one user vector per iteration: a search
        # of 12 iterations leaves rng where earlier versions left it
        cfg = RMConfig(mode=mode, max_iter=12, eval_samples=300, tolerance=1e-12)
        rng = np.random.default_rng(3)
        rm_optimize(cluster_scenario(4.0, 0.8), symmetric_circle(4, 0.2), cfg, rng)
        assert rng.random() == 0.8473039702317086

    @staticmethod
    def _check_gradient(scenario, params, init, cfg, users):
        upos = probe_loop_oracle.user_positions(scenario.layout, users)
        grad = _fd_gradient(scenario, params, init, cfg, upos[:, 0], upos[:, 1])
        reference = probe_loop_oracle.fd_gradient(scenario, params, init, cfg, users)
        assert grad.tobytes() == reference.tobytes()
        return grad

    @pytest.mark.parametrize("mode", ["radius_only", "full_polar"])
    @pytest.mark.parametrize("bounds", [(0.0, 1.0), (0.2, 0.7)])
    def test_gradient_probes_at_radius_bounds(self, mode, bounds):
        # radii on, just inside and between the bounds take one-sided and
        # central probes; each must equal the per-probe scalar loop
        cfg = RMConfig(mode=mode, fd_step=1e-3)
        lo, hi = bounds
        scenario = cluster_scenario(3.0)
        users = sample_user_vector(scenario.layout, np.random.default_rng(17))
        init = AntennaVector((0.3,) * 4, (0.3, 1.9, 3.5, 5.0))
        for radii in ([lo, hi, lo + 4e-4, hi - 4e-4], [hi, lo, 0.5 * (lo + hi), hi]):
            params = np.array(radii[:1] if mode == "radius_only" else radii + list(init.angles))
            with mock.patch.object(placement, "RADIUS_BOUNDS", bounds):
                grad = self._check_gradient(scenario, params, init, cfg, users)
            assert np.all(np.isfinite(grad)) and np.any(grad != 0.0)

    # a probe whose angle crosses 0 or 2*pi or a neighbour's angle sorts its
    # antennas in another order than the base layout: (angles, antenna
    # probed, direction, the probe's radii in its order)
    REORDERING_PROBES = [
        # the first antenna sits 0.5 fd_step above angle 0: its lower probe
        # wraps past 2*pi and sorts last
        ((5e-5, 1.2, 2.9, 4.4), 0, -1, (0.6, 0.5, 0.7, 0.4)),
        # the last sits 0.5 fd_step below 2*pi: its upper probe wraps past 0
        # and sorts first
        ((1.2, 2.9, 4.4, 2 * math.pi - 5e-5), 3, +1, (0.7, 0.4, 0.6, 0.5)),
        # the middle two sit 0.5 fd_step apart: the second antenna's upper
        # probe passes the third's angle (a swap of the first two factors
        # would not change the product's bits)
        ((1.2, 2.9, 2.9 + 5e-5, 4.4), 1, +1, (0.4, 0.5, 0.6, 0.7)),
    ]

    def test_gradient_angle_probe_wraps_and_reorders(self):
        # each probe's outage must be the product in the probe's own order
        cfg = RMConfig(mode="full_polar", fd_step=1e-4)
        for angles, moved, sign, order in self.REORDERING_PROBES:
            init = AntennaVector((0.4, 0.6, 0.5, 0.7), angles)
            params = np.array(list(init.radii) + list(init.angles))
            probe = params.copy()
            probe[init.count + moved] += sign * cfg.fd_step
            assert init.radii == (0.4, 0.6, 0.5, 0.7)
            assert _antennas_from_params(probe, init, cfg.mode).radii == order
            for exponent, alpha in [(2.0, 1.0), (4.0, 0.5)]:
                scenario = cluster_scenario(exponent, alpha)
                rng = np.random.default_rng(int(exponent))
                for _ in range(5):
                    users = sample_user_vector(scenario.layout, rng)
                    self._check_gradient(scenario, params, init, cfg, users)

    @pytest.mark.parametrize("mode", ["radius_only", "full_polar"])
    def test_gradient_random_points_match_scalar_loop(self, mode):
        rng = np.random.default_rng(2026)
        cfg = RMConfig(mode=mode, fd_step=1e-4)
        for exponent, alpha in [(2.0, 1.0), (3.7, 0.35), (4.0, 1.0)]:
            scenario = cluster_scenario(exponent, alpha)
            for _ in range(15):
                init = AntennaVector(
                    tuple(rng.uniform(0.0, 1.0, 4)), tuple(rng.uniform(0.0, 2 * math.pi, 4))
                )
                # on, just inside and away from the radius bounds
                radii = list(rng.choice([0.0, 1.0, 5e-5, 1.0 - 5e-5, 0.4], 4))
                params = np.array(radii[:1] if mode == "radius_only" else radii + list(init.angles))
                users = sample_user_vector(scenario.layout, rng)
                self._check_gradient(scenario, params, init, cfg, users)
