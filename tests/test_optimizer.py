"""Tests for Stiefel projection, gradient ascent, sweeps and Pareto filtering."""

import pickle
from dataclasses import replace

import numpy as np
import pytest

import isacpilot as ip
from isacpilot import (
    OptimizerConfig,
    optimize_pgd,
    pareto_filter,
    project_stiefel,
    random_stiefel,
    sample_feasible_cloud,
    substream,
)

from oracles import sweep_traces
from test_metrics import random_model, random_scene


def small_objective(seed=0, rho=0.5, n_tx=8, n_rx=4):
    model = random_model(seed, n_tx=n_tx)
    scene = random_scene(seed, ip.ArrayGeometry(n_tx=n_tx, n_rx=n_rx), n_clutter=1)
    return ip.IsacObjective(rho=rho, user_weights=[1.0], users=[model], scene=scene)


class TestProjectStiefel:
    def test_fixed_point(self):
        pilot = random_stiefel(3, 8, substream(0, "proj"))
        again = project_stiefel(pilot.entries)
        np.testing.assert_allclose(again.entries, pilot.entries, atol=1e-12)

    def test_positive_scaling_invariance(self):
        pilot = random_stiefel(3, 8, substream(1, "proj"))
        scaled = project_stiefel(2.7 * pilot.entries)
        np.testing.assert_allclose(scaled.entries, pilot.entries, atol=1e-12)

    def test_idempotent(self):
        rng = substream(2, "proj")
        z = rng.standard_normal((3, 8)) + 1j * rng.standard_normal((3, 8))
        once = project_stiefel(z)
        twice = project_stiefel(once.entries)
        np.testing.assert_allclose(twice.entries, once.entries, atol=1e-12)

    def test_rejects_rank_deficient(self):
        z = np.zeros((2, 5), dtype=complex)
        z[0, 0] = 1.0
        with pytest.raises(ip.SingularMatrixError):
            project_stiefel(z)

    def test_closest_among_random_candidates(self):
        rng = substream(3, "proj")
        z = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        projected = project_stiefel(z)
        best = np.linalg.norm(projected.entries - z)
        sampler = substream(4, "proj-candidates")
        for _ in range(10_000):
            candidate = random_stiefel(2, 4, sampler)
            assert np.linalg.norm(candidate.entries - z) >= best - 1e-12


class TestRandomStiefel:
    def test_residual(self):
        pilot = random_stiefel(4, 9, substream(5, "rs"))
        assert pilot.residual <= 1e-10

    def test_distinct_seeds_distinct_pilots(self):
        a = random_stiefel(3, 8, substream(6, "rs"))
        b = random_stiefel(3, 8, substream(7, "rs"))
        assert np.linalg.norm(a.entries - b.entries) > 1e-3

    def test_column_energy_average(self):
        rng = substream(8, "rs")
        total = np.zeros(6)
        n = 1000
        for _ in range(n):
            total += np.sum(np.abs(random_stiefel(3, 6, rng).entries) ** 2, axis=0)
        np.testing.assert_allclose(total / n, 0.5, rtol=0.05)

    def test_rejects_wide(self):
        with pytest.raises(ip.DimensionError):
            random_stiefel(5, 5, substream(9, "rs"))


class TestOptimizePgd:
    def test_constant_objective_is_fixed_point(self):
        # no target and pure sensing weight: zero gradient everywhere
        geom = ip.ArrayGeometry(n_tx=8, n_rx=4)
        scene = ip.SensingScene(
            target_angle=0.0, target_power=0.0, clutter=(), radar_noise_std=1.0, geometry=geom
        )
        objective = ip.IsacObjective(
            rho=0.0, user_weights=[1.0], users=[random_model(0, n_tx=8)], scene=scene
        )
        init = random_stiefel(3, 8, substream(10, "pgd"))
        trace = optimize_pgd(init, objective, OptimizerConfig(max_iters=20, rel_tol=0.0))
        assert np.ptp(trace.objective) == 0.0
        np.testing.assert_allclose(trace.final_pilot.entries, init.entries, atol=1e-12)

    def test_endpoint_ascent_comm_only(self):
        objective = small_objective(seed=11, rho=1.0)
        init = random_stiefel(3, 8, substream(11, "pgd"))
        trace = optimize_pgd(init, objective, OptimizerConfig(max_iters=150, rel_tol=1e-8))
        assert trace.comm_mi[-1] >= trace.comm_mi[0] - 1e-9

    def test_every_iterate_feasible(self):
        objective = small_objective(seed=12, rho=0.4)
        init = random_stiefel(3, 8, substream(12, "pgd"))
        trace = optimize_pgd(init, objective, OptimizerConfig(max_iters=100, rel_tol=0.0))
        assert trace.residual.max() <= 1e-8
        assert len(trace.objective) == len(trace.residual) == trace.n_iterations + 1 == 101
        assert trace.stop_reason == "max_iters"

    def test_deterministic(self):
        objective = small_objective(seed=13, rho=0.6)
        init = random_stiefel(3, 8, substream(13, "pgd"))
        cfg = OptimizerConfig(max_iters=50, rel_tol=0.0)
        t1 = optimize_pgd(init, objective, cfg)
        t2 = optimize_pgd(init, objective, cfg)
        assert np.array_equal(t1.objective, t2.objective)
        assert np.array_equal(t1.final_pilot.entries, t2.final_pilot.entries)

    def test_early_stop_window(self):
        objective = small_objective(seed=14, rho=0.5)
        init = random_stiefel(3, 8, substream(14, "pgd"))
        trace = optimize_pgd(init, objective, OptimizerConfig(max_iters=200, rel_tol=1e-3))
        assert trace.n_iterations < 200
        assert trace.stop_reason == "rel_tol"

    def test_stop_on_rel_tol_at_the_cap_is_not_capped(self):
        # the window test first runs, and passes, at iteration 10, the cap
        objective = small_objective(seed=14, rho=0.5)
        init = random_stiefel(3, 8, substream(14, "pgd"))
        trace = optimize_pgd(init, objective, OptimizerConfig(max_iters=10, rel_tol=1.0))
        assert trace.n_iterations == 10
        assert trace.stop_reason == "rel_tol"

    def test_domain_error_carries_iteration_context(self):
        geom = ip.ArrayGeometry(n_tx=8, n_rx=4)
        scene = ip.SensingScene(
            target_angle=20.0, target_power=50.0,
            clutter=((20.0, 200.0), (20.0, 200.0)), radar_noise_std=0.5, geometry=geom,
        )
        objective = ip.IsacObjective(
            rho=0.0, user_weights=[1.0], users=[random_model(15, n_tx=8)], scene=scene
        )
        init = random_stiefel(3, 8, substream(15, "pgd"))
        with pytest.raises(ip.ObjectiveDomainError, match="iteration") as excinfo:
            optimize_pgd(init, objective, OptimizerConfig(max_iters=10))
        # a worker pool hands a unit's error to the parent pickled
        stacked = ip.ObjectiveDomainError("log argument of pilot 3 is -0.5 <= 0", -0.5, 3)
        for exc in (stacked, excinfo.value):
            clone = pickle.loads(pickle.dumps(exc))
            assert type(clone) is ip.ObjectiveDomainError
            assert str(clone) == str(exc) and clone.value == exc.value
            assert clone.index == exc.index
        assert str(clone).startswith("iteration 0: ")

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_projection_raises_numeric_error(self, bad):
        z = random_stiefel(3, 8, substream(19, "proj")).entries.copy()
        z[1, 2] = bad
        with pytest.raises(ip.NumericError, match="projection"):
            project_stiefel(z)

    def test_overflowing_step_carries_iteration_context(self):
        # a finite step so large that an ascent step overflows to infinity
        model = random_model(19, n_tx=8, noise_std=0.1)
        scene = random_scene(19, ip.ArrayGeometry(n_tx=8, n_rx=4), n_clutter=1)
        objective = ip.IsacObjective(rho=1.0, user_weights=[1.0], users=[model], scene=scene)
        init = random_stiefel(3, 8, substream(19, "pgd"))
        with np.errstate(over="ignore"), pytest.raises(ip.NumericError, match=r"^iteration \d+: projection"):
            optimize_pgd(init, objective, OptimizerConfig(step_size=1e308, max_iters=5))

    def test_config_validation(self):
        with pytest.raises(ip.InvalidParameterError):
            OptimizerConfig(step_size=0.0)
        with pytest.raises(ip.InvalidParameterError):
            OptimizerConfig(max_iters=0)
        with pytest.raises(ip.InvalidParameterError):
            OptimizerConfig(rel_tol=-1.0)

    @pytest.mark.parametrize("field", ["step_size", "max_iters", "rel_tol"])
    def test_config_rejects_nan(self, field):
        with pytest.raises(ip.InvalidParameterError):
            OptimizerConfig(**{field: np.nan})


class TestRhoSweep:
    def test_two_endpoint_sweep(self):
        objective = small_objective(seed=16)
        init = random_stiefel(3, 8, substream(16, "sweep"))
        points = sweep_traces(objective, [0.0, 1.0], init, OptimizerConfig(max_iters=40))
        assert [rho for rho, _ in points] == [0.0, 1.0]
        assert all(trace.residual[-1] <= 1e-8 for _, trace in points)

    def test_twenty_one_values_supported(self):
        objective = small_objective(seed=17)
        init = random_stiefel(3, 8, substream(17, "sweep"))
        grid = np.linspace(0.0, 1.0, 21)
        points = sweep_traces(objective, grid, init, OptimizerConfig(max_iters=3, rel_tol=0.0))
        assert len(points) == 21
        np.testing.assert_allclose([rho for rho, _ in points], grid)

    def test_rejects_out_of_range(self):
        objective = small_objective(seed=18)
        with pytest.raises(ip.InvalidParameterError):
            replace(objective, rho=1.5)


class TestParetoFilter:
    def test_mutually_nondominated_kept(self):
        assert pareto_filter([(1.0, 2.0), (2.0, 1.0)]) == [(1.0, 2.0), (2.0, 1.0)]

    def test_strict_domination_drops(self):
        assert pareto_filter([(1.0, 1.0), (2.0, 2.0)]) == [(2.0, 2.0)]

    def test_four_point_example(self):
        points = [(1.0, 1.0), (1.0, 2.0), (2.0, 1.0), (0.5, 0.5)]
        assert pareto_filter(points) == [(1.0, 2.0), (2.0, 1.0)]

    def test_duplicates_survive(self):
        points = [(1.0, 1.0), (1.0, 1.0)]
        assert pareto_filter(points) == points

    def test_empty(self):
        assert pareto_filter([]) == []

    @pytest.mark.parametrize(
        "bad", [(np.nan, 1.0), (1.0, np.inf), (1.0, 2.0, 3.0)], ids=["nan", "inf", "3-d"]
    )
    def test_not_a_finite_pair_raises(self, bad):
        with pytest.raises(ip.InvalidParameterError):
            pareto_filter([(0.0, 0.0), bad])

    @pytest.mark.parametrize("seed", range(3))
    def test_against_brute_force(self, seed):
        rng = substream(seed, "pareto")
        uniform = rng.uniform(0, 1, size=(120, 2))
        # integers on the lines x + y = 5 and 6: runs of equal x, ties in y, duplicates
        x = rng.integers(0, 6, size=120)
        grid = np.column_stack((x, 5 - x + rng.integers(0, 2, size=120))).astype(float)
        for pts in ([tuple(row) for row in uniform], [tuple(row) for row in grid]):
            kept = pareto_filter(pts)
            expected = []
            for p in pts:
                dominated = any(
                    q[0] >= p[0] and q[1] >= p[1] and (q[0] > p[0] or q[1] > p[1]) for q in pts
                )
                if not dominated:
                    expected.append(p)
            assert kept == expected
        assert len(kept) > len(set(kept)) > 1  # duplicates survive on a front of several points


class TestFeasibleCloud:
    def test_single_sample(self):
        objective = small_objective(seed=19, rho=0.0)
        cloud = sample_feasible_cloud(1, 3, objective, substream(19, "cloud"))
        assert cloud.shape == (1, 2)
        assert np.all(np.isfinite(cloud))

    def test_all_finite(self):
        objective = small_objective(seed=20, rho=0.0)
        cloud = sample_feasible_cloud(50, 3, objective, substream(20, "cloud"))
        assert np.all(np.isfinite(cloud))

    def test_rejects_zero_samples(self):
        objective = small_objective(seed=21, rho=0.0)
        with pytest.raises(ip.InvalidParameterError):
            sample_feasible_cloud(0, 3, objective, substream(21, "cloud"))

    @pytest.mark.parametrize("formula", ["approx", "exact"])
    def test_stacks_equal_one_pilot_at_a_time(self, formula):
        # 19 samples in one stack, whose communication metric takes pieces of
        # its own size (metrics.pieces)
        objective = replace(small_objective(seed=22, rho=0.0), sensing_formula=formula)
        cloud = sample_feasible_cloud(19, 3, objective, substream(22, "cloud"))
        rng = substream(22, "cloud")
        for pair in cloud:
            pilot = random_stiefel(3, 8, rng)
            sense = ip.sensing_mi(pilot, objective.scene, formula)
            assert pair.tolist() == [sense, ip.comm_mi_weighted(pilot, objective)]

    def test_rank_deficient_draw_raises(self, monkeypatch):
        def deficient(rng, shape):
            draws = ip.complex_normal(rng, shape)
            draws[-1, 1] = draws[-1, 0]  # the last pilot of the stack repeats a row
            return draws

        monkeypatch.setattr(ip.optimizer, "complex_normal", deficient)
        objective = small_objective(seed=23, rho=0.0)
        with pytest.raises(ip.SingularMatrixError):
            sample_feasible_cloud(5, 3, objective, substream(23, "cloud"))

    def test_non_orthonormal_projection_raises(self, monkeypatch):
        polar = ip.optimizer._polar
        monkeypatch.setattr(ip.optimizer, "_polar", lambda z: 1.001 * polar(z))
        objective = small_objective(seed=25, rho=0.0)
        with pytest.raises(ip.InvalidParameterError, match="not orthonormal"):
            sample_feasible_cloud(5, 3, objective, substream(25, "cloud"))

    def test_rejects_a_pilot_as_long_as_the_array(self):
        objective = small_objective(seed=24, rho=0.0)
        with pytest.raises(ip.DimensionError):
            sample_feasible_cloud(2, 8, objective, substream(24, "cloud"))
