"""Gradient correctness against the central finite-difference oracle."""

import numpy as np
import pytest

import isacpilot as ip
from isacpilot import GradientMatrix, finite_diff_check, substream

from test_metrics import random_model, random_scene


def make_instance(seed, n_tx=8, n_rx=4, n_slots=3):
    pilot = ip.random_stiefel(n_slots, n_tx, substream(seed, "grad-p"))
    model = random_model(seed, n_tx=n_tx)
    scene = random_scene(seed, ip.ArrayGeometry(n_tx=n_tx, n_rx=n_rx))
    objective = ip.IsacObjective(
        rho=0.35,
        user_weights=[0.6, 0.4],
        users=[model, random_model(seed + 100, n_tx=n_tx)],
        scene=scene,
    )
    return pilot, model, scene, objective


class TestFiniteDiffCheck:
    """``objective_fn`` maps an (8, L, N_t) stack of stencil points to 8 values."""

    def test_frobenius_norm_squared(self):
        pilot = ip.random_stiefel(3, 7, substream(0, "fd"))
        err = finite_diff_check(
            lambda p: np.linalg.norm(p, axis=(1, 2)) ** 2, lambda p: np.asarray(p), pilot
        )
        assert err <= 1e-8

    def test_linear_trace_functional(self):
        rng = substream(1, "fd")
        c = rng.standard_normal((7, 3)) + 1j * rng.standard_normal((7, 3))
        pilot = ip.random_stiefel(3, 7, substream(2, "fd"))
        err = finite_diff_check(
            lambda p: np.trace(c.T @ p.transpose(0, 2, 1), axis1=1, axis2=2).real,
            lambda p: c.conj().T / 2.0,
            pilot,
        )
        assert err <= 1e-8

    def test_rejects_a_scalar_objective(self):
        pilot = ip.random_stiefel(3, 7, substream(3, "fd"))
        with pytest.raises(ip.DimensionError, match="8 values"):
            finite_diff_check(lambda p: 0.0, lambda p: np.zeros_like(p), pilot)

    def test_rejects_bad_step(self):
        pilot = ip.random_stiefel(3, 7, substream(3, "fd"))
        with pytest.raises(ip.InvalidParameterError):
            finite_diff_check(lambda p: 0.0, lambda p: np.zeros_like(p), pilot, step=0.0)

    # max() drops a NaN error, so a broken objective or gradient would pass as a perfect match
    def test_rejects_a_nan_objective(self):
        pilot = ip.random_stiefel(3, 8, substream(3, "fd"))
        with pytest.raises(ip.NumericError, match=r"pilot entry \(0, 0\)"):
            finite_diff_check(lambda p: np.full(len(p), np.nan), lambda p: np.ones((3, 8), complex), pilot)

    def test_rejects_a_nan_gradient(self):
        pilot = ip.random_stiefel(3, 8, substream(3, "fd"))
        with pytest.raises(ip.NumericError, match=r"pilot entry \(0, 0\)"):
            finite_diff_check(
                lambda p: np.linalg.norm(p, axis=(1, 2)) ** 2, lambda p: np.full((3, 8), np.nan), pilot
            )


class TestCommGradient:
    def test_zero_for_constant_objective(self):
        pilot = ip.random_stiefel(3, 8, substream(4, "cg"))
        model = ip.GmmUserModel(
            weights=[1.0], means=np.ones((1, 8)), covariances=np.zeros((1, 8, 8)), noise_std=0.5
        )
        grad = ip.grad_comm_mi_user(pilot, model)
        np.testing.assert_allclose(grad.entries, 0.0, atol=1e-14)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_finite_differences(self, seed):
        pilot, model, _, _ = make_instance(seed)
        err = finite_diff_check(
            lambda p: ip.comm_mi_user(p, model),
            lambda p: ip.grad_comm_mi_user(p, model),
            pilot,
            step=1e-4,
        )
        assert err <= 1e-6

    def test_equivariance_under_left_unitary(self):
        pilot, model, _, _ = make_instance(9)
        rng = substream(9, "cg-u")
        z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        q, _ = np.linalg.qr(z)
        g_base = ip.grad_comm_mi_user(pilot, model).entries
        g_rot = ip.grad_comm_mi_user(ip.PilotMatrix(q @ pilot.entries), model).entries
        np.testing.assert_allclose(g_rot, q @ g_base, atol=1e-8)


class TestSensingGradient:
    def test_zero_without_target(self):
        geom = ip.ArrayGeometry(n_tx=8, n_rx=4)
        scene = ip.SensingScene(
            target_angle=10.0, target_power=0.0, clutter=((0.0, 0.5),), radar_noise_std=1.0,
            geometry=geom,
        )
        pilot = ip.random_stiefel(3, 8, substream(10, "sg"))
        np.testing.assert_allclose(ip.grad_sensing_mi(pilot, scene).entries, 0.0, atol=1e-15)

    @pytest.mark.parametrize("n_clutter", [0, 2])
    def test_matches_finite_differences(self, n_clutter):
        pilot = ip.random_stiefel(3, 8, substream(11 + n_clutter, "sg"))
        scene = random_scene(11 + n_clutter, ip.ArrayGeometry(n_tx=8, n_rx=4), n_clutter=n_clutter)
        err = finite_diff_check(
            lambda p: ip.sensing_mi_approx(p, scene),
            lambda p: ip.grad_sensing_mi(p, scene),
            pilot,
            step=1e-4,
        )
        assert err <= 1e-6

    def test_domain_error_propagates(self):
        geom = ip.ArrayGeometry(n_tx=8, n_rx=4)
        scene = ip.SensingScene(
            target_angle=20.0, target_power=50.0,
            clutter=((20.0, 200.0), (20.0, 200.0)), radar_noise_std=0.5, geometry=geom,
        )
        pilot = ip.random_stiefel(3, 8, substream(14, "sg"))
        with pytest.raises(ip.ObjectiveDomainError):
            ip.grad_sensing_mi(pilot, scene)


class TestIsacGradient:
    def test_rho_extremes(self):
        pilot, model, scene, objective = make_instance(15)
        from dataclasses import replace

        obj0 = replace(objective, rho=0.0)
        np.testing.assert_allclose(
            ip.grad_isac(pilot, obj0).entries,
            ip.grad_sensing_mi(pilot, scene).entries,
            atol=1e-14,
        )
        obj1 = replace(objective, rho=1.0)
        expected = 0.6 * ip.grad_comm_mi_user(pilot, objective.users[0]).entries
        expected += 0.4 * ip.grad_comm_mi_user(pilot, objective.users[1]).entries
        np.testing.assert_allclose(ip.grad_isac(pilot, obj1).entries, expected, atol=1e-14)

    def test_linear_composition(self):
        pilot, _, scene, objective = make_instance(16)
        comm = 0.6 * ip.grad_comm_mi_user(pilot, objective.users[0]).entries
        comm += 0.4 * ip.grad_comm_mi_user(pilot, objective.users[1]).entries
        sense = ip.grad_sensing_mi(pilot, scene).entries
        expected = 0.35 * comm + 0.65 * sense
        np.testing.assert_allclose(ip.grad_isac(pilot, objective).entries, expected, atol=1e-13)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_finite_differences(self, seed):
        pilot, _, _, objective = make_instance(seed + 30)
        err = finite_diff_check(
            lambda p: ip.isac_objective(p, objective),
            lambda p: ip.grad_isac(p, objective),
            pilot,
            step=1e-4,
        )
        assert err <= 1e-6

    def test_all_entries_finite_on_manifold(self):
        for seed in range(5):
            pilot, _, _, objective = make_instance(seed + 50)
            grad = ip.grad_isac(pilot, objective)
            assert np.all(np.isfinite(grad.entries.view(float)))


class TestGradientMatrixType:
    def test_rejects_nonfinite(self):
        with pytest.raises(ip.NumericError):
            GradientMatrix(np.array([[np.inf + 0j, 0j]]))

    def test_wraps_entries(self):
        g = GradientMatrix(np.zeros((2, 3), dtype=complex))
        assert g.entries.shape == (2, 3)
