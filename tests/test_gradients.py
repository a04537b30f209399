"""Gradient correctness against the central finite-difference oracle.

Every gradient here comes from the package's one gradient routine,
``gradients.isac_value_and_grad``: the communication and sensing gradients
as one-user objectives at rho = 1 and rho = 0 (``oracles.comm_grad`` and
``oracles.sense_grad``).  The rho-weighted combination is compared with
gradients computed apart from it: the dense formula ``oracles.dense_comm``
and the sensing term on its own ``sense_state``.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import isacpilot as ip
from isacpilot import finite_diff_check, substream
from isacpilot.config import build_objective, parse_config
from isacpilot.gradients import STENCIL_STACK, _sense_grad, isac_value_and_grad
from isacpilot.metrics import sense_state

from oracles import comm_grad, comm_mi_user, dense_comm, per_entry_finite_diff_check, sense_grad
from test_metrics import random_model, random_prior, random_scene

ROOT = Path(__file__).resolve().parents[1]


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


def separate_gradients(pilot, objective, seed):
    """(weighted dense communication gradient, sensing gradient of its own
    ``sense_state``) of ``make_instance(seed)``, both computed apart from
    ``isac_value_and_grad``; the dense gradient reads each user's R_n from
    its seed."""
    stacks = [random_prior(s, n_tx=pilot.n_tx)[2] for s in (seed, seed + 100)]
    comm = sum(
        w * dense_comm(pilot.entries, model, covs)[1]
        for w, model, covs in zip(objective.user_weights, objective.users, stacks, strict=True)
    )
    sense = _sense_grad(sense_state(pilot, objective.scene), objective.scene, "approx")
    return comm, sense


class TestFiniteDiffCheck:
    """``objective_fn`` maps a (P, L, N_t) stack of at most ``STENCIL_STACK``
    stencil points to P values."""

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
        n = STENCIL_STACK  # 8 * 3 * 7 = 168 points, so the first stack is full
        with pytest.raises(ip.DimensionError, match=rf"\({n}, L, N_t\) stack to {n} values"):
            finite_diff_check(lambda p: 0.0, lambda p: np.zeros_like(p), pilot)

    def test_rejects_bad_step(self):
        pilot = ip.random_stiefel(3, 7, substream(3, "fd"))
        with pytest.raises(ip.InvalidParameterError):
            finite_diff_check(lambda p: 0.0, lambda p: np.zeros_like(p), pilot, step=0.0)

    def test_rejects_a_nan_step(self):
        # every stencil difference would be NaN, which max() drops: an error of 0
        pilot = ip.random_stiefel(3, 7, substream(3, "fd"))
        zeros = np.zeros(8)
        with pytest.raises(ip.InvalidParameterError, match="step"):
            finite_diff_check(lambda p: zeros, lambda p: np.zeros_like(p), pilot, step=np.nan)

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


    @pytest.mark.parametrize("shape", [(2, 3), (3, 7), (4, 16)])
    def test_stacks_hold_the_per_entry_stencil_points(self, shape):
        # 48, 168 and 512 points: one partial stack, two full and a partial, eight full
        pilot = ip.random_stiefel(*shape, substream(5, "fd-stacks"))
        stacks, per_entry = [], []

        def recording(into):
            def value_fn(p):
                into.append(p.copy())
                return np.linalg.norm(p, axis=(1, 2)) ** 2

            return value_fn

        finite_diff_check(recording(stacks), np.asarray, pilot)
        per_entry_finite_diff_check(recording(per_entry), np.asarray, pilot)
        n_points = 8 * pilot.entries.size
        assert len(stacks) == -(-n_points // STENCIL_STACK)
        assert all(len(stack) == STENCIL_STACK for stack in stacks[:-1])
        assert np.concatenate(stacks).tobytes() == np.concatenate(per_entry).tobytes()

    @pytest.mark.parametrize("index", range(3))
    def test_worst_error_matches_the_per_entry_check(self, index):
        # the three checks of a gradcheck_small instance; the objective's
        # values move only at roundoff with the stack size, which moves a
        # numeric derivative by about 1e-12 relative at this step
        config = parse_config(str(ROOT / "configs" / "gradcheck_small.yaml"))
        scenario, step = config.scenario, config.task_params["step"]
        objective = build_objective(scenario, scenario["rho"])
        comm_obj = replace(objective, rho=1.0, user_weights=[1.0], users=objective.users[:1])
        sense_obj = replace(comm_obj, rho=0.0)
        pilot = ip.random_stiefel(scenario["pilot_len"], scenario["n_tx"], substream(index, "fd-gc"))
        for value_fn, obj in (
            (lambda p: ip.comm_mi_weighted(p, comm_obj), comm_obj),
            (lambda p: ip.sensing_mi(p, objective.scene, objective.sensing_formula), sense_obj),
            (lambda p: ip.isac_objective(p, objective), objective),
        ):
            grad_fn = lambda p, obj=obj: isac_value_and_grad(p, obj)[3]  # noqa: E731
            got = finite_diff_check(value_fn, grad_fn, pilot, step)
            expected = per_entry_finite_diff_check(value_fn, grad_fn, pilot, step)
            assert 0.0 < expected < 1e-5
            assert abs(got - expected) <= 1e-11

    def test_nan_objective_names_the_first_entry(self):
        pilot = ip.random_stiefel(3, 8, substream(6, "fd"))
        phi = pilot.entries

        def value_fn(p):
            values = np.linalg.norm(p, axis=(1, 2)) ** 2
            moved = p != phi  # one moved entry per stencil point
            values[moved[:, 2, 0] | moved[:, 1, 6]] = np.nan
            return values

        with pytest.raises(ip.NumericError, match=r"pilot entry \(1, 6\)"):
            finite_diff_check(value_fn, np.asarray, pilot)

    def test_nan_gradient_names_the_first_entry(self):
        pilot = ip.random_stiefel(3, 8, substream(6, "fd"))
        grad = pilot.entries.copy()
        grad[2, 5] = grad[2, 7] = np.nan
        with pytest.raises(ip.NumericError, match=r"pilot entry \(2, 5\)"):
            finite_diff_check(lambda p: np.linalg.norm(p, axis=(1, 2)) ** 2, lambda p: grad, pilot)


class TestCommGradient:
    def test_zero_for_constant_objective(self):
        pilot = ip.random_stiefel(3, 8, substream(4, "cg"))
        model = ip.GmmUserModel(
            weights=[1.0], means=np.ones((1, 8)), covariances=np.zeros((1, 8, 8)), noise_std=0.5
        )
        np.testing.assert_allclose(comm_grad(pilot, model), 0.0, atol=1e-14)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_finite_differences(self, seed):
        pilot, model, _, _ = make_instance(seed)
        err = finite_diff_check(
            lambda p: comm_mi_user(p, model),
            lambda p: comm_grad(p, model),
            pilot,
            step=1e-4,
        )
        assert err <= 1e-6

    def test_equivariance_under_left_unitary(self):
        pilot, model, _, _ = make_instance(9)
        rng = substream(9, "cg-u")
        z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        q, _ = np.linalg.qr(z)
        g_base = comm_grad(pilot, model)
        g_rot = comm_grad(ip.PilotMatrix(q @ pilot.entries), model)
        np.testing.assert_allclose(g_rot, q @ g_base, atol=1e-8)


class TestSensingGradient:
    def test_zero_without_target(self):
        geom = ip.ArrayGeometry(n_tx=8, n_rx=4)
        scene = ip.SensingScene(
            target_angle=10.0, target_power=0.0, clutter=((0.0, 0.5),), radar_noise_std=1.0,
            geometry=geom,
        )
        pilot = ip.random_stiefel(3, 8, substream(10, "sg"))
        np.testing.assert_allclose(sense_grad(pilot, scene), 0.0, atol=1e-15)

    @pytest.mark.parametrize("n_clutter", [0, 2, 3])
    def test_matches_finite_differences(self, n_clutter):
        pilot = ip.random_stiefel(3, 8, substream(11 + n_clutter, "sg"))
        scene = random_scene(11 + n_clutter, ip.ArrayGeometry(n_tx=8, n_rx=4), n_clutter=n_clutter)
        if n_clutter == 3:  # the middle source has zero power
            (a0, p0), (a1, _), second = scene.clutter
            scene = replace(scene, clutter=((a0, p0), (a1, 0.0), second))
        err = finite_diff_check(
            lambda p: ip.sensing_mi(p, scene, "approx"),
            lambda p: sense_grad(p, scene),
            pilot,
            step=1e-4,
        )
        assert err <= 1e-6

    def test_clutter_free_gradient_is_the_target_term_bit_for_bit(self):
        # without clutter the gradient is nu_0 / (sigma^2 arg) N_r u_0 a_0^H
        # alone, formed in this order, so clutter-free ascents keep their bits
        pilot = ip.random_stiefel(3, 8, substream(15, "sg"))
        scene = random_scene(15, ip.ArrayGeometry(n_tx=8, n_rx=4), n_clutter=0)
        state = sense_state(pilot, scene)
        a_tx, _, powers = scene._sense_terms
        numer = scene.geometry.n_rx * np.outer(state.u[0], a_tx[0].conj())
        expected = (powers[0] / scene.radar_noise_std**2 / state.arg) * numer
        assert np.array_equal(_sense_grad(state, scene, "approx"), expected)
        assert np.array_equal(sense_grad(pilot, scene), expected)

    @pytest.mark.parametrize("n_clutter", [0, 1, 2, 3])
    def test_exact_metric_takes_the_stencil_stacks(self, n_clutter):
        # the exact metric's gradient (the full clutter block conj(z_i) z_j)
        # checks its stencil stacks; with two and three sources the
        # approximate gradient would read 1.3e-4 and 1.67 against them
        pilot = ip.random_stiefel(3, 8, substream(31 + n_clutter, "sg"))
        scene = random_scene(31 + n_clutter, ip.ArrayGeometry(n_tx=8, n_rx=4), n_clutter=n_clutter)
        err = finite_diff_check(
            lambda p: ip.sensing_mi(p, scene, "exact"),
            lambda p: sense_grad(p, scene, "exact"),
            pilot,
            step=1e-4,
        )
        assert err <= 1e-6

    def test_exact_gradient_with_a_zero_power_source(self):
        # a zero-power source gets z_i = 0 from the solve itself: the metric,
        # its weights and its gradient equal those of the scene without it
        pilot = ip.random_stiefel(3, 8, substream(35, "sg"))
        scene = random_scene(35, ip.ArrayGeometry(n_tx=8, n_rx=4), n_clutter=3)
        (a0, p0), (a1, _), second = scene.clutter
        silent = replace(scene, clutter=((a0, p0), (a1, 0.0), second))
        without = replace(scene, clutter=((a0, p0), second))
        z = sense_state(pilot, silent, "exact").z
        assert z[1] == 0.0
        np.testing.assert_allclose(z[[0, 2]], sense_state(pilot, without, "exact").z, rtol=1e-12)
        exact = ip.sensing_mi(pilot, silent, "exact")
        assert exact == pytest.approx(ip.sensing_mi(pilot, without, "exact"), rel=1e-13)
        np.testing.assert_allclose(
            sense_grad(pilot, silent, "exact"), sense_grad(pilot, without, "exact"), rtol=1e-11
        )
        err = finite_diff_check(
            lambda p: ip.sensing_mi(p, silent, "exact"),
            lambda p: sense_grad(p, silent, "exact"),
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
            sense_grad(pilot, scene)


class TestIsacGradient:
    def test_rho_extremes(self):
        pilot, _, _, objective = make_instance(15)
        from dataclasses import replace

        comm, sense = separate_gradients(pilot, objective, 15)
        obj0 = replace(objective, rho=0.0)
        np.testing.assert_allclose(isac_value_and_grad(pilot, obj0)[3], sense, atol=1e-14)
        obj1 = replace(objective, rho=1.0)
        np.testing.assert_allclose(isac_value_and_grad(pilot, obj1)[3], comm, atol=1e-14)

    def test_linear_composition(self):
        pilot, _, _, objective = make_instance(16)
        comm, sense = separate_gradients(pilot, objective, 16)
        expected = 0.35 * comm + 0.65 * sense
        np.testing.assert_allclose(isac_value_and_grad(pilot, objective)[3], expected, atol=1e-13)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_finite_differences(self, seed):
        pilot, _, _, objective = make_instance(seed + 30)
        err = finite_diff_check(
            lambda p: ip.isac_objective(p, objective),
            lambda p: isac_value_and_grad(p, objective)[3],
            pilot,
            step=1e-4,
        )
        assert err <= 1e-6

    def test_all_entries_finite_on_manifold(self):
        for seed in range(5):
            pilot, _, _, objective = make_instance(seed + 50)
            grad = isac_value_and_grad(pilot, objective)[3]
            assert np.all(np.isfinite(grad.view(float)))
