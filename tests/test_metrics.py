"""Tests for the mutual-information metrics against naive dense oracles."""

import numpy as np
import pytest

import isacpilot as ip
from isacpilot import (
    ArrayGeometry,
    GmmUserModel,
    IsacObjective,
    SensingScene,
    substream,
)
from isacpilot.channel import build_user_models
from isacpilot.metrics import WORKING_SET, pieces, sense_state
from oracles import (
    comm_mi_lower_bound_gaussian,
    comm_mi_user,
    sense_kl_and_g,
    sense_kl_direct,
    sensing_mu,
    sensing_vectors,
    steering_vector,
)


def random_prior(seed, n_tx=6, n_comp=4):
    """(weights, means, covariances) of a generic random mixture with
    full-rank covariances and random means."""
    rng = substream(seed, "model")
    weights = rng.uniform(0.2, 1.0, n_comp)
    weights /= weights.sum()
    means = (rng.standard_normal((n_comp, n_tx)) + 1j * rng.standard_normal((n_comp, n_tx))) / 2
    covs = np.empty((n_comp, n_tx, n_tx), dtype=complex)
    for k in range(n_comp):
        a = (rng.standard_normal((n_tx, n_tx)) + 1j * rng.standard_normal((n_tx, n_tx))) / 2
        covs[k] = a @ a.conj().T / n_tx
    return weights, means, covs


def random_model(seed, n_tx=6, n_comp=4, noise_std=0.7):
    """The model of ``random_prior(seed, n_tx, n_comp)``."""
    return GmmUserModel(*random_prior(seed, n_tx, n_comp), noise_std=noise_std)


def random_scene(seed, geom, n_clutter=2):
    """Random scene with angularly separated clutter so the large-array
    approximation stays inside its log domain (domain failures get their
    own dedicated tests)."""
    rng = substream(seed, "scene")
    target = float(rng.uniform(-45, 45))
    offsets = rng.uniform(20, 55, n_clutter) * np.where(np.arange(n_clutter) % 2 == 0, 1, -1)
    powers = rng.uniform(0.2, 0.6, n_clutter)
    return SensingScene(
        target_angle=target,
        target_power=float(rng.uniform(0.5, 2.0)),
        clutter=tuple((float(target + o), float(p)) for o, p in zip(offsets, powers)),
        radar_noise_std=float(rng.uniform(0.8, 2.0)),
        geometry=geom,
    )


def naive_comm_mi(phi, model, covariances):
    """Direct evaluation of the surrogate without log-domain tricks, from the
    covariances R_n ``model`` was built from."""
    n_slots = phi.shape[0]
    sigma2 = model.noise_std**2
    h_bar = model.weights @ model.means
    acc = 0.0
    for alpha, mu, cov in zip(model.weights, model.means, covariances):
        mu_bar = h_bar - mu
        sig = phi @ cov @ phi.conj().T + sigma2 * np.eye(n_slots)
        beta = (mu_bar.conj() @ phi.conj().T @ np.linalg.inv(sig) @ phi @ mu_bar).real
        acc += alpha * np.exp(-beta) / np.linalg.det(sig).real
    return -np.log(acc) + n_slots * np.log(np.pi) - n_slots * np.log(np.pi * sigma2 * np.e)


def dense_whitened_snr(pilot, scene):
    mus = sensing_vectors(pilot, scene)
    dim = mus[0].size
    cov = scene.radar_noise_std**2 * np.eye(dim, dtype=complex)
    for p, mu in zip(scene.clutter_powers, mus[1:]):
        cov += p * np.outer(mu, mu.conj())
    return scene.target_power * np.vdot(mus[0], np.linalg.solve(cov, mus[0])).real


class TestCommMi:
    def test_zero_covariance_single_component(self):
        pilot = ip.random_stiefel(3, 8, substream(0, "p"))
        model = GmmUserModel(
            weights=[1.0], means=np.ones((1, 8)), covariances=np.zeros((1, 8, 8)), noise_std=0.4
        )
        assert comm_mi_user(pilot, model) == pytest.approx(-3.0, abs=1e-12)

    def test_scaled_identity_closed_form(self):
        pilot = ip.random_stiefel(4, 9, substream(1, "p"))
        c, sigma = 0.9, 0.35
        model = GmmUserModel(
            weights=[1.0], means=np.zeros((1, 9)), covariances=c * np.eye(9)[None], noise_std=sigma
        )
        expected = 4 * np.log(1 + c / sigma**2) - 4
        assert comm_mi_user(pilot, model) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_naive_oracle(self, seed):
        pilot = ip.random_stiefel(3, 6, substream(seed, "oracle-p"))
        model = random_model(seed)
        ours = comm_mi_user(pilot, model)
        naive = naive_comm_mi(pilot.entries, model, random_prior(seed)[2])
        assert ours == pytest.approx(naive, rel=1e-10)

    def test_component_permutation_invariance(self):
        pilot = ip.random_stiefel(3, 6, substream(7, "perm-p"))
        model = random_model(7)
        perm = np.array([2, 0, 3, 1])
        permuted = GmmUserModel(
            weights=model.weights[perm],
            means=model.means[perm],
            covariances=random_prior(7)[2][perm],
            noise_std=model.noise_std,
        )
        assert comm_mi_user(pilot, model) == pytest.approx(
            comm_mi_user(pilot, permuted), rel=1e-12
        )

    def test_weighted_composition(self):
        pilot = ip.random_stiefel(3, 6, substream(8, "w-p"))
        models = [random_model(10), random_model(11)]
        scene = random_scene(0, ArrayGeometry(n_tx=6, n_rx=3))
        obj = IsacObjective(rho=0.5, user_weights=[0.3, 0.7], users=models, scene=scene)
        expected = 0.3 * comm_mi_user(pilot, models[0]) + 0.7 * comm_mi_user(pilot, models[1])
        assert ip.comm_mi_weighted(pilot, obj) == pytest.approx(expected, rel=1e-14)

    def test_single_user_weight_one(self):
        pilot = ip.random_stiefel(3, 6, substream(9, "single"))
        model = random_model(12)
        scene = random_scene(1, ArrayGeometry(n_tx=6, n_rx=3))
        obj = IsacObjective(rho=0.5, user_weights=[1.0], users=[model], scene=scene)
        assert ip.comm_mi_weighted(pilot, obj) == comm_mi_user(pilot, model)

    def test_identical_users_collapse_to_one(self):
        pilot = ip.random_stiefel(3, 6, substream(14, "dup"))
        model = random_model(15)
        scene = random_scene(2, ArrayGeometry(n_tx=6, n_rx=3))
        obj = IsacObjective(rho=0.5, user_weights=[0.5, 0.5], users=[model, model], scene=scene)
        assert ip.comm_mi_weighted(pilot, obj) == pytest.approx(
            comm_mi_user(pilot, model), rel=1e-14
        )

    def test_dimension_mismatch(self):
        pilot = ip.random_stiefel(3, 6, substream(13, "dim"))
        with pytest.raises(ip.DimensionError):
            comm_mi_user(pilot, random_model(0, n_tx=5))


class TestSensingMu:
    geom = ArrayGeometry(n_tx=6, n_rx=4)

    def test_single_receive_antenna(self):
        geom = ArrayGeometry(n_tx=6, n_rx=1)
        pilot = ip.random_stiefel(3, 6, substream(0, "mu"))
        mu = sensing_mu(pilot, geom, 25.0)
        np.testing.assert_allclose(mu, pilot.entries @ steering_vector(6, 0.5, 25.0), atol=1e-13)

    def test_identity_pilot_norm(self):
        pilot = ip.PilotMatrix(np.eye(6)[:3])
        mu = sensing_mu(pilot, self.geom, 42.0)
        assert np.linalg.norm(mu) ** 2 == pytest.approx(4 * 3, rel=1e-12)

    def test_norm_identity(self):
        pilot = ip.random_stiefel(3, 6, substream(1, "mu"))
        for theta in (-60.0, 10.0, 75.0):
            mu = sensing_mu(pilot, self.geom, theta)
            u = pilot.entries @ steering_vector(6, 0.5, theta)
            assert abs(np.linalg.norm(mu) ** 2 - 4 * np.linalg.norm(u) ** 2) <= 1e-10

    def test_factored_inner_product(self):
        pilot = ip.random_stiefel(3, 6, substream(2, "mu"))
        t0, t1 = -35.0, 50.0
        mu0 = sensing_mu(pilot, self.geom, t0)
        mu1 = sensing_mu(pilot, self.geom, t1)
        a0, a1 = (steering_vector(4, 0.5, t) for t in (t0, t1))
        u0, u1 = (pilot.entries @ steering_vector(6, 0.5, t) for t in (t0, t1))
        factored = np.vdot(a0, a1) * np.vdot(u0, u1)
        assert abs(np.vdot(mu0, mu1) - factored) <= 1e-10


class TestSensingMi:
    geom = ArrayGeometry(n_tx=8, n_rx=4)

    def test_no_target_gives_zero(self):
        scene = SensingScene(
            target_angle=10.0, target_power=0.0, clutter=((0.0, 0.5),), radar_noise_std=1.0,
            geometry=self.geom,
        )
        pilot = ip.random_stiefel(3, 8, substream(0, "s"))
        assert ip.sensing_mi(pilot, scene, "exact") == 0.0

    def test_identity_pilot_closed_form(self):
        scene = SensingScene(
            target_angle=30.0, target_power=1.5, clutter=(), radar_noise_std=1.2, geometry=self.geom
        )
        pilot = ip.PilotMatrix(np.eye(8)[:3])
        expected = np.log(1 + 1.5 * 4 * 3 / 1.2**2)
        assert ip.sensing_mi(pilot, scene, "exact") == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_exact_matches_dense_oracle(self, seed):
        scene = random_scene(seed, self.geom, n_clutter=2)
        pilot = ip.random_stiefel(3, 8, substream(seed, "s"))
        dense = np.log1p(dense_whitened_snr(pilot, scene))
        assert ip.sensing_mi(pilot, scene, "exact") == pytest.approx(dense, rel=1e-12)

    @pytest.mark.parametrize("n_clutter", [0, 1])
    def test_approx_equals_exact_low_rank(self, n_clutter):
        scene = random_scene(3, self.geom, n_clutter=n_clutter)
        pilot = ip.random_stiefel(3, 8, substream(3, "s"))
        exact = ip.sensing_mi(pilot, scene, "exact")
        approx = ip.sensing_mi(pilot, scene, "approx")
        assert abs(exact - approx) <= 1e-10

    def test_nonnegative_and_monotone_in_target_power(self):
        pilot = ip.random_stiefel(3, 8, substream(4, "s"))
        base = random_scene(4, self.geom)
        values = []
        for power in (0.0, 0.5, 1.0, 2.0, 5.0):
            scene = SensingScene(
                target_angle=base.target_angle, target_power=power, clutter=base.clutter,
                radar_noise_std=base.radar_noise_std, geometry=self.geom,
            )
            values.append(ip.sensing_mi(pilot, scene, "exact"))
        assert values[0] == 0.0
        assert all(v >= 0 for v in values)
        assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))

    def test_clutter_weights_match_dense_vectors(self):
        # z_i = nu_i mu_i^H mu_0 / (sigma^2 + nu_i ||mu_i||^2), 0 for the zero-power source
        scene = SensingScene(
            target_angle=15.0, target_power=1.2,
            clutter=((-30.0, 0.6), (40.0, 0.0), (21.0, 2.0)), radar_noise_std=0.9,
            geometry=self.geom,
        )
        pilot = ip.random_stiefel(3, 8, substream(8, "s"))
        mus = sensing_vectors(pilot, scene)
        sigma2 = scene.radar_noise_std**2
        expected = np.array(
            [
                nu * np.vdot(mu, mus[0]) / (sigma2 + nu * np.vdot(mu, mu).real)
                for nu, mu in zip(scene.clutter_powers, mus[1:])
            ]
        )
        z = sense_state(pilot, scene).z
        assert z.shape == (3,) and z[1] == 0.0
        assert np.abs(z - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_domain_error_carries_value(self):
        # two strong clutter sources sitting on the target make the
        # large-array approximation overshoot below zero
        scene = SensingScene(
            target_angle=20.0, target_power=50.0,
            clutter=((20.0, 200.0), (20.0, 200.0)), radar_noise_std=0.5, geometry=self.geom,
        )
        pilot = ip.random_stiefel(3, 8, substream(5, "s"))
        with pytest.raises(ip.ObjectiveDomainError) as excinfo:
            ip.sensing_mi(pilot, scene, "approx")
        assert excinfo.value.value <= 0.0

    def test_formula_selector(self):
        scene = random_scene(6, self.geom)
        pilot = ip.random_stiefel(3, 8, substream(6, "s"))
        # one kernel: each formula's metric is the log of its state's argument
        for formula in ("approx", "exact"):
            state = sense_state(pilot, scene, formula)
            assert ip.sensing_mi(pilot, scene, formula) == np.log(state.arg)
        assert ip.sensing_mi(pilot, scene) == ip.sensing_mi(pilot, scene, "approx")
        assert ip.sensing_mi(pilot, scene, "exact") != ip.sensing_mi(pilot, scene, "approx")
        with pytest.raises(ip.InvalidParameterError):
            sense_state(pilot, scene, "other")
        with pytest.raises(ip.InvalidParameterError):
            ip.sensing_mi(pilot, scene, "other")

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("formula", ["approx", "exact"])
    def test_non_finite_pilot_raises(self, formula, bad):
        scene = random_scene(7, self.geom, n_clutter=2)
        phi = ip.random_stiefel(3, 8, substream(7, "s")).entries
        phi[1, 2] = bad
        with pytest.raises(ip.NumericError, match=r"^pilot\[1, 2\]: expected a finite number$"):
            ip.sensing_mi(phi, scene, formula)


class TestIsacObjective:
    geom = ArrayGeometry(n_tx=8, n_rx=4)

    def _setup(self, rho):
        model = random_model(20, n_tx=8)
        scene = random_scene(20, self.geom)
        return IsacObjective(rho=rho, user_weights=[1.0], users=[model], scene=scene)

    def test_rho_extremes(self):
        pilot = ip.random_stiefel(3, 8, substream(21, "i"))
        obj1 = self._setup(1.0)
        assert ip.isac_objective(pilot, obj1) == pytest.approx(
            ip.comm_mi_weighted(pilot, obj1), rel=1e-14
        )
        obj0 = self._setup(0.0)
        assert ip.isac_objective(pilot, obj0) == pytest.approx(
            ip.sensing_mi(pilot, obj0.scene, "approx"), rel=1e-14
        )

    def test_midpoint_is_mean(self):
        pilot = ip.random_stiefel(3, 8, substream(22, "i"))
        obj = self._setup(0.5)
        expected = 0.5 * (
            ip.comm_mi_weighted(pilot, obj) + ip.sensing_mi(pilot, obj.scene, "approx")
        )
        assert ip.isac_objective(pilot, obj) == pytest.approx(expected, rel=1e-14)

    def test_weight_validation(self):
        model = random_model(23, n_tx=8)
        scene = random_scene(23, self.geom)
        with pytest.raises(ip.InvalidParameterError):
            IsacObjective(rho=1.2, user_weights=[1.0], users=[model], scene=scene)
        with pytest.raises(ip.InvalidParameterError):
            IsacObjective(rho=0.5, user_weights=[0.5, 0.4], users=[model, model], scene=scene)

    @pytest.mark.parametrize(
        "weights", [[np.nan, np.nan], [np.nan, 1.0], [1.5, -0.5]], ids=["nan", "nan-one", "negative"]
    )
    def test_nan_or_negative_user_weights_fail(self, weights):
        model = random_model(24, n_tx=8)
        scene = random_scene(24, self.geom)
        with pytest.raises(ip.InvalidParameterError, match="user weights"):
            IsacObjective(rho=0.5, user_weights=weights, users=[model, model], scene=scene)


class TestUnitaryInvariance:
    @pytest.mark.parametrize("seed", range(5))
    def test_both_metrics_invariant(self, seed):
        geom = ArrayGeometry(n_tx=8, n_rx=4)
        pilot = ip.random_stiefel(3, 8, substream(seed, "ui-p"))
        model = random_model(seed, n_tx=8)
        scene = random_scene(seed, geom)
        rng = substream(seed, "ui-u")
        z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        q, _ = np.linalg.qr(z)
        rotated = ip.PilotMatrix(q @ pilot.entries)
        assert abs(comm_mi_user(rotated, model) - comm_mi_user(pilot, model)) <= 1e-9
        exact = [ip.sensing_mi(p, scene, "exact") for p in (rotated, pilot)]
        assert abs(exact[0] - exact[1]) <= 1e-9


class TestKlAndG:
    geom = ArrayGeometry(n_tx=8, n_rx=4)

    def test_no_target(self):
        scene = SensingScene(
            target_angle=0.0, target_power=0.0, clutter=((10.0, 0.3),), radar_noise_std=1.0,
            geometry=self.geom,
        )
        pilot = ip.random_stiefel(3, 8, substream(0, "kl"))
        assert sense_kl_and_g(pilot, scene) == (0.0, 0.0)

    def test_saturation_at_huge_power(self):
        scene = SensingScene(
            target_angle=25.0, target_power=1e6, clutter=(), radar_noise_std=1.0, geometry=self.geom
        )
        pilot = ip.random_stiefel(3, 8, substream(1, "kl"))
        _, g = sense_kl_and_g(pilot, scene)
        assert abs(g - 1.0) <= 1e-3

    @pytest.mark.parametrize("seed", range(5))
    def test_closed_form_matches_direct(self, seed):
        scene = random_scene(seed, self.geom)
        pilot = ip.random_stiefel(3, 8, substream(seed, "kl"))
        kl, g = sense_kl_and_g(pilot, scene)
        assert kl == pytest.approx(sense_kl_direct(pilot, scene), abs=1e-10)
        assert 0.0 <= g < 1.0
        assert kl >= 0.0


class TestCommLowerBound:
    def _single(self, cov, noise=0.5):
        return GmmUserModel(
            weights=[1.0], means=np.zeros((1, cov.shape[0])), covariances=cov[None], noise_std=noise
        )

    def test_identity_covariance_unit_error(self):
        pilot = ip.random_stiefel(3, 6, substream(0, "lb"))
        cov = np.eye(6, dtype=complex)
        assert comm_mi_lower_bound_gaussian(pilot, cov[None], trace_mse=6.0) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_monotone_in_error(self):
        pilot = ip.random_stiefel(3, 6, substream(1, "lb"))
        cov = 2.0 * np.eye(6, dtype=complex)
        lo = comm_mi_lower_bound_gaussian(pilot, cov[None], trace_mse=1.0)
        hi = comm_mi_lower_bound_gaussian(pilot, cov[None], trace_mse=0.1)
        assert hi > lo

    def test_bound_below_surrogate_via_mmse(self):
        # joint experiment: empirical MMSE error plugged into the bound must
        # stay below the surrogate up to Monte Carlo slack
        rng = substream(3, "lb-exp")
        pilot = ip.random_stiefel(3, 6, substream(3, "lb-p"))
        a = (rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))) / np.sqrt(6)
        cov = a @ a.conj().T
        model = self._single(cov, noise=0.4)
        channels = ip.sample_channels(model, 10_000, rng)
        noise = 0.4 * ip.complex_normal(rng, (10_000, 3))
        obs = channels @ pilot.entries.T + noise
        est = ip.gmm_mmse_batch(obs, pilot, model)
        trace_mse = float(np.mean(np.sum(np.abs(channels - est) ** 2, axis=1)))
        bound = comm_mi_lower_bound_gaussian(pilot, cov[None], trace_mse)
        assert bound <= comm_mi_user(pilot, model) + 0.05


class TestCWorst:
    def test_effective_snr_limits(self):
        assert ip.effective_training_snr(0.0) == 1.0
        assert ip.effective_training_snr(1.0) == 0.0
        assert ip.effective_training_snr(3.0) == 0.0
        assert ip.effective_training_snr(0.1) < ip.effective_training_snr(0.05)
        with pytest.raises(ip.InvalidParameterError):
            ip.effective_training_snr(-0.1)

    def test_effective_snr_rejects_nan(self):
        # a NaN error variance would read back as a NaN SNR
        with pytest.raises(ip.InvalidParameterError, match="error variance"):
            ip.effective_training_snr(np.nan)

    @pytest.mark.parametrize("block_len", [np.nan, np.inf])
    def test_rejects_non_finite_block_length(self, block_len):
        # either would make the block-length discount NaN
        geom = ArrayGeometry(n_tx=8, n_rx=2)
        model = build_user_models(geom, [(30.0, 10.0, 0.1)], 24)[0]
        pilot = ip.random_stiefel(3, 8, substream(7, "cw"))
        with pytest.raises(ip.InvalidParameterError, match="block_len"):
            ip.c_worst_estimate(pilot, [model], block_len, 10, substream(7, "cw"))

    def test_block_length_prefactor(self):
        geom = ArrayGeometry(n_tx=8, n_rx=2)
        model = build_user_models(geom, [(30.0, 10.0, 0.1)], 24)[0]
        pilot = ip.random_stiefel(3, 8, substream(4, "cw"))
        short = ip.c_worst_estimate(pilot, [model], 10, 50, substream(5, "cw"))
        long = ip.c_worst_estimate(pilot, [model], 10_000, 50, substream(5, "cw"))
        # identical draws, so the ratio is exactly the block-length discount
        assert short / long == pytest.approx((10 / 13) / (10_000 / 10_003), rel=1e-12)

    def test_rejects_zero_trials(self):
        geom = ArrayGeometry(n_tx=8, n_rx=2)
        model = build_user_models(geom, [(30.0, 10.0, 0.1)], 24)[0]
        pilot = ip.random_stiefel(3, 8, substream(6, "cw"))
        with pytest.raises(ip.InvalidParameterError):
            ip.c_worst_estimate(pilot, [model], 100, 0, substream(6, "cw"))

    def test_optimized_not_worse_than_random(self):
        geom = ArrayGeometry(n_tx=12, n_rx=4)
        model = build_user_models(geom, [(40.0, 10.0, 0.1)], 90)[0]
        scene = SensingScene(
            target_angle=-20.0, target_power=1.0, clutter=(), radar_noise_std=2.0, geometry=geom
        )
        obj = IsacObjective(rho=1.0, user_weights=[1.0], users=[model], scene=scene)
        cfg = ip.OptimizerConfig(step_size=0.1, max_iters=120, rel_tol=1e-8)
        diffs = []
        for seed in range(20):
            init = ip.random_stiefel(4, 12, substream(seed, "cw-init"))
            opt = ip.optimize_pgd(init, obj, cfg).final_pilot
            rnd = ip.random_stiefel(4, 12, substream(seed, "cw-rnd"))
            c_opt = ip.c_worst_estimate(opt, [model], 100, 200, substream(seed, "cw-mc"))
            c_rnd = ip.c_worst_estimate(rnd, [model], 100, 200, substream(seed, "cw-mc"))
            diffs.append(c_opt - c_rnd)
        assert np.median(diffs) >= 0.0


class TestPieces:
    """``metrics.pieces``: the one rule that sizes stacked and chunked work."""

    @pytest.mark.parametrize(
        "n, unit_bytes",
        [(1000, 16_000), (1000, 7_000), (5000, 384), (600, 3_120), (3000, 6_112), (0, 1)],
    )
    def test_slices_cover_the_range_in_order(self, n, unit_bytes):
        size = max(1, WORKING_SET // unit_bytes)
        slices = pieces(n, unit_bytes)
        assert [i for piece in slices for i in range(n)[piece]] == list(range(n))
        lengths = [piece.stop - piece.start for piece in slices]
        assert all(0 < length <= size for length in lengths)
        assert all(length == size for length in lengths[:-1])

    def test_a_unit_above_the_budget_gets_a_piece_of_one(self):
        assert pieces(3, 10 * WORKING_SET) == [slice(0, 1), slice(1, 2), slice(2, 3)]

    def test_fewer_units_than_a_piece_give_one_piece(self):
        assert pieces(5, WORKING_SET // 10) == [slice(0, 5)]
