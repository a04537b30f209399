"""Tests for detection, estimation and link-level evaluation."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import isacpilot as ip
from isacpilot import (
    ArrayGeometry,
    GmmUserModel,
    SensingScene,
    gmm_mmse_batch,
    nmse_experiment,
    roc_curve,
    ser_experiment,
    simulate_detection_trials,
    substream,
    zf_precode,
)
from isacpilot.channel import build_user_models
from isacpilot.config import build_users, parse_config
from isacpilot.evaluation import (
    CONSTELLATION,
    _estimate_draws,
    _qam_labels,
    _roc_thresholds,
)
from isacpilot.metrics import sense_state
from oracles import (
    detector_statistic,
    mmse_with_weights,
    nearest_level_index,
    pooled_covariance,
    region_covariances,
    scenario_covariances,
    sensing_vectors,
    simulate_radar_frame,
)

GEOM = ArrayGeometry(n_tx=8, n_rx=3)
SER_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "ser_multiuser.yaml"
NMSE_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "nmse_baselines.yaml"
CLUTTER_CASES = [(), ((10.0, 0.4),), ((10.0, 0.4), (-30.0, 2.5))]  # 0, 1 and 2 sources


def clutter_scene(target_power=1.0, radar_noise_std=1.0, clutter=((10.0, 0.4),)):
    return SensingScene(
        target_angle=45.0,
        target_power=target_power,
        clutter=clutter,
        radar_noise_std=radar_noise_std,
        geometry=GEOM,
    )


def all_draws_first(pilot, scene, n_trials, rng):
    """Oracle of ``simulate_detection_trials``: every draw held at once,
    then combined.  Under h0 w^H y is CN(0, a), a = w^H mu_0, read from the
    exact sensing state, so each trial's interference is one standard
    complex normal scaled by sqrt(a); the targets are drawn after all of
    them."""
    _, gram, _, z = sense_state(pilot, scene, "exact")
    a = (gram[0, 0].real - np.vdot(gram[1:, 0], z).real) / scene.radar_noise_std**2
    interf = np.sqrt(a) * ip.complex_normal(rng, (n_trials,))
    gamma_t = ip.complex_normal(rng, (n_trials,))
    target = np.sqrt(scene.target_power) * gamma_t * a
    return np.abs(interf) ** 2, np.abs(interf + target) ** 2


def sampler_variance(pilot, scene):
    """The h0 variance a that ``simulate_detection_trials`` scales its
    interference by, recovered as t0 / |g|^2 from the interference draws g
    of its own substream."""
    t0, _ = simulate_detection_trials(pilot, scene, 8, substream(0, "variance"))
    a = t0 / np.abs(ip.complex_normal(substream(0, "variance"), (8,))) ** 2
    assert np.allclose(a, a[0], rtol=1e-12, atol=0.0)
    return a[0]


def traced_roc_peak(n_trials):
    """Traced peak bytes of one ``roc_curve`` call with two clutter sources."""
    pilot = ip.random_stiefel(3, 8, substream(22, "rf"))
    scene = clutter_scene(clutter=((10.0, 0.4), (-30.0, 2.5)))
    tracemalloc.start()
    try:
        roc_curve(pilot, scene, n_trials, [1e-4, 1e-2, 0.5], substream(23, "trials"))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestRadarFrame:
    def test_fixed_seed_is_bit_identical(self):
        pilot = ip.random_stiefel(3, 8, substream(0, "rf"))
        scene = clutter_scene()
        a = simulate_radar_frame(pilot, scene, "H1", substream(1, "frame"))
        b = simulate_radar_frame(pilot, scene, "H1", substream(1, "frame"))
        assert np.array_equal(a, b)

    def test_pure_noise_variance(self):
        pilot = ip.random_stiefel(3, 8, substream(2, "rf"))
        scene = clutter_scene(clutter=())
        rng = substream(3, "frames")
        frames = np.stack([simulate_radar_frame(pilot, scene, "H0", rng) for _ in range(2000)])
        assert np.mean(np.abs(frames) ** 2) == pytest.approx(scene.radar_noise_std**2, rel=0.05)

    def test_zero_power_target_matches_h0(self):
        pilot = ip.random_stiefel(3, 8, substream(4, "rf"))
        scene = clutter_scene(target_power=0.0)
        t0, t1 = simulate_detection_trials(pilot, scene, 3000, substream(5, "trials"))
        assert np.array_equal(t0, t1)

    @pytest.mark.parametrize(
        "clutter, block",
        [(clutter, block) for block in (None, 1234) for clutter in CLUTTER_CASES],
        ids=["q0", "q1", "q2", "q0-blocks", "q1-blocks", "q2-blocks"],
    )
    def test_trials_match_all_draws_first_formula(self, clutter, block, monkeypatch):
        # oracle: every draw held at once, then combined; the blocked,
        # in-place version must give the same bits and leave the stream
        # alike, also when 5,000 trials span four blocks and a remainder
        if block is not None:
            monkeypatch.setattr(ip.evaluation, "DETECTION_BLOCK", block)
        pilot = ip.random_stiefel(3, 8, substream(20, "rf"))
        scene = clutter_scene(target_power=1.7, radar_noise_std=0.8, clutter=clutter)
        rng, oracle_rng = substream(21, "trials"), substream(21, "trials")
        t0, t1 = simulate_detection_trials(pilot, scene, 5000, rng)
        e0, e1 = all_draws_first(pilot, scene, 5000, oracle_rng)
        assert np.array_equal(t0, e0) and np.array_equal(t1, e1)
        assert rng.bit_generator.state == oracle_rng.bit_generator.state

    def test_draws_two_complex_normals_per_trial(self):
        # one interference and one target draw per trial, whatever the
        # number of clutter sources
        pilot = ip.random_stiefel(3, 8, substream(24, "rf"))
        for clutter in CLUTTER_CASES:
            scene = clutter_scene(clutter=clutter)
            rng, twin = substream(25, "trials"), substream(25, "trials")
            simulate_detection_trials(pilot, scene, 5000, rng)
            ip.complex_normal(twin, (2 * 5000,))
            assert rng.bit_generator.state == twin.bit_generator.state, len(clutter)

    def test_traced_peak_is_bounded_per_trial(self):
        # the interference and the two statistics take 16 B per trial,
        # each pair in its own interference entry; the blocked draws add a
        # fixed few MB on top
        pilot = ip.random_stiefel(3, 8, substream(22, "rf"))
        scene = clutter_scene(clutter=((10.0, 0.4), (-30.0, 2.5)))
        n_trials = 1_000_000
        tracemalloc.start()
        try:
            simulate_detection_trials(pilot, scene, n_trials, substream(23, "trials"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 36 * n_trials

    def test_roc_traced_peak_is_bounded_per_trial(self):
        # the whole ROC: the thresholds partition the h0 statistics in
        # place, so the quantile adds no copy to the 16 B per trial
        assert traced_roc_peak(1_000_000) <= 28 * 1_000_000

    def test_roc_traced_peak_holds_the_pairs_in_place(self):
        # 16 B per trial: the pairs stay in the interference buffer, the
        # swap regroups them there one run at a time, and the draw blocks,
        # the swap run and one P_d comparison (1 B per trial) add about 1 MB
        assert traced_roc_peak(1_000_000) <= 20 * 1_000_000

    def test_rejects_unknown_hypothesis(self):
        pilot = ip.random_stiefel(3, 8, substream(6, "rf"))
        with pytest.raises(ip.InvalidParameterError):
            simulate_radar_frame(pilot, clutter_scene(), "H2", substream(6, "frame"))


class TestDetectorStatistic:
    def test_matched_observation_no_clutter(self):
        pilot = ip.random_stiefel(3, 8, substream(7, "ds"))
        scene = clutter_scene(radar_noise_std=1.0, clutter=())
        mu0 = sensing_vectors(pilot, scene)[0]
        value = detector_statistic(mu0, pilot, scene)
        assert value == pytest.approx(np.linalg.norm(mu0) ** 4, rel=1e-10)

    def test_orthogonal_observation_is_zero(self):
        pilot = ip.random_stiefel(3, 8, substream(8, "ds"))
        scene = clutter_scene(clutter=())
        mu0 = sensing_vectors(pilot, scene)[0]
        y = np.zeros_like(mu0)
        y[0] = -np.conj(mu0[1])
        y[1] = np.conj(mu0[0])
        assert detector_statistic(y, pilot, scene) <= 1e-20

    def test_scalar_path_agrees_with_dense_path(self):
        # the batched trial generator works on w^H y; check against the
        # dense whitened statistic on explicit frames, and its variance a
        # against the dense sigma^2 ||w||^2 + sum_i nu_i |w^H mu_i|^2 and
        # w^H mu_0, for 0 to 3 clutter sources, the last of zero power
        pilot = ip.random_stiefel(3, 8, substream(9, "ds"))
        rng = substream(10, "ds-frames")
        for clutter in CLUTTER_CASES + [((10.0, 0.4), (-30.0, 2.5), (65.0, 0.0))]:
            scene = clutter_scene(clutter=clutter)
            mus = sensing_vectors(pilot, scene)
            dim = mus[0].size
            cov = scene.radar_noise_std**2 * np.eye(dim, dtype=complex)
            for p, mu in zip(scene.clutter_powers, mus[1:]):
                cov += p * np.outer(mu, mu.conj())
            w = np.linalg.solve(cov, mus[0])
            for _ in range(10):
                y = simulate_radar_frame(pilot, scene, "H1", rng)
                assert detector_statistic(y, pilot, scene) == pytest.approx(
                    abs(np.vdot(w, y)) ** 2, rel=1e-9
                )
            dense = scene.radar_noise_std**2 * np.linalg.norm(w) ** 2 + sum(
                p * abs(np.vdot(w, mu)) ** 2 for p, mu in zip(scene.clutter_powers, mus[1:])
            )
            a = sampler_variance(pilot, scene)
            assert a == pytest.approx(dense, rel=1e-9), len(clutter)
            assert a == pytest.approx(np.vdot(w, mus[0]).real, rel=1e-9), len(clutter)

    def test_whitening_invariance_under_unitary(self):
        # rotating every response vector and the data by one unitary leaves
        # the statistic unchanged
        pilot = ip.random_stiefel(2, 8, substream(11, "ds"))
        scene = clutter_scene()
        mus = sensing_vectors(pilot, scene)
        dim = mus[0].size
        rng = substream(12, "ds-u")
        z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        q, _ = np.linalg.qr(z)
        y = simulate_radar_frame(pilot, scene, "H1", substream(13, "ds-y"))

        def statistic(mu_list, data):
            cov = scene.radar_noise_std**2 * np.eye(dim, dtype=complex)
            for p, mu in zip(scene.clutter_powers, mu_list[1:]):
                cov += p * np.outer(mu, mu.conj())
            w = np.linalg.solve(cov, mu_list[0])
            return abs(np.vdot(w, data)) ** 2

        base = statistic(mus, y)
        rotated = statistic([q @ mu for mu in mus], q @ y)
        assert rotated == pytest.approx(base, rel=1e-9)

    def test_h0_statistic_is_exponential(self):
        pilot = ip.random_stiefel(3, 8, substream(14, "ds"))
        scene = clutter_scene(clutter=(), radar_noise_std=1.3)
        t0, _ = simulate_detection_trials(pilot, scene, 10_000, substream(15, "ks"))
        mu0 = sensing_vectors(pilot, scene)[0]
        scale = np.linalg.norm(mu0) ** 2 / scene.radar_noise_std**2
        assert stats.kstest(t0 / scale, "expon").pvalue > 0.01

    def test_trial_mean_matches_quadratic_form(self):
        pilot = ip.random_stiefel(3, 8, substream(16, "ds"))
        scene = clutter_scene()
        t0, _ = simulate_detection_trials(pilot, scene, 20_000, substream(17, "mean"))
        from test_metrics import dense_whitened_snr

        expected = dense_whitened_snr(pilot, scene) / scene.target_power
        assert np.mean(t0) == pytest.approx(expected, rel=0.05)


class TestRocCurve:
    def test_full_false_alarm_receives_everything(self):
        pilot = ip.random_stiefel(3, 8, substream(20, "roc"))
        curve = roc_curve(pilot, clutter_scene(), 2000, [1.0], substream(21, "roc"))
        assert curve.p_d[0] == 1.0

    def test_no_target_diagonal(self):
        pilot = ip.random_stiefel(3, 8, substream(22, "roc"))
        scene = clutter_scene(target_power=0.0)
        grid = [0.05, 0.1, 0.3, 0.6]
        n = 20_000
        curve = roc_curve(pilot, scene, n, grid, substream(23, "roc"))
        for pfa, pd in zip(curve.p_fa, curve.p_d):
            assert abs(pd - pfa) <= 3.0 * np.sqrt(pfa * (1 - pfa) / n) + 1e-3

    def test_monotone_and_sorted(self):
        pilot = ip.random_stiefel(3, 8, substream(24, "roc"))
        curve = roc_curve(
            pilot, clutter_scene(), 5000, [0.2, 0.01, 0.05, 1.0], substream(25, "roc")
        )
        assert np.all(np.diff(curve.p_fa) > 0)
        assert np.all(np.diff(curve.p_d) >= 0)

    def test_low_resolution_flag(self):
        pilot = ip.random_stiefel(3, 8, substream(26, "roc"))
        curve = roc_curve(pilot, clutter_scene(), 1000, [1e-5, 0.5], substream(27, "roc"))
        assert curve.low_resolution.tolist() == [True, False]

    def test_rejects_few_trials(self):
        pilot = ip.random_stiefel(3, 8, substream(28, "roc"))
        with pytest.raises(ip.InvalidParameterError):
            roc_curve(pilot, clutter_scene(), 100, [0.1], substream(29, "roc"))

    def test_thresholds_and_detection_match_all_draws_first(self, monkeypatch):
        # 5,000 trials in draw blocks of 1,234 with a remainder block; the
        # halves swap in runs of 1,234 with a remainder run
        monkeypatch.setattr(ip.evaluation, "DETECTION_BLOCK", 1234)
        check_roc_against_all_draws_first(5000)

    def test_odd_trial_count_matches_all_draws_first(self, monkeypatch):
        # 5,001 trials: the middle trial's pair stays in place while the
        # first 2,500 h1 and the last 2,500 h0 statistics swap
        monkeypatch.setattr(ip.evaluation, "DETECTION_BLOCK", 1234)
        check_roc_against_all_draws_first(5001)

    @pytest.mark.parametrize("grid", [[0.1, np.nan], [np.nan], [0.0], [1.5]])
    def test_rejects_false_alarm_target_before_any_draw(self, grid):
        pilot = ip.random_stiefel(3, 8, substream(32, "roc"))
        rng = substream(33, "roc")
        state = rng.bit_generator.state
        with pytest.raises(ip.InvalidParameterError, match="false-alarm"):
            roc_curve(pilot, clutter_scene(), 2000, grid, rng)
        assert rng.bit_generator.state == state


def threshold_cases():
    """(n, p_fa grid, statistics) of the threshold tests: the montecarlo
    grid, a grid with p_fa = 1, one below 1/n, one whose 1 - p_fa rounds to
    1 on statistics with many tied values, and a dense grid on statistics
    spread over 60 decades, where the interpolation's two sides round
    differently."""
    grid = [1e-3, 2e-3, 5e-3, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0]
    for n in (1000, 1001, 20_000, 1_000_000 - 17):
        yield n, grid, "exponential"
        yield n, [0.3 / n, 1.0], "exponential"
        yield n, [1e-17, 0.25, 0.25], "tied"
        yield n, np.linspace(0.0137, 0.9731, 40).tolist(), "wide"


class TestRocThresholds:
    @pytest.mark.parametrize("n, grid, stats", list(threshold_cases()))
    def test_bit_equal_to_np_quantile(self, n, grid, stats):
        rng = substream(n, "thresholds", stats)
        t0 = {
            "exponential": lambda: rng.exponential(size=n),
            "tied": lambda: np.round(rng.exponential(size=n), 1),  # about 40 distinct values
            "wide": lambda: 10.0 ** rng.uniform(-30.0, 30.0, size=n),
        }[stats]()
        p_fa = np.array(grid)
        expected = np.quantile(t0.copy(), 1.0 - p_fa)
        statistics = t0.copy()
        thresholds = _roc_thresholds(statistics, p_fa)
        assert np.array_equal(thresholds.view(np.int64), expected.view(np.int64))
        assert np.array_equal(np.sort(statistics), np.sort(t0))  # a permutation of its input

    def test_roc_curve_leaves_numpy_ma_unloaded(self):
        # np.unique imports numpy.ma on its first call, 12-21 ms of a fresh process
        src = Path(__file__).resolve().parents[1] / "src"
        code = (
            "import sys, isacpilot as ip\n"
            "scene = ip.SensingScene(10.0, 1.0, ((-30.0, 0.5),), 0.3, ip.ArrayGeometry(8, 4))\n"
            "pilot = ip.random_stiefel(3, 8, ip.substream(1, 'roc-ma'))\n"
            "ip.roc_curve(pilot, scene, 1000, [1e-3, 0.1, 0.1, 0.5, 1.0], ip.substream(2, 'roc-ma'))\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(src))
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"


class TestComplexNormal:
    @pytest.mark.parametrize("shape", [(), (1,), (7,), (3, 5), (2, 3, 4), (16_384,)])
    def test_bits_of_the_complex_division(self, shape):
        # the float draws scaled by 1/sqrt(2) before the complex view, against
        # the complex entries divided by sqrt(2)
        for seed in range(5):
            draws = ip.complex_normal(substream(seed, "normals"), shape)
            pairs = substream(seed, "normals").standard_normal(size=(*shape, 2))
            expected = pairs.view(complex)[..., 0]
            expected /= np.sqrt(2.0)
            assert np.shape(draws) == shape
            assert np.array_equal(
                np.atleast_1d(draws).view(np.int64), np.atleast_1d(expected).view(np.int64)
            )


ROC_LAW_CASES = CLUTTER_CASES + [((43.0, 0.4), (47.5, 2.5))]  # 0, 1, 2 far and 2 near


@pytest.mark.parametrize("clutter", ROC_LAW_CASES, ids=["none", "one", "two", "two-near"])
def test_roc_follows_the_swerling_law(clutter):
    """The whitened statistic is Exp(a) without the target and Exp(a (1 + x))
    with it, a = w^H mu_0 the sampler's variance and
    x = expm1(sensing_mi(..., "exact")), so P_d = P_fa^{1/(1+x)} and the
    threshold is -a ln P_fa.  P_d is checked within 4 standard errors,
    binomial plus threshold-estimate terms, and the threshold within 5 of
    its quantile's.  A 5% error in x moves some point of every pilot here by
    more than 4 standard errors (4.1 to 10.3)."""
    scene = clutter_scene(clutter=clutter)
    grid, n = np.array([1e-3, 1e-2, 0.05, 0.1, 0.3]), 200_000
    case = ROC_LAW_CASES.index(clutter)
    for k in range(3):
        pilot = ip.random_stiefel(3, 8, substream(40 + k, "roc-law", case))
        x = np.expm1(ip.sensing_mi(pilot, scene, "exact"))
        curve = roc_curve(pilot, scene, n, grid, substream(50 + k, "roc-law", case))
        p_d = grid ** (1.0 / (1.0 + x))
        se = np.sqrt(p_d * (1 - p_d) / n + p_d**2 * (1 - grid) / (n * grid * (1 + x) ** 2))
        assert np.all(np.abs(curve.p_d - p_d) <= 4.0 * se)
        tau = -sampler_variance(pilot, scene) * np.log(grid)
        tau_se = tau * np.sqrt((1 - grid) / (n * grid)) / np.abs(np.log(grid))
        assert np.all(np.abs(curve.thresholds - tau) <= 5.0 * tau_se)


def check_roc_against_all_draws_first(n_trials):
    """``roc_curve``'s thresholds and P_d bit-equal to ``np.quantile`` on a
    copy of the all-draws-first oracle's h0 statistics and ``np.mean(t1 >
    thr)``, with the generator left alike."""
    pilot = ip.random_stiefel(3, 8, substream(30, "roc"))
    scene = clutter_scene(target_power=1.7, radar_noise_std=0.8, clutter=CLUTTER_CASES[2])
    grid = [1e-3, 0.01, 0.1, 0.5, 1.0]
    rng, oracle_rng = substream(31, "roc"), substream(31, "roc")
    curve = roc_curve(pilot, scene, n_trials, grid, rng)
    e0, e1 = all_draws_first(pilot, scene, n_trials, oracle_rng)
    thresholds = np.quantile(e0.copy(), 1.0 - np.array(grid))
    assert np.array_equal(curve.thresholds, thresholds)
    assert np.array_equal(curve.p_d, [np.mean(e1 > thr) for thr in thresholds])
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


class TestGmmMmse:
    def test_single_component_equals_linear_mmse(self):
        rng = substream(30, "mmse")
        a = (rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))) / np.sqrt(8)
        cov = a @ a.conj().T
        mean = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        model = GmmUserModel(weights=[1.0], means=mean[None], covariances=cov[None], noise_std=0.4)
        pilot = ip.random_stiefel(3, 8, substream(31, "mmse"))
        phi = pilot.entries
        y = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        ours = gmm_mmse_batch(y[None], pilot, model)[0]
        sigma = phi @ cov @ phi.conj().T + 0.16 * np.eye(3)
        closed = mean + cov @ phi.conj().T @ np.linalg.solve(sigma, y - phi @ mean)
        np.testing.assert_allclose(ours, closed, atol=1e-10)

    def test_responsibilities_sum_to_one(self):
        from test_metrics import random_model

        model = random_model(32, n_tx=8)
        pilot = ip.random_stiefel(3, 8, substream(32, "mmse"))
        rng = substream(33, "mmse-obs")
        obs = rng.standard_normal((64, 3)) + 1j * rng.standard_normal((64, 3))
        _, resp = mmse_with_weights(obs, pilot, model)
        np.testing.assert_allclose(resp.sum(axis=1), 1.0, atol=1e-12)

    def test_huge_noise_returns_prior_mean(self):
        from test_metrics import random_model

        model = random_model(34, n_tx=8, noise_std=1e6)
        pilot = ip.random_stiefel(3, 8, substream(34, "mmse"))
        y = np.ones(3, dtype=complex)
        est = gmm_mmse_batch(y[None], pilot, model)[0]
        prior_mean = model.weights @ model.means
        assert np.linalg.norm(est - prior_mean) / np.linalg.norm(prior_mean) <= 1e-3

    def test_exact_recovery_in_range(self):
        # noiseless-limit configuration: rank-L covariance whose range the
        # pilot spans makes the estimator invert the observation exactly
        rng = substream(35, "mmse")
        basis = np.linalg.qr(rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3)))[0]
        cov = basis @ basis.conj().T
        model = GmmUserModel(
            weights=[1.0], means=np.zeros((1, 8)), covariances=cov[None], noise_std=1e-6
        )
        pilot = ip.project_stiefel(basis.conj().T)
        channels = ip.sample_channels(model, 200, substream(36, "mmse"))
        obs = channels @ pilot.entries.T
        est = gmm_mmse_batch(obs, pilot, model)
        nmse = np.sum(np.abs(est - channels) ** 2) / np.sum(np.abs(channels) ** 2)
        assert nmse <= 1e-6


class TestNmseExperiment:
    def test_exact_recovery_configuration(self):
        rng = substream(37, "nmse")
        basis = np.linalg.qr(rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3)))[0]
        model = GmmUserModel(
            weights=[1.0],
            means=np.zeros((1, 8)),
            covariances=(basis @ basis.conj().T)[None],
            noise_std=1e-6,
        )
        pilot = ip.project_stiefel(basis.conj().T)
        _, pooled = nmse_experiment(pilot, [model], 200, substream(38, "nmse"))
        assert pooled <= 1e-6

    def test_huge_noise_matches_prior_only_oracle(self):
        geom = ArrayGeometry(n_tx=8, n_rx=2)
        model = build_user_models(geom, [(30.0, 8.0, 1e6)], 24)[0]
        pilot = ip.random_stiefel(3, 8, substream(39, "nmse"))
        _, pooled = nmse_experiment(pilot, [model], 4000, substream(40, "nmse"))
        draws = ip.sample_channels(model, 4000, substream(41, "nmse-prior"))
        prior_mean = model.weights @ model.means
        oracle = np.mean(
            np.sum(np.abs(draws - prior_mean) ** 2, axis=1) / np.sum(np.abs(draws) ** 2, axis=1)
        )
        assert pooled == pytest.approx(oracle, rel=0.05)

    def test_pilot_independent_trials_pair_across_pilots(self):
        geom = ArrayGeometry(n_tx=8, n_rx=2)
        model = build_user_models(geom, [(30.0, 8.0, 0.3)], 24)[0]
        a = ip.random_stiefel(3, 8, substream(42, "a"))
        per_a1, _ = nmse_experiment(a, [model], 100, substream(43, "paired"))
        per_a2, _ = nmse_experiment(a, [model], 100, substream(43, "paired"))
        np.testing.assert_array_equal(per_a1, per_a2)

    @pytest.mark.parametrize("n_tx, n_users", [(10, 1), (8, 0)], ids=["antennas", "no-users"])
    def test_user_experiments_reject_before_any_draw(self, n_tx, n_users):
        # a pilot of the wrong antenna count, or no users, raises a named
        # error before the first channel draw, in all three experiments
        users = build_user_models(ArrayGeometry(n_tx=8, n_rx=2), [(30.0, 8.0, 0.3)], 4)[:n_users]
        pilot = ip.random_stiefel(3, n_tx, substream(44, "rf"))
        calls = [
            lambda rng: nmse_experiment(pilot, users, 10, rng),
            lambda rng: ip.c_worst_estimate(pilot, users, 50, 10, rng),
            lambda rng: ser_experiment(pilot, users, [0.0], 1000, 100, rng),
        ]
        for call in calls:
            rng = substream(45, "users")
            state = rng.bit_generator.state
            with pytest.raises(ip.DimensionError, match="antenna count" if n_users else "users"):
                call(rng)
            assert rng.bit_generator.state == state


class TestQam64:
    def test_round_trip_all_labels(self):
        # the link simulation decides symbol k = 8 i + q from the two level indices
        decided = _qam_labels(CONSTELLATION.copy(), 1.0)
        assert np.array_equal(decided, np.arange(64))

    def test_in_place_labels_equal_the_level_index_rule(self):
        # the old rule divided the complex symbols by the real gains and took
        # rint((x sqrt(42) + 7) / 2) per part; checked at every decision
        # boundary 2k / sqrt(42), where that rule lands half-way between two
        # levels, and a few ulps either side, far outside the outer levels,
        # at +-0 and at subnormals, as real and imaginary parts
        steps = np.arange(-3, 4)[:, None]
        boundaries = np.arange(-4, 5) * 2.0 / np.sqrt(42.0)
        near = (boundaries + steps * np.spacing(boundaries)).ravel()
        outside = np.array([-1e300, -1e3, -2.0, 2.0, 1e3, 1e300])
        zeros = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-300])
        x = np.concatenate([near, outside, zeros])
        assert np.any((x * np.sqrt(42.0) + 7.0) / 2.0 % 1.0 == 0.5)  # some exact ties
        re, im = np.meshgrid(x, x[::-1])
        for gain in (1.0, 0.37, 3.0):
            symbols = (re + 1j * im) * gain
            equalized = symbols / np.full(symbols.shape, gain)
            expected = 8 * nearest_level_index(equalized.real) + nearest_level_index(equalized.imag)
            labels = _qam_labels(symbols.copy(), np.full((*symbols.shape, 1), 1.0 / gain))
            assert np.array_equal(labels, expected)

    def test_unit_average_energy(self):
        assert np.mean(np.abs(CONSTELLATION) ** 2) == pytest.approx(1.0, abs=1e-12)


class TestZfPrecode:
    def test_identity_channel(self):
        w = zf_precode(np.eye(4, dtype=complex))
        np.testing.assert_allclose(w, np.eye(4), atol=1e-12)

    def test_zero_interference_with_perfect_estimates(self):
        rng = substream(44, "zf")
        h = rng.standard_normal((3, 8)) + 1j * rng.standard_normal((3, 8))
        w = zf_precode(h)
        effective = h @ w
        off = effective - np.diag(np.diag(effective))
        assert np.abs(off).max() <= 1e-10
        assert np.all(np.diag(effective).real > 0)
        np.testing.assert_allclose(np.linalg.norm(w, axis=0), 1.0, atol=1e-12)

    def test_rejects_rank_deficient(self):
        h = np.ones((2, 5), dtype=complex)
        with pytest.raises(ip.SingularMatrixError):
            zf_precode(h)

    def test_rejects_more_users_than_antennas(self):
        with pytest.raises(ip.DimensionError):
            zf_precode(np.ones((5, 3), dtype=complex))


def ser_one_run(pilot, users, snr_grid_db, n_symbols, block_len, rng):
    """Oracle of ``ser_experiment``: each SNR point's symbols formed, noised
    and decided in one run of all blocks.  Also returns the final states of
    the channel and data streams."""
    phi = pilot.entries
    n_blocks = -(-n_symbols // block_len)
    chan_rng, data_rng = rng.spawn(2)
    h_true = np.empty((n_blocks, len(users), phi.shape[1]), dtype=complex)
    h_est = np.empty_like(h_true)
    for k, model in enumerate(users):
        h_true[:, k, :], h_est[:, k, :] = _estimate_draws(phi, model, n_blocks, chan_rng)
    w = zf_precode(h_est)
    gains = np.einsum("bkn,bnk->bk", h_est, w).real
    effective = np.einsum("bkn,bnj->bkj", h_true, w)
    ser = []
    for snr_db in snr_grid_db:
        sent = data_rng.integers(0, 64, size=(n_blocks, len(users), block_len))
        received = np.einsum("bkj,bjm->bkm", effective, CONSTELLATION[sent])
        received += 10.0 ** (-snr_db / 20.0) * ip.complex_normal(data_rng, received.shape)
        equalized = received / gains[:, :, None]
        decided = 8 * nearest_level_index(equalized.real) + nearest_level_index(equalized.imag)
        ser.append(float(np.mean(decided != sent)))
    states = (chan_rng.bit_generator.state, data_rng.bit_generator.state)
    return np.array(ser), states


class TestSerExperiment:
    def _users(self, noise_std):
        geom = ArrayGeometry(n_tx=8, n_rx=2)
        return [
            build_user_models(geom, [(a, 6.0, noise_std)], 24)[0] for a in (40.0, -30.0)
        ]

    def test_zero_errors_at_huge_snr(self):
        users = self._users(1e-6)
        pilot = ip.random_stiefel(4, 8, substream(45, "ser"))
        ser = ser_experiment(pilot, users, [200.0], 2000, 50, substream(46, "ser"))
        assert ser[0] == 0.0

    def test_deep_noise_approaches_random_guessing(self):
        users = self._users(0.1)
        pilot = ip.random_stiefel(4, 8, substream(47, "ser"))
        ser = ser_experiment(pilot, users, [-60.0], 4000, 100, substream(48, "ser"))
        assert ser[0] == pytest.approx(63.0 / 64.0, abs=0.01)

    def test_runs_match_one_run_oracle(self, monkeypatch):
        # 20 blocks of 2 users x 100 symbols in runs of 7 blocks (7, 7, 6)
        monkeypatch.setattr(ip.evaluation, "_SER_RUN", 1400)
        streams = []  # every stream the noise draws read: channel first, data last

        def recording(rng, shape=()):
            streams.append(rng)
            return ip.complex_normal(rng, shape)

        monkeypatch.setattr(ip.evaluation, "complex_normal", recording)
        users = self._users(0.1)
        pilot = ip.random_stiefel(4, 8, substream(53, "ser"))
        snr = [0.0, 10.0, 20.0]
        ser = ser_experiment(pilot, users, snr, 2000, 100, substream(54, "ser"))
        states = (streams[0].bit_generator.state, streams[-1].bit_generator.state)
        expected, expected_states = ser_one_run(pilot, users, snr, 2000, 100, substream(54, "ser"))
        assert np.array_equal(ser, expected) and np.all(ser > 0)
        assert states == expected_states

    def test_traced_peak_is_bounded_at_monte_carlo_shape(self):
        # four users of one 180-component prior, 40,000 symbols in blocks of
        # 100, six SNR points: the symbol indices take 1.28 MB and one
        # 400-trial estimator call about 3 MB; the runs add well under 1 MB
        users = build_users(parse_config(str(SER_CONFIG)).scenario)[0]
        pilot = ip.random_stiefel(6, 16, substream(55, "ser"))
        snr = [4.0, 8.0, 12.0, 16.0, 20.0, 24.0]
        tracemalloc.start()
        try:
            ser_experiment(pilot, users, snr, 40_000, 100, substream(56, "ser"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6_000_000

    def test_rejects_few_symbols(self):
        users = self._users(0.1)
        pilot = ip.random_stiefel(4, 8, substream(49, "ser"))
        with pytest.raises(ip.InvalidParameterError):
            ser_experiment(pilot, users, [10.0], 100, 10, substream(50, "ser"))

    @pytest.mark.parametrize("block_len", [np.nan, np.inf])
    def test_rejects_non_finite_block_length(self, block_len):
        users = self._users(0.1)
        pilot = ip.random_stiefel(4, 8, substream(49, "ser"))
        with pytest.raises(ip.InvalidParameterError, match="block_len"):
            ser_experiment(pilot, users, [10.0], 1000, block_len, substream(50, "ser"))

    @pytest.mark.parametrize("snr, point", [([10.0, np.nan], 1), ([-np.inf], 0), ([0.0, 5.0, np.inf], 2)])
    def test_rejects_non_finite_snr_before_any_draw(self, snr, point):
        users = self._users(0.1)
        pilot = ip.random_stiefel(4, 8, substream(51, "ser"))
        rng = substream(52, "ser")
        state = rng.bit_generator.state
        with pytest.raises(ip.InvalidParameterError, match=rf"^SNR grid\[{point}\]: expected a finite number$"):
            ser_experiment(pilot, users, snr, 1000, 10, rng)
        assert rng.bit_generator.state == state
        assert rng.bit_generator.seed_seq.n_children_spawned == 0


class TestBaselinePilots:
    def test_dft_rows_orthonormal(self):
        pilot = ip.dft_pilot(5, 12)
        assert pilot.residual <= 1e-10

    def test_eigen_orthonormal_and_aligned(self):
        geom = ArrayGeometry(n_tx=8, n_rx=2)
        model = build_user_models(geom, [(30.0, 6.0, 0.3)], 36)[0]
        pilot = ip.eigen_pilot(3, [model], [1.0])
        assert pilot.residual <= 1e-10
        # row space contains the strongest covariance eigenvector
        cov = pooled_covariance([model], [1.0], region_covariances(geom, 36))
        _, vecs = np.linalg.eigh(cov)
        strongest = vecs[:, -1]
        assert np.linalg.norm(pilot.entries @ strongest) == pytest.approx(1.0, abs=1e-8)

    def test_eigen_row_space_is_top_eigenspace_of_dense_pooled_covariance(self):
        # the shipped four-user prior; the dense R_n are integrated afresh
        scenario = parse_config(str(NMSE_CONFIG)).scenario
        users, weights = build_users(scenario)
        assert len(users) == 4
        n_slots = scenario["pilot_len"]
        _, vecs = np.linalg.eigh(pooled_covariance(users, weights, scenario_covariances(scenario)))
        top = vecs[:, -n_slots:]
        rows = ip.eigen_pilot(n_slots, users, weights).entries
        distance = np.linalg.norm(rows.conj().T @ rows - top @ top.conj().T, 2)
        assert distance <= 1e-10
