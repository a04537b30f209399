"""Tests for array geometry, GMM channel construction and channel sampling."""

import warnings

import numpy as np
import pytest

import isacpilot as ip
from isacpilot import (
    ArrayGeometry,
    GmmUserModel,
    InvalidParameterError,
    PilotMatrix,
    SensingScene,
    laplacian_weights,
    sample_channels,
    substream,
)
from isacpilot.channel import _region_covariances, build_user_models, check_pilots
from oracles import region_covariances, steering_vector


def region_covariance(geometry, lo, hi, quadrature_points=8):
    """The covariance of one region [lo, hi] degrees, through the batched builder."""
    return _region_covariances(geometry, np.array([lo]), np.array([hi]), quadrature_points)[0]


class TestSteeringVector:
    def test_broadside_is_all_ones(self):
        np.testing.assert_allclose(steering_vector(4, 0.5, 0.0), np.ones(4), atol=1e-15)

    def test_endfire_half_wavelength(self):
        np.testing.assert_allclose(steering_vector(2, 0.5, 90.0), [1.0, -1.0], atol=1e-12)

    def test_thirty_degrees_quarter_turns(self):
        np.testing.assert_allclose(steering_vector(3, 0.5, 30.0), [1.0, 1j, -1.0], atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_unit_modulus_entries(self, seed):
        rng = substream(seed, "steer")
        v = steering_vector(rng.integers(1, 40), rng.uniform(0.1, 2.0), rng.uniform(-90, 90))
        np.testing.assert_allclose(np.abs(v), 1.0, atol=1e-14)
        assert v[0] == 1.0

    def test_rejects_empty_array(self):
        with pytest.raises(InvalidParameterError):
            steering_vector(0, 0.5, 10.0)


class TestLaplacianWeights:
    def test_symmetric_grid_gives_symmetric_weights(self):
        w = laplacian_weights(10.0, 5.0, np.array([7.0, 10.0, 13.0]))
        assert w[0] == pytest.approx(w[2], abs=1e-15)

    @pytest.mark.parametrize("seed", range(5))
    def test_sums_to_one(self, seed):
        rng = substream(seed, "lap")
        grid = np.sort(rng.uniform(-90, 90, size=rng.integers(1, 200)))
        w = laplacian_weights(rng.uniform(-60, 60), rng.uniform(0.5, 20), grid)
        assert abs(w.sum() - 1.0) <= 1e-12
        assert np.all(w >= 0)

    def test_ratio_matches_density(self):
        # grid {-1, 0, 1} around 0 with spread 6: side/center = exp(-sqrt(2)/6)
        w = laplacian_weights(0.0, 6.0, np.array([-1.0, 0.0, 1.0]))
        assert w[0] / w[1] == pytest.approx(np.exp(-np.sqrt(2.0) / 6.0), rel=1e-12)

    def test_rejects_nonpositive_spread(self):
        with pytest.raises(InvalidParameterError):
            laplacian_weights(0.0, 0.0, np.array([0.0]))

    @pytest.mark.parametrize(
        "mean, spread, match",
        [(np.nan, 5.0, "mean angle"), (np.inf, 5.0, "mean angle"), (0.0, np.nan, "spread"),
         (0.0, np.inf, "spread")],
    )
    def test_rejects_non_finite_mean_or_spread(self, mean, spread, match):
        # a NaN mean or spread would give NaN weights, an infinite one 0 / 0
        with pytest.raises(InvalidParameterError, match=match):
            laplacian_weights(mean, spread, np.array([-1.0, 0.0, 1.0]))

    @pytest.mark.filterwarnings("error")
    def test_rejects_a_spread_whose_weights_all_underflow(self):
        # every grid point is 10 degrees or more from the mean: e^-14142 is 0,
        # and normalizing would divide 0 by 0
        message = "azimuth spread: 0.001 leaves every weight 0"
        with pytest.raises(InvalidParameterError, match=message):
            laplacian_weights(10.0, 1e-3, np.linspace(-80.0, 80.0, 9))

    @pytest.mark.filterwarnings("error")
    def test_user_models_name_the_spread_not_the_weights(self):
        geometry = ArrayGeometry(n_tx=6, n_rx=2)
        with pytest.raises(InvalidParameterError, match="azimuth spread") as excinfo:
            build_user_models(geometry, [(10.0, 1e-3, 0.5)], 9)  # centers -80, -60, .., 80
        assert not isinstance(excinfo.value, ip.NonFiniteError)


class TestRegionCovariance:
    geom = ArrayGeometry(n_tx=4, n_rx=2)

    def test_diagonal_equals_width_in_radians(self):
        cov = region_covariance(self.geom, -30.0, 15.0, quadrature_points=16)
        width = np.deg2rad(45.0)
        np.testing.assert_allclose(np.diag(cov).real, width, rtol=1e-12)
        assert np.trace(cov).real == pytest.approx(4 * width, rel=1e-12)

    def test_narrow_region_is_rank_one(self):
        lo, hi = 20.0, 20.001
        cov = region_covariance(self.geom, lo, hi, quadrature_points=1)
        a = steering_vector(4, 0.5, 0.5 * (lo + hi))
        expected = np.deg2rad(hi - lo) * np.outer(a, a.conj())
        np.testing.assert_allclose(cov, expected, atol=1e-12)

    def test_hermitian_psd(self):
        cov = region_covariance(self.geom, -50.0, -10.0)
        np.testing.assert_allclose(cov, cov.conj().T, atol=1e-15)
        assert np.linalg.eigvalsh(cov).min() >= -1e-12

    def test_against_refined_quadrature(self):
        # half-wavelength pair over the full sector: off-diagonal entry is an
        # oscillatory integral; a 10x finer midpoint rule serves as oracle
        geom = ArrayGeometry(n_tx=2, n_rx=1)
        coarse = region_covariance(geom, -90.0, 90.0, quadrature_points=200)
        fine = region_covariance(geom, -90.0, 90.0, quadrature_points=2000)
        assert abs(coarse[0, 1] - fine[0, 1]) / abs(fine[0, 1]) <= 1e-4


class TestBuildUserModel:
    geom = ArrayGeometry(n_tx=6, n_rx=2)

    def test_single_component_covers_everything(self):
        model = build_user_models(self.geom, [(10.0, 5.0, 0.5)], 1)[0]
        np.testing.assert_allclose(model.weights, [1.0])
        # the prior's covariance, as build_user_models integrates it
        cov = region_covariances(self.geom, 1)[0]
        assert np.trace(cov).real == pytest.approx(6 * np.pi, rel=1e-12)

    def test_weights_peak_at_mean_aoa(self):
        model = build_user_models(self.geom, [(33.3, 6.0, 0.5)], 180)[0]
        peak_center = -90.0 + (np.argmax(model.weights) + 0.5) * 1.0
        assert abs(peak_center - 33.3) <= 0.5

    def test_partition_total_mass(self):
        # disjoint equal regions covering the sector: traces add to N_t * pi
        total = sum(np.trace(c).real for c in region_covariances(self.geom, 36))
        assert total == pytest.approx(6 * np.pi, rel=1e-10)

    def test_zero_mean_policy(self):
        model = build_user_models(self.geom, [(0.0, 10.0, 0.5)], 4, mean_policy="zero")[0]
        assert np.all(model.means == 0)

    def test_rejects_unknown_policy(self):
        with pytest.raises(InvalidParameterError):
            build_user_models(self.geom, [(0.0, 10.0, 0.5)], 4, mean_policy="bogus")


class TestGmmUserModelValidation:
    def test_rejects_bad_weight_sum(self):
        with pytest.raises(InvalidParameterError):
            GmmUserModel(
                weights=[0.5, 0.4],
                means=np.zeros((2, 3)),
                covariances=np.stack([np.eye(3)] * 2),
                noise_std=0.1,
            )

    def test_rejects_non_hermitian_covariance(self):
        cov = np.eye(3, dtype=complex)
        cov[0, 1] = 1.0
        with pytest.raises(InvalidParameterError):
            GmmUserModel(weights=[1.0], means=np.zeros((1, 3)), covariances=cov[None], noise_std=0.1)

    def test_rejects_indefinite_covariance(self):
        cov = -np.eye(3, dtype=complex)
        with pytest.raises(InvalidParameterError):
            GmmUserModel(weights=[1.0], means=np.zeros((1, 3)), covariances=cov[None], noise_std=0.1)

    @pytest.mark.parametrize("weights, noise_std", [([np.nan, 1.0], 0.1), ([0.5, 0.5], np.nan)])
    def test_rejects_nan_weights_or_noise(self, weights, noise_std):
        with pytest.raises(InvalidParameterError):
            GmmUserModel(
                weights=weights,
                means=np.zeros((2, 3)),
                covariances=np.stack([np.eye(3)] * 2),
                noise_std=noise_std,
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_rejects_non_finite_covariances(self, bad):
        # before the check eigh factored [I, I with a NaN corner] into a
        # finite rank-1 stack with no error
        covs = np.stack([np.eye(2, dtype=complex)] * 2)
        covs[1, 0, 0] = bad
        with pytest.raises(ip.NonFiniteError, match=r"^covariances\[1, 0, 0\]: expected a finite number$"):
            GmmUserModel([0.5, 0.5], np.zeros((2, 2)), covs, 0.3)

    def test_rejects_a_covariance_stack_that_is_not_3d(self):
        with pytest.raises(ip.DimensionError, match="^covariances: expected a 3-D array$"):
            GmmUserModel([0.5, 0.5], np.zeros((2, 2)), np.eye(2), 0.1)
        with pytest.raises(ip.DimensionError, match="^means: expected a 2-D array$"):
            GmmUserModel([1.0], np.zeros(1), np.eye(3)[None], 0.1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_rejects_non_finite_means(self, bad):
        means = np.zeros((2, 3), dtype=complex)
        means[0] = bad
        with pytest.raises(InvalidParameterError, match="means"):
            GmmUserModel(
                weights=[0.5, 0.5], means=means, covariances=np.stack([np.eye(3)] * 2), noise_std=0.3
            )


class TestGeometryAndSceneValidation:
    geom = ArrayGeometry(n_tx=4, n_rx=2)

    @pytest.mark.parametrize("spacing", [0.0, -0.5, np.nan])
    @pytest.mark.parametrize("field", ["spacing_tx", "spacing_rx"])
    def test_geometry_rejects_bad_spacing(self, field, spacing):
        with pytest.raises(InvalidParameterError):
            ArrayGeometry(n_tx=4, n_rx=2, **{field: spacing})

    @pytest.mark.parametrize(
        "changes",
        [
            {"target_power": -1.0},
            {"target_power": np.nan},
            {"clutter": ((10.0, -0.5),)},
            {"clutter": ((10.0, 0.5), (20.0, np.nan))},
            {"radar_noise_std": 0.0},
            {"radar_noise_std": np.nan},
        ],
    )
    def test_scene_rejects_bad_powers(self, changes):
        fields = dict(target_angle=10.0, target_power=1.0, clutter=(), radar_noise_std=0.5)
        with pytest.raises(InvalidParameterError):
            SensingScene(geometry=self.geom, **{**fields, **changes})

    @pytest.mark.parametrize(
        "changes",
        [
            {"target_angle": np.nan},
            {"target_angle": np.inf},
            {"clutter": ((np.nan, 0.5),)},
            {"clutter": ((10.0, 0.5), (-np.inf, 0.3))},
            {"target_angle": np.nan, "clutter": ((np.nan, 0.5),)},
        ],
    )
    def test_scene_rejects_non_finite_angles(self, changes):
        fields = dict(target_angle=10.0, target_power=1.0, clutter=(), radar_noise_std=0.5)
        with pytest.raises(InvalidParameterError, match="angles"):
            SensingScene(geometry=self.geom, **{**fields, **changes})


class TestSampleChannel:
    def test_zero_covariance_returns_exact_mean(self):
        means = np.array([[1.0 + 2j, -1.0], [0.5j, 3.0]])
        model = GmmUserModel(
            weights=[0.5, 0.5],
            means=means,
            covariances=np.zeros((2, 2, 2)),
            noise_std=0.1,
        )
        h = sample_channels(model, 1, substream(0, "zero-cov"))[0]
        assert any(np.array_equal(h, m) for m in means)

    def test_identity_covariance_moments(self):
        model = GmmUserModel(
            weights=[1.0],
            means=np.zeros((1, 4)),
            covariances=np.eye(4)[None],
            noise_std=0.1,
        )
        draws = sample_channels(model, 10_000, substream(1, "moments"))
        per_entry_var = np.mean(np.abs(draws) ** 2, axis=0)
        np.testing.assert_allclose(per_entry_var, 1.0, rtol=0.05)
        assert np.abs(draws.mean()) <= 0.05

    def test_component_frequencies_match_weights(self):
        weights = np.array([0.4, 0.3, 0.2, 0.1])
        means = np.arange(4, dtype=complex).reshape(4, 1) + 1.0
        model = GmmUserModel(
            weights=weights,
            means=means,
            covariances=np.zeros((4, 1, 1)),
            noise_std=0.1,
        )
        n = 10_000
        draws = sample_channels(model, n, substream(2, "freq"))
        for k, mean in enumerate(means):
            count = np.sum(draws[:, 0] == mean[0])
            bound = 3.0 * np.sqrt(n * weights[k] * (1 - weights[k]))
            assert abs(count - n * weights[k]) <= bound

    def test_bit_reproducible(self):
        geom = ArrayGeometry(n_tx=5, n_rx=2)
        model = build_user_models(geom, [(20.0, 8.0, 0.3)], 12)[0]
        a = sample_channels(model, 64, substream(3, "repro"))
        b = sample_channels(model, 64, substream(3, "repro"))
        assert np.array_equal(a, b)


class TestPilotMatrixValidation:
    def test_rejects_wide_or_square(self):
        with pytest.raises(ip.DimensionError):
            PilotMatrix(np.eye(4))

    def test_rejects_non_orthonormal_rows(self):
        with pytest.raises(InvalidParameterError):
            PilotMatrix(np.ones((2, 5)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_a_non_finite_entry(self, bad):
        # checked before the row Gram, where an infinite entry would make the
        # residual NaN through inf * 0 and warn; a warning fails the test
        entries = np.eye(5, dtype=complex)[:2]
        entries[1, 3] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ip.NonFiniteError, match=r"^pilot\[1, 3\]: expected a finite number$"):
                PilotMatrix(entries)

    def test_accepts_orthonormal(self):
        entries = np.eye(5)[:2]
        pilot = PilotMatrix(entries)
        assert pilot.residual <= 1e-12
        assert pilot.n_slots == 2 and pilot.n_tx == 5


class TestCheckPilots:
    """``check_pilots`` keeps the pilot rule for one pilot and for a stack."""

    def test_stack_residuals_are_each_pilots_own(self):
        rng = substream(4, "check-pilots")
        stack = np.array([ip.random_stiefel(3, 8, rng).entries for _ in range(5)])
        entries, residual = check_pilots(stack, 3)
        assert entries.shape == stack.shape and residual.shape == (5,)
        assert residual.tolist() == [PilotMatrix(phi).residual for phi in stack]
        single = check_pilots(stack[0])[1]
        assert isinstance(single, float) and single == residual[0]

    def test_one_bad_pilot_fails_the_stack(self):
        rng = substream(5, "check-pilots")
        stack = np.array([ip.random_stiefel(3, 8, rng).entries for _ in range(4)])
        stack[2] *= 1.001
        with pytest.raises(InvalidParameterError, match="not orthonormal"):
            check_pilots(stack, 3)
        check_pilots(np.delete(stack, 2, axis=0), 3)

    def test_rejects_a_stack_as_long_as_the_array(self):
        with pytest.raises(ip.DimensionError, match="strictly below"):
            check_pilots(np.array([np.eye(4)] * 2), 3)

    def test_rejects_a_non_finite_entry_of_a_stack(self):
        stack = np.array([np.eye(5)[:2]] * 3, dtype=complex)
        stack[1, 0, 4] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ip.NonFiniteError, match=r"^pilot\[1, 0, 4\]"):
                check_pilots(stack, (2, 3))
