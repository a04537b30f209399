"""Every public callable of ``isacpilot`` against bad numbers and arrays.

Each row of ``ROWS`` names a callable, gives the values of one valid call
and the kind of each value to mutate:

- a number: NaN, +inf, -inf, 0 and a negative value;
- a count: those, and the valid count as a float;
- an array: NaN in place of the array, an empty array, an array of the
  wrong rank, one NaN or infinite entry, all zeros and the negated array.

With warnings raised as errors, every call must end in an
``IsacPilotError`` or return a finite result.  A public callable of
``isacpilot`` without a row fails the suite; exception classes and the
result records the package returns take no input to check.
"""

from __future__ import annotations

import dataclasses
import numbers
import warnings
from typing import Callable, NamedTuple

import numpy as np
import pytest

import isacpilot as ip
from isacpilot.channel import build_user_models

GEOMETRY = ip.ArrayGeometry(n_tx=8, n_rx=4)
SCENE = ip.SensingScene(10.0, 1.0, ((-30.0, 0.5),), 0.3, GEOMETRY)
USERS = build_user_models(GEOMETRY, [(20.0, 10.0, 0.1), (-40.0, 15.0, 0.2)], 12)
MODEL = USERS[0]
OBJECTIVE = ip.IsacObjective(0.5, [0.5, 0.5], USERS, SCENE)
PILOT = ip.random_stiefel(3, 8, ip.substream(1, "boundary")).entries
PILOT_10 = ip.random_stiefel(3, 10, ip.substream(1, "boundary")).entries  # 10 antennas, USERS have 8
USERS_10 = build_user_models(ip.ArrayGeometry(n_tx=10, n_rx=4), [(20.0, 10.0, 0.1)], 12)
OBSERVATIONS = ip.complex_normal(ip.substream(2, "boundary"), (20, 3))
# the result records of the package: built by it, never taking user input
RECORDS = {"RocCurve", "OptimizationTrace"}


def rng():
    return ip.substream(3, "boundary")


def norm2(stack):
    return np.sum(np.abs(stack) ** 2, axis=(-2, -1))


class Row(NamedTuple):
    name: str  # the public name, or module.name for a function the package keeps internal
    values: Callable[[], dict]  # the keyword values of one valid call
    kinds: dict  # value name -> "number", "count" or "array"
    call: Callable | None = None  # maps the values to the call; default: the callable itself


def _scene(target_angle, target_power, clutter_angle, clutter_power, radar_noise_std):
    clutter = ((clutter_angle, clutter_power),)
    return ip.SensingScene(target_angle, target_power, clutter, radar_noise_std, GEOMETRY)


def _users(mean_aoa_deg, spread_deg, noise_std, n_components, mean_scale, quadrature_points):
    users = [(mean_aoa_deg, spread_deg, noise_std)]
    return build_user_models(
        GEOMETRY, users, n_components, mean_scale=mean_scale, quadrature_points=quadrature_points
    )


def _ascent(entries, step_size, max_iters):
    config = ip.OptimizerConfig(step_size=step_size, max_iters=max_iters)
    return ip.optimize_pgd(ip.PilotMatrix(entries), OBJECTIVE, config)


ROWS = [
    Row(
        "ArrayGeometry",
        lambda: dict(n_tx=8, n_rx=4, spacing_tx=0.5, spacing_rx=0.5),
        dict(n_tx="count", n_rx="count", spacing_tx="number", spacing_rx="number"),
    ),
    Row(
        "SensingScene",
        lambda: dict(
            target_angle=10.0, target_power=1.0, clutter_angle=-30.0, clutter_power=0.5, radar_noise_std=0.3
        ),
        dict.fromkeys(
            ["target_angle", "target_power", "clutter_angle", "clutter_power", "radar_noise_std"], "number"
        ),
        _scene,
    ),
    Row("PilotMatrix", lambda: dict(entries=PILOT), dict(entries="array")),
    Row("channel.check_pilots", lambda: dict(entries=np.array([PILOT, -PILOT]), ndim=3), dict(entries="array")),
    Row(
        "GmmUserModel",
        lambda: dict(
            weights=np.full(4, 0.25),
            means=np.ones((4, 8), dtype=complex),
            covariances=np.stack([0.5 * np.eye(8)] * 4),
            noise_std=0.1,
        ),
        dict(weights="array", means="array", covariances="array", noise_std="number"),
    ),
    Row(
        "channel.build_user_models",
        lambda: dict(
            mean_aoa_deg=20.0, spread_deg=10.0, noise_std=0.1, n_components=6, mean_scale=1.0, quadrature_points=4
        ),
        dict(
            mean_aoa_deg="number",
            spread_deg="number",
            noise_std="number",
            n_components="count",
            mean_scale="number",
            quadrature_points="count",
        ),
        _users,
    ),
    Row(
        "laplacian_weights",
        lambda: dict(mean_aoa_deg=10.0, spread_deg=5.0, grid_deg=np.linspace(-80.0, 80.0, 9)),
        dict(mean_aoa_deg="number", spread_deg="number", grid_deg="array"),
    ),
    Row(
        "sample_channels",
        lambda: dict(model=MODEL, n_samples=10, rng=rng()),
        dict(n_samples="count"),
    ),
    Row(
        "simulate_detection_trials",
        lambda: dict(pilot=PILOT, scene=SCENE, n_trials=50, rng=rng()),
        dict(pilot="array", n_trials="count"),
    ),
    Row(
        "roc_curve",
        lambda: dict(pilot=PILOT, scene=SCENE, n_trials=1000, p_fa_grid=np.array([0.01, 0.1]), rng=rng()),
        dict(pilot="array", n_trials="count", p_fa_grid="array"),
    ),
    Row(
        "gmm_mmse_batch",
        lambda: dict(observations=OBSERVATIONS, pilot=PILOT, model=MODEL),
        dict(observations="array", pilot="array"),
    ),
    Row("effective_training_snr", lambda: dict(error_variance=0.2), dict(error_variance="number")),
    Row(
        "c_worst_estimate",
        lambda: dict(pilot=PILOT, users=USERS, block_len=50, trials=10, rng=rng()),
        dict(pilot="array", block_len="count", trials="count"),
    ),
    Row(
        "nmse_experiment",
        lambda: dict(pilot=PILOT, users=USERS, n_trials=10, rng=rng()),
        dict(pilot="array", n_trials="count"),
    ),
    Row(
        "zf_precode",
        lambda: dict(channel_estimates=ip.complex_normal(rng(), (2, 8))),
        dict(channel_estimates="array"),
    ),
    Row(
        "ser_experiment",
        lambda: dict(
            pilot=PILOT, users=USERS, snr_grid_db=np.array([0.0, 10.0]), n_symbols=1000, block_len=100, rng=rng()
        ),
        dict(pilot="array", snr_grid_db="array", n_symbols="count", block_len="count"),
    ),
    Row("dft_pilot", lambda: dict(n_slots=3, n_tx=8), dict(n_slots="count", n_tx="count")),
    Row(
        "eigen_pilot",
        lambda: dict(n_slots=3, users=USERS, user_weights=np.array([0.5, 0.5])),
        dict(n_slots="count", user_weights="array"),
    ),
    Row(
        "finite_diff_check",
        lambda: dict(objective_fn=norm2, gradient_fn=lambda phi: phi, pilot=PILOT, step=1e-4),
        dict(pilot="array", step="number"),
    ),
    Row(
        "IsacObjective",
        lambda: dict(rho=0.5, user_weights=np.array([0.5, 0.5]), users=USERS, scene=SCENE),
        dict(rho="number", user_weights="array"),
    ),
    Row("comm_mi_weighted", lambda: dict(pilot=PILOT, objective=OBJECTIVE), dict(pilot="array")),
    Row("isac_objective", lambda: dict(pilot=PILOT, objective=OBJECTIVE), dict(pilot="array")),
    Row("sensing_mi", lambda: dict(pilot=PILOT, scene=SCENE, formula="exact"), dict(pilot="array")),
    Row(
        "OptimizerConfig",
        lambda: dict(step_size=0.1, max_iters=5, rel_tol=1e-8),
        dict(step_size="number", max_iters="count", rel_tol="number"),
    ),
    Row(
        "optimize_pgd",
        lambda: dict(entries=PILOT, step_size=0.05, max_iters=3),
        dict(entries="array", step_size="number", max_iters="count"),
        _ascent,
    ),
    Row(
        "pareto_filter",
        lambda: dict(points=np.array([[1.0, 2.0], [2.0, 1.0], [0.5, 0.5]])),
        dict(points="array"),
    ),
    Row("project_stiefel", lambda: dict(z=PILOT + 0.1), dict(z="array")),
    Row(
        "random_stiefel",
        lambda: dict(n_slots=3, n_tx=8, rng=rng()),
        dict(n_slots="count", n_tx="count"),
    ),
    Row(
        "sample_feasible_cloud",
        lambda: dict(n_samples=4, n_slots=3, objective=OBJECTIVE, rng=rng()),
        dict(n_samples="count", n_slots="count"),
    ),
    Row("complex_normal", lambda: dict(rng=rng(), shape=5), dict(shape="count")),
    Row("substream", lambda: dict(master_seed=7), dict(master_seed="count")),
]


def mutations(kind: str, value):
    """(label, mutated value) pairs of one value of the given kind."""
    if kind in ("number", "count"):
        bad = [("nan", np.nan), ("inf", np.inf), ("-inf", -np.inf), ("zero", 0)]
        bad.append(("negative", -abs(value) or -1))
        return bad + [("float", float(value))] * (kind == "count")
    value = np.asarray(value)
    one_nan, one_inf = value.copy(), value.copy()
    one_nan.flat[value.size // 2] = np.nan
    one_inf.flat[0] = np.inf
    wrong_rank = value.reshape(1, -1) if value.ndim == 1 else value.reshape(-1)
    return [
        ("nan", np.nan),
        ("empty", value[:0]),
        ("wrong-rank", wrong_rank),
        ("one-nan", one_nan),
        ("one-inf", one_inf),
        ("zeros", np.zeros_like(value)),
        ("negated", -value),
    ]


def is_finite(result) -> bool:
    """Every number in ``result`` is finite: arrays, numbers, and the fields
    of lists, tuples and dataclasses, recursively; other objects hold none."""
    if isinstance(result, (list, tuple)):
        return all(is_finite(item) for item in result)
    if dataclasses.is_dataclass(result):
        return all(is_finite(getattr(result, f.name)) for f in dataclasses.fields(result))
    if isinstance(result, (np.ndarray, numbers.Number)):
        return bool(np.all(np.isfinite(result)))
    return True


def resolve(name: str):
    module, _, attr = name.rpartition(".")
    return getattr(getattr(ip, module) if module else ip, attr)


def call(row: Row, **changes):
    fn = row.call or resolve(row.name)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return fn(**{**row.values(), **changes})


CASES = [
    pytest.param(row, arg, bad, id=f"{row.name}-{arg}-{label}")
    for row in ROWS
    for arg, kind in row.kinds.items()
    for label, bad in mutations(kind, row.values()[arg])
]


@pytest.mark.parametrize("row", ROWS, ids=[row.name for row in ROWS])
def test_valid_call_returns_a_finite_result(row):
    assert is_finite(call(row))


@pytest.mark.parametrize("row, arg, bad", CASES)
def test_mutation_ends_in_a_package_error_or_a_finite_result(row, arg, bad):
    try:
        result = call(row, **{arg: bad})
    except ip.IsacPilotError:
        return
    assert is_finite(result)


def test_every_public_callable_has_a_row():
    public = {name for name in dir(ip) if not name.startswith("_") and callable(getattr(ip, name))}
    errors = {name for name in public if isinstance(getattr(ip, name), type)}
    errors = {name for name in errors if issubclass(getattr(ip, name), Exception)}
    assert public - errors - RECORDS == {row.name for row in ROWS if "." not in row.name}
    assert len(CASES) >= 200


BAD_COUNT = ip.InvalidParameterError
# the calls that ended in a bare error, a warning or a silent NaN before the
# shared rules, each now pinned to its named error; with them, each callable
# that takes a user list, given none
KNOWN_GAPS = {
    "ArrayGeometry-nan": (lambda: ip.ArrayGeometry(np.nan, 4), BAD_COUNT),
    "ArrayGeometry-float": (lambda: ip.ArrayGeometry(8.5, 4), BAD_COUNT),
    "OptimizerConfig-float": (lambda: ip.OptimizerConfig(max_iters=2.5), BAD_COUNT),
    "c_worst_estimate-nan": (lambda: ip.c_worst_estimate(PILOT, USERS, 50, np.nan, rng()), BAD_COUNT),
    "roc_curve-float": (lambda: ip.roc_curve(PILOT, SCENE, 1000.0, [0.1], rng()), BAD_COUNT),
    "sample_feasible_cloud-nan": (lambda: ip.sample_feasible_cloud(np.nan, 3, OBJECTIVE, rng()), BAD_COUNT),
    "build_user_models-nan": (lambda: build_user_models(GEOMETRY, [(20.0, 10.0, 0.1)], np.nan), BAD_COUNT),
    "random_stiefel-float": (lambda: ip.random_stiefel(3.0, 8, rng()), BAD_COUNT),
    "nmse_experiment-nan": (lambda: ip.nmse_experiment(PILOT, USERS, np.nan, rng()), BAD_COUNT),
    "sample_channels-nan": (lambda: ip.sample_channels(MODEL, np.nan, rng()), BAD_COUNT),
    "PilotMatrix-inf": (lambda: ip.PilotMatrix(np.full((3, 8), np.inf)), ip.NonFiniteError),
    "project_stiefel-1d": (lambda: ip.project_stiefel(np.ones(8)), ip.DimensionError),
    "eigen_pilot-nan": (lambda: ip.eigen_pilot(3, USERS, [np.nan, 1.0]), ip.NonFiniteError),
    "comm_mi_weighted-empty": (lambda: ip.comm_mi_weighted(np.ones((0, 8)), OBJECTIVE), ip.DimensionError),
    "c_worst_estimate-no-users": (lambda: ip.c_worst_estimate(PILOT, [], 50, 10, rng()), ip.DimensionError),
    "nmse_experiment-no-users": (lambda: ip.nmse_experiment(PILOT, [], 10, rng()), ip.DimensionError),
    "ser_experiment-no-users": (lambda: ip.ser_experiment(PILOT, [], [0.0], 1000, 100, rng()), ip.DimensionError),
    "eigen_pilot-no-users": (lambda: ip.eigen_pilot(3, [], []), ip.DimensionError),
    "c_worst_estimate-antennas": (lambda: ip.c_worst_estimate(PILOT_10, USERS, 50, 10, rng()), ip.DimensionError),
    "nmse_experiment-antennas": (lambda: ip.nmse_experiment(PILOT_10, USERS, 10, rng()), ip.DimensionError),
    "ser_experiment-antennas": (
        lambda: ip.ser_experiment(PILOT_10, USERS, [0.0], 1000, 100, rng()),
        ip.DimensionError,
    ),
    "eigen_pilot-antennas": (lambda: ip.eigen_pilot(3, [MODEL, *USERS_10], [0.5, 0.5]), ip.DimensionError),
    "IsacObjective-antennas": (lambda: ip.IsacObjective(0.5, [1.0], USERS_10, SCENE), ip.DimensionError),
}


def test_huge_azimuth_spread_gives_equal_weights():
    # a spread near the float limit flattens the profile without overflowing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        weights = ip.laplacian_weights(0.0, 1.5e308, np.linspace(-80.0, 80.0, 9))
    assert np.array_equal(weights, np.full(9, 1.0 / 9.0))


@pytest.mark.parametrize("make_call, error", KNOWN_GAPS.values(), ids=KNOWN_GAPS)
def test_known_gap_raises_its_named_error(make_call, error):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            make_call()
