"""Strict experiment-configuration parsing.

Configs are YAML with a fixed schema: unknown keys are rejected with their
dotted path, physically meaningful quantities have no silent defaults, and
the effective config (including the effective seed) is hashed into every
output file so results can be traced back to their inputs.

Files are read by ``yaml.CSafeLoader``, PyYAML's binding of libyaml, which
parses the shipped configs about five times faster than the pure-Python
``yaml.SafeLoader``; a PyYAML built without libyaml
(``yaml.__with_libyaml__`` false) falls back to the latter.  Both resolve
and construct values with the same Python ``SafeConstructor``, so a config
parses to the same values, and the same hash, under either.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from functools import partial

import numpy as np
import yaml

from .channel import MEAN_POLICIES, ArrayGeometry, SensingScene, build_user_models
from .errors import InvalidParameterError, IsacPilotError
from .errors import count, finite_array, number, one_of, simplex
from .metrics import SENSING_FORMULAS, IsacObjective
from .optimizer import OptimizerConfig

PILOT_SOURCES = ("optimized", "random", "dft", "eigen")
# a table's default: a value, REQUIRED, or ABSENT (the key is left out when not given)
REQUIRED, ABSENT = object(), object()


class ConfigError(IsacPilotError, ValueError):
    """Configuration file is malformed; message carries the offending path."""


class _RejectRepeatedKeys:
    """Loader mixin that rejects a mapping key written twice, at the second
    copy's mark, where ``yaml.safe_load`` keeps the last copy."""

    def construct_mapping(self, node, deep=False):
        first = {}  # (tag, text) of each scalar key -> its first key node
        for key in (key for key, _ in node.value if isinstance(key, yaml.ScalarNode)):
            if first.setdefault((key.tag, key.value), key) is not key:
                raise yaml.MarkedYAMLError(None, None, f"{key.value!r} repeated", key.start_mark)
        return super().construct_mapping(node, deep=deep)


class _UniqueKeyLoader(
    _RejectRepeatedKeys, yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
):
    """The safe loader of ``parse_config``, libyaml's where PyYAML has it."""


def _fields(mapping, table: dict, path: str) -> dict:
    """Parse a config section by its table ``{key: (parse, default)}``.

    Unknown keys are rejected and missing REQUIRED ones reported with their
    dotted path; each given or defaulted value goes through its parser, in
    table order.  A section written as null is an empty one.
    """
    mapping = {} if mapping is None else mapping
    if not isinstance(mapping, dict):
        raise ConfigError(f"{path}: expected a mapping")
    for key in mapping:
        if key not in table:
            raise ConfigError(f"{path}.{key}: unknown key")
    fields = {}
    for key, (parse, default) in table.items():
        value = mapping.get(key, default)
        if value is REQUIRED:
            raise ConfigError(f"{path}.{key}: required key is missing")
        if value is not ABSENT:
            fields[key] = _parsed(parse, value, f"{path}.{key}")
    return fields


def _parsed(parse, value, path: str):
    """``parse(value, path)``, with the error of a rule of ``errors`` re-raised
    as a ``ConfigError`` of the same text (the rule names ``path``)."""
    try:
        return parse(value, path)
    except InvalidParameterError as exc:
        raise ConfigError(str(exc)) from exc


def _string(value, path: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{path}: expected a string")
    return value


def _as_is(value, path: str):
    return value


def _one_of(*options):
    return partial(one_of, options=options)


def _list(parse, noun: str = "", nonempty: bool = True):
    """A list parsed item by item; a list that may be empty may also be null."""

    def parse_list(value, path):
        value = [] if value is None and not nonempty else value
        if not isinstance(value, list) or (nonempty and not value):
            raise ConfigError(f"{path}: expected a {'nonempty ' * nonempty}list{noun}")
        return [parse(item, f"{path}[{i}]") for i, item in enumerate(value)]

    return parse_list


def _numbers_that(rule: str):
    """A nonempty list of numbers that all obey ``rule`` (``errors.RULES``)."""
    return lambda value, path: finite_array(_numbers(value, path), path, 1, rule).tolist()


def _section(table: dict, name: str | None = None):
    """A nested section; ``name`` replaces the path of a top-level one."""
    return lambda value, path: _fields(value, table, name or path)


_seed = partial(count, low=0)
_positive = partial(number, rule="must be positive")
_nonnegative = partial(number, rule="must be nonnegative")
_fraction = partial(number, rule="must lie in [0, 1]")
_numbers = _list(number, " of numbers")
_fractions = _numbers_that("must lie in [0, 1]")
_probabilities = _numbers_that("must lie in (0, 1]")
_source = _one_of(*PILOT_SOURCES)

_USER = {
    "mean_aoa_deg": (number, REQUIRED),
    "azimuth_spread_deg": (_positive, REQUIRED),
    "noise_std": (_positive, REQUIRED),
    "weight": (_fraction, ABSENT),
}
_CLUTTER = {"angle_deg": (number, REQUIRED), "power": (_nonnegative, REQUIRED)}
_SCENE = {
    "target_angle_deg": (number, REQUIRED),
    "target_power": (_nonnegative, REQUIRED),
    "radar_noise_std": (_positive, REQUIRED),
    # kept as (angle, power) pairs
    "clutter": (
        _list(lambda value, path: tuple(_fields(value, _CLUTTER, path).values()), nonempty=False),
        [],
    ),
}
_GEOMETRY = {  # the default spacings are those of ArrayGeometry
    "n_tx": (count, REQUIRED),
    "n_rx": (count, REQUIRED),
    "spacing_tx": (_positive, ArrayGeometry.spacing_tx),
    "spacing_rx": (_positive, ArrayGeometry.spacing_rx),
}
_SCENARIO = {
    "geometry": (_section(_GEOMETRY), REQUIRED),
    "pilot_len": (count, REQUIRED),
    "n_components": (count, REQUIRED),
    "quadrature_points": (count, 8),
    "mean_policy": (_one_of(*MEAN_POLICIES), "steering"),
    "mean_scale": (number, 1.0),
    "sensing_formula": (_one_of(*SENSING_FORMULAS), IsacObjective.sensing_formula),
    "rho": (_fraction, ABSENT),
    "users": (_list(_section(_USER)), REQUIRED),
    "scene": (_section(_SCENE), REQUIRED),
}
_OPTIMIZER = {  # the defaults are those of OptimizerConfig
    "step_size": (_positive, OptimizerConfig.step_size),
    "max_iters": (count, OptimizerConfig.max_iters),
    "rel_tol": (_nonnegative, OptimizerConfig.rel_tol),
}
# task name: the table of the task's config section, which is named by the
# task name's last word (the pareto-cloud task reads section cloud)
TASKS = {
    "optimize": {},
    "sweep": {"rho_values": (_fractions, REQUIRED)},
    "pareto-cloud": {"samples": (count, REQUIRED)},
    "roc": {
        "trials": (count, REQUIRED),
        "p_fa": (_probabilities, REQUIRED),
        "pilot_source": (_source, "optimized"),
    },
    "nmse": {"trials": (count, REQUIRED), "sources": (_list(_source), list(PILOT_SOURCES))},
    "ser": {
        "snr_grid_db": (_numbers, REQUIRED),
        "n_symbols": (count, REQUIRED),
        "block_len": (count, 100),
        "sources": (_list(_source), ["optimized", "random"]),
    },
    "gradcheck": {"instances": (count, 5), "step": (_positive, 1e-4), "tolerance": (_positive, 1e-5)},
    # a rank correlation needs at least two pilots
    "diagnostics": {"pilots": (partial(count, low=2), 50), "trials": (count, REQUIRED), "block_len": (count, 100)},
}
_SECTION_OF = {task: task.split("-")[-1] for task in TASKS}
_TOP = {
    "task": (_one_of(*TASKS), REQUIRED),
    "seed": (_seed, REQUIRED),
    "output_dir": (_string, "results"),
    "optimizer": (_section(_OPTIMIZER, "optimizer"), {}),
    "scenario": (_section(_SCENARIO, "scenario"), REQUIRED),
    # the section of the config's task is parsed by the task's table
    **{section: (_as_is, ABSENT) for section in _SECTION_OF.values()},
}


@dataclass
class ExperimentConfig:
    """Validated experiment description plus the raw dict it was built from."""

    task: str
    seed: int
    output_dir: str
    scenario: dict
    optimizer: OptimizerConfig
    task_params: dict
    raw: dict = field(repr=False)

    def config_hash(self) -> str:
        effective = dict(self.raw)
        effective["seed"] = self.seed
        effective.pop("output_dir", None)
        canonical = json.dumps(effective, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def parse_config(path: str, seed_override: int | None = None, out_override: str | None = None) -> ExperimentConfig:
    """Load, validate and normalize a config file; overrides come from the CLI."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = yaml.load(handle, Loader=_UniqueKeyLoader)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ConfigError(f"config parse error{where}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")

    top = _fields(raw, _TOP, "config")
    task = top["task"]
    section = _SECTION_OF[task]
    for other in _SECTION_OF.values():
        if other in raw and other != section:
            raise ConfigError(f"config.{other}: section does not belong to task {task!r}")
    task_params = _fields(raw.get(section), TASKS[task], section)

    scenario = top["scenario"]
    scenario = {**scenario.pop("geometry"), **scenario}
    if scenario["pilot_len"] >= scenario["n_tx"]:
        raise ConfigError("scenario.pilot_len: must be strictly below geometry.n_tx")
    # rho fixes the objective that optimize and gradcheck evaluate and that
    # every optimized pilot of a task is ascended on
    pilots = [*task_params.get("sources", ()), task_params.get("pilot_source")]
    if "rho" not in scenario and (task in ("optimize", "gradcheck") or "optimized" in pilots):
        raise ConfigError("scenario.rho: required for this task")
    weights = [user["weight"] for user in scenario["users"] if "weight" in user]
    if weights and len(weights) < len(scenario["users"]):
        raise ConfigError("scenario.users: either give every user a weight or none")
    if weights:
        _parsed(partial(simplex, size=len(weights)), weights, "scenario.users")
    return ExperimentConfig(
        task=task,
        seed=top["seed"] if seed_override is None else _parsed(_seed, seed_override, "--seed"),
        output_dir=top["output_dir"] if out_override is None else out_override,
        scenario=scenario,
        optimizer=OptimizerConfig(**top["optimizer"]),
        task_params=task_params,
        raw=raw,
    )


def build_geometry(scenario: dict) -> ArrayGeometry:
    return ArrayGeometry(
        n_tx=scenario["n_tx"],
        n_rx=scenario["n_rx"],
        spacing_tx=scenario["spacing_tx"],
        spacing_rx=scenario["spacing_rx"],
    )


def build_scene(scenario: dict) -> SensingScene:
    scene = scenario["scene"]
    return SensingScene(
        target_angle=scene["target_angle_deg"],
        target_power=scene["target_power"],
        clutter=tuple(scene["clutter"]),
        radar_noise_std=scene["radar_noise_std"],
        geometry=build_geometry(scenario),
    )


def build_users(scenario: dict) -> tuple[list, np.ndarray]:
    """The scenario's user models, which share one set of components, and their weights."""
    users = build_user_models(
        build_geometry(scenario),
        [(u["mean_aoa_deg"], u["azimuth_spread_deg"], u["noise_std"]) for u in scenario["users"]],
        scenario["n_components"],
        mean_policy=scenario["mean_policy"],
        mean_scale=scenario["mean_scale"],
        quadrature_points=scenario["quadrature_points"],
    )
    if "weight" in scenario["users"][0]:  # parse_config saw every user weighted or none
        weights = np.array([u["weight"] for u in scenario["users"]])
    else:
        weights = np.full(len(users), 1.0 / len(users))
    return users, weights


def build_objective(scenario: dict, rho: float) -> IsacObjective:
    users, weights = build_users(scenario)
    return IsacObjective(rho, weights, users, build_scene(scenario), scenario["sensing_formula"])
