"""Strict experiment-configuration parsing.

Configs are YAML with a fixed schema: unknown keys are rejected with their
dotted path, physically meaningful quantities have no silent defaults, and
the effective config (including the effective seed) is hashed into every
output file so results can be traced back to their inputs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np
import yaml

from .channel import ArrayGeometry, SensingScene, build_user_model
from .errors import IsacPilotError
from .metrics import IsacObjective
from .optimizer import OptimizerConfig

TASKS = ("optimize", "sweep", "pareto-cloud", "roc", "nmse", "ser", "gradcheck", "diagnostics")
PILOT_SOURCES = ("optimized", "random", "dft", "eigen")


class ConfigError(IsacPilotError, ValueError):
    """Configuration file is malformed; message carries the offending path."""


def _require(mapping: dict, key: str, path: str):
    if key not in mapping:
        raise ConfigError(f"{path}.{key}: required key is missing")
    return mapping[key]


def _check_keys(mapping, allowed, path: str):
    if not isinstance(mapping, dict):
        raise ConfigError(f"{path}: expected a mapping")
    for key in mapping:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}: unknown key")


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number")
    return float(value)


def _integer(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer")
    return value


def _number_list(value, path: str) -> list:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path}: expected a nonempty list of numbers")
    return [_number(v, f"{path}[{i}]") for i, v in enumerate(value)]


def _choice(value, options, path: str) -> str:
    if value not in options:
        raise ConfigError(f"{path}: expected one of {options}")
    return value


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


def _parse_scenario(raw: dict) -> dict:
    path = "scenario"
    _check_keys(
        raw,
        {
            "geometry",
            "pilot_len",
            "n_components",
            "quadrature_points",
            "mean_policy",
            "mean_scale",
            "carrier_frequency_ghz",
            "sensing_formula",
            "rho",
            "users",
            "scene",
        },
        path,
    )
    geo_raw = _require(raw, "geometry", path)
    _check_keys(geo_raw, {"n_tx", "n_rx", "spacing_tx", "spacing_rx"}, f"{path}.geometry")
    scenario = {
        "n_tx": _integer(_require(geo_raw, "n_tx", f"{path}.geometry"), f"{path}.geometry.n_tx"),
        "n_rx": _integer(_require(geo_raw, "n_rx", f"{path}.geometry"), f"{path}.geometry.n_rx"),
        "spacing_tx": _number(geo_raw.get("spacing_tx", 0.5), f"{path}.geometry.spacing_tx"),
        "spacing_rx": _number(geo_raw.get("spacing_rx", 0.5), f"{path}.geometry.spacing_rx"),
        "pilot_len": _integer(_require(raw, "pilot_len", path), f"{path}.pilot_len"),
        "n_components": _integer(_require(raw, "n_components", path), f"{path}.n_components"),
        "quadrature_points": _integer(raw.get("quadrature_points", 8), f"{path}.quadrature_points"),
        "mean_policy": _choice(raw.get("mean_policy", "steering"), ("steering", "zero"), f"{path}.mean_policy"),
        "mean_scale": _number(raw.get("mean_scale", 1.0), f"{path}.mean_scale"),
        "sensing_formula": _choice(
            raw.get("sensing_formula", "approx"), ("approx", "exact"), f"{path}.sensing_formula"
        ),
    }
    if "carrier_frequency_ghz" in raw:
        scenario["carrier_frequency_ghz"] = _number(
            raw["carrier_frequency_ghz"], f"{path}.carrier_frequency_ghz"
        )
    if "rho" in raw:
        rho = _number(raw["rho"], f"{path}.rho")
        if not 0.0 <= rho <= 1.0:
            raise ConfigError(f"{path}.rho: must lie in [0, 1]")
        scenario["rho"] = rho

    users_raw = _require(raw, "users", path)
    if not isinstance(users_raw, list) or not users_raw:
        raise ConfigError(f"{path}.users: expected a nonempty list")
    users = []
    for i, user in enumerate(users_raw):
        upath = f"{path}.users[{i}]"
        _check_keys(user, {"mean_aoa_deg", "azimuth_spread_deg", "noise_std", "weight"}, upath)
        users.append(
            {
                "mean_aoa_deg": _number(_require(user, "mean_aoa_deg", upath), f"{upath}.mean_aoa_deg"),
                "azimuth_spread_deg": _number(
                    _require(user, "azimuth_spread_deg", upath), f"{upath}.azimuth_spread_deg"
                ),
                "noise_std": _number(_require(user, "noise_std", upath), f"{upath}.noise_std"),
                **({"weight": _number(user["weight"], f"{upath}.weight")} if "weight" in user else {}),
            }
        )
    scenario["users"] = users

    scene_raw = _require(raw, "scene", path)
    spath = f"{path}.scene"
    _check_keys(scene_raw, {"target_angle_deg", "target_power", "radar_noise_std", "clutter"}, spath)
    clutter = []
    for i, item in enumerate(scene_raw.get("clutter", []) or []):
        cpath = f"{spath}.clutter[{i}]"
        _check_keys(item, {"angle_deg", "power"}, cpath)
        clutter.append(
            (
                _number(_require(item, "angle_deg", cpath), f"{cpath}.angle_deg"),
                _number(_require(item, "power", cpath), f"{cpath}.power"),
            )
        )
    scenario["scene"] = {
        "target_angle_deg": _number(_require(scene_raw, "target_angle_deg", spath), f"{spath}.target_angle_deg"),
        "target_power": _number(_require(scene_raw, "target_power", spath), f"{spath}.target_power"),
        "radar_noise_std": _number(_require(scene_raw, "radar_noise_std", spath), f"{spath}.radar_noise_std"),
        "clutter": clutter,
    }
    if scenario["pilot_len"] >= scenario["n_tx"]:
        raise ConfigError(f"{path}.pilot_len: must be strictly below geometry.n_tx")
    return scenario


_TASK_SECTIONS = {
    "optimize": ("optimize", set()),
    "sweep": ("sweep", {"rho_values"}),
    "pareto-cloud": ("cloud", {"samples"}),
    "roc": ("roc", {"trials", "p_fa", "pilot_source"}),
    "nmse": ("nmse", {"trials", "sources"}),
    "ser": ("ser", {"snr_grid_db", "n_symbols", "block_len", "sources"}),
    "gradcheck": ("gradcheck", {"instances", "step", "tolerance"}),
    "diagnostics": ("diagnostics", {"pilots", "trials", "block_len"}),
}


def _parse_task_params(task: str, raw: dict) -> dict:
    section, allowed = _TASK_SECTIONS[task]
    params_raw = raw.get(section, {}) or {}
    _check_keys(params_raw, allowed, section)
    params: dict = {}
    if task == "sweep":
        params["rho_values"] = _number_list(_require(params_raw, "rho_values", section), f"{section}.rho_values")
        if any(not 0.0 <= r <= 1.0 for r in params["rho_values"]):
            raise ConfigError(f"{section}.rho_values: values must lie in [0, 1]")
    elif task == "pareto-cloud":
        params["samples"] = _integer(_require(params_raw, "samples", section), f"{section}.samples")
    elif task == "roc":
        params["trials"] = _integer(_require(params_raw, "trials", section), f"{section}.trials")
        params["p_fa"] = _number_list(_require(params_raw, "p_fa", section), f"{section}.p_fa")
        params["pilot_source"] = _choice(
            params_raw.get("pilot_source", "optimized"), PILOT_SOURCES, f"{section}.pilot_source"
        )
    elif task == "nmse":
        params["trials"] = _integer(_require(params_raw, "trials", section), f"{section}.trials")
        sources = params_raw.get("sources", list(PILOT_SOURCES))
        params["sources"] = [
            _choice(s, PILOT_SOURCES, f"{section}.sources[{i}]") for i, s in enumerate(sources)
        ]
    elif task == "ser":
        params["snr_grid_db"] = _number_list(
            _require(params_raw, "snr_grid_db", section), f"{section}.snr_grid_db"
        )
        params["n_symbols"] = _integer(_require(params_raw, "n_symbols", section), f"{section}.n_symbols")
        params["block_len"] = _integer(params_raw.get("block_len", 100), f"{section}.block_len")
        sources = params_raw.get("sources", ["optimized", "random"])
        params["sources"] = [
            _choice(s, PILOT_SOURCES, f"{section}.sources[{i}]") for i, s in enumerate(sources)
        ]
    elif task == "gradcheck":
        params["instances"] = _integer(params_raw.get("instances", 5), f"{section}.instances")
        params["step"] = _number(params_raw.get("step", 1e-4), f"{section}.step")
        params["tolerance"] = _number(params_raw.get("tolerance", 1e-5), f"{section}.tolerance")
    elif task == "diagnostics":
        params["pilots"] = _integer(params_raw.get("pilots", 50), f"{section}.pilots")
        params["trials"] = _integer(_require(params_raw, "trials", section), f"{section}.trials")
        params["block_len"] = _integer(params_raw.get("block_len", 100), f"{section}.block_len")
    return params


def parse_config(path: str, seed_override: int | None = None, out_override: str | None = None) -> ExperimentConfig:
    """Load, validate and normalize a config file; overrides come from the CLI."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = yaml.safe_load(handle)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ConfigError(f"config parse error{where}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")

    top_allowed = {"task", "seed", "output_dir", "scenario", "optimizer"}
    top_allowed.update(section for section, _ in _TASK_SECTIONS.values())
    _check_keys(raw, top_allowed, "config")

    task = _choice(_require(raw, "task", "config"), TASKS, "config.task")
    for other, (section, _) in _TASK_SECTIONS.items():
        if other != task and section in raw and section != _TASK_SECTIONS[task][0]:
            raise ConfigError(f"config.{section}: section does not belong to task {task!r}")

    seed = _integer(_require(raw, "seed", "config"), "config.seed")
    if seed_override is not None:
        seed = seed_override
    output_dir = raw.get("output_dir", "results")
    if not isinstance(output_dir, str):
        raise ConfigError("config.output_dir: expected a string")
    if out_override is not None:
        output_dir = out_override

    opt_raw = raw.get("optimizer", {}) or {}
    _check_keys(opt_raw, {"step_size", "max_iters", "rel_tol"}, "optimizer")
    optimizer = OptimizerConfig(
        step_size=_number(opt_raw.get("step_size", 0.1), "optimizer.step_size"),
        max_iters=_integer(opt_raw.get("max_iters", 200), "optimizer.max_iters"),
        rel_tol=_number(opt_raw.get("rel_tol", 1e-8), "optimizer.rel_tol"),
    )
    scenario = _parse_scenario(_require(raw, "scenario", "config"))
    task_params = _parse_task_params(task, raw)
    # rho fixes the objective of every optimized pilot the task uses
    pilots = [*task_params.get("sources", ()), task_params.get("pilot_source")]
    if "rho" not in scenario and (task == "optimize" or "optimized" in pilots):
        raise ConfigError("scenario.rho: required for this task")
    return ExperimentConfig(
        task=task,
        seed=seed,
        output_dir=output_dir,
        scenario=scenario,
        optimizer=optimizer,
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
    geometry = build_geometry(scenario)
    users = [
        build_user_model(
            geometry,
            u["mean_aoa_deg"],
            u["azimuth_spread_deg"],
            scenario["n_components"],
            u["noise_std"],
            mean_policy=scenario["mean_policy"],
            mean_scale=scenario["mean_scale"],
            quadrature_points=scenario["quadrature_points"],
        )
        for u in scenario["users"]
    ]
    explicit = [u.get("weight") for u in scenario["users"]]
    if any(w is not None for w in explicit):
        if any(w is None for w in explicit):
            raise ConfigError("scenario.users: either give every user a weight or none")
        weights = np.array(explicit, dtype=float)
    else:
        weights = np.full(len(users), 1.0 / len(users))
    return users, weights


def build_objective(scenario: dict, rho: float) -> IsacObjective:
    users, weights = build_users(scenario)
    return IsacObjective(rho=rho, user_weights=weights, users=users, scene=build_scene(scenario))
