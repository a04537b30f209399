"""The three benchmark workloads and the task invocations each one makes.

A workload is a list of tasks; running every task once is one cycle, which
produces one complete set of the workload's tables.  Inputs come only from
the workload seed: it is the config seed of every generated config (through
``PILOT_SEEDS`` for the random-pilot ones) and the ``--seed`` of every
command-line invocation.

- ``frontier``: the shipped ``configs/sweep_tradeoff.yaml`` sweep, one task
  per trade-off value (21 single-value sweeps with the shipped scenario and
  optimizer settings), run through ``cli.run_config`` with ``threads=1`` in
  one long-lived worker process (``child.py``).  Splitting the sweep per value
  leaves the work per point unchanged (the sweep already rebuilds the
  objective per value) and lets each point be timed on its own.
- ``montecarlo``: evaluation-only configs generated here (NMSE, SER, ROC
  with clutter, capacity diagnostics), run like ``frontier``.  No optimizer
  runs.  The configs with a random pilot (``RANDOM_PILOT``) take their config
  seed from ``PILOT_SEEDS``: that seed draws the pilot as well as the trials,
  and ``reference.json`` holds the Monte Carlo band of each of those pilots,
  so a wrong figure cannot hide in the spread between pilots.
- ``cli-suite``: the seven other shipped configs, each a fresh
  ``isacpilot <task> --threads 2`` process (``child.py`` calls ``cli.main``,
  as the installed command does, without needing an install).
"""

from __future__ import annotations

import copy
import os
from dataclasses import dataclass

import yaml

WORKLOADS = ("frontier", "montecarlo", "cli-suite")

CLI_SUITE = (
    "convergence_stepsize",
    "diagnostics_cworst",
    "gradcheck_small",
    "nmse_baselines",
    "pareto_cloud",
    "roc_compare",
    "ser_multiuser",
)
SHIPPED = CLI_SUITE + ("sweep_tradeoff",)

# Monte Carlo sizes of the generated configs
NMSE_TRIALS = 3000
SER_SYMBOLS = 40000
ROC_TRIALS = 1_000_000
DIAG_PILOTS = 40
DIAG_TRIALS = 600

# config seeds of the random-pilot configs: PILOT_SEEDS[seed % 4]
PILOT_SEEDS = (11, 12, 13, 14)
RANDOM_PILOT = ("mc_nmse_random", "mc_ser_random", "mc_roc")

FOUR_USERS = [
    {"mean_aoa_deg": 70.0, "azimuth_spread_deg": 4.0, "noise_std": 0.1},
    {"mean_aoa_deg": 23.0, "azimuth_spread_deg": 4.0, "noise_std": 0.1},
    {"mean_aoa_deg": -23.0, "azimuth_spread_deg": 4.0, "noise_std": 0.1},
    {"mean_aoa_deg": -70.0, "azimuth_spread_deg": 4.0, "noise_std": 0.1},
]


@dataclass(frozen=True)
class Task:
    """One task invocation: ``isacpilot <task> --config <config> --out <out_dir>``."""

    label: str
    task: str
    config: str
    out_dir: str


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    tasks: tuple
    in_worker: bool


def _scenario_16x6() -> dict:
    return {
        "geometry": {"n_tx": 16, "n_rx": 8},
        "pilot_len": 6,
        "n_components": 180,
        "users": copy.deepcopy(FOUR_USERS),
        "scene": {"target_angle_deg": -20.0, "target_power": 1.0, "radar_noise_std": 2.0, "clutter": []},
    }


def montecarlo_configs(seed: int) -> dict:
    """The generated evaluation-only configs, by label."""
    roc_scenario = {
        "geometry": {"n_tx": 20, "n_rx": 5},
        "pilot_len": 9,
        "n_components": 180,
        "users": [{"mean_aoa_deg": 70.0, "azimuth_spread_deg": 6.0, "noise_std": 0.1}],
        "scene": {
            "target_angle_deg": 60.0,
            "target_power": 1.0,
            "radar_noise_std": 2.0,
            "clutter": [{"angle_deg": 0.0, "power": 0.5}, {"angle_deg": 35.0, "power": 0.3}],
        },
    }
    diag_scenario = {
        "geometry": {"n_tx": 12, "n_rx": 4},
        "pilot_len": 4,
        "n_components": 90,
        "mean_policy": "zero",
        "users": [{"mean_aoa_deg": 40.0, "azimuth_spread_deg": 10.0, "noise_std": 0.1}],
        "scene": {"target_angle_deg": -20.0, "target_power": 1.0, "radar_noise_std": 2.0, "clutter": []},
    }
    configs = {}
    for source in ("random", "dft", "eigen"):
        configs[f"mc_nmse_{source}"] = {
            "task": "nmse",
            "seed": seed,
            "scenario": _scenario_16x6(),
            "nmse": {"trials": NMSE_TRIALS, "sources": [source]},
        }
    for source in ("random", "dft"):
        configs[f"mc_ser_{source}"] = {
            "task": "ser",
            "seed": seed,
            "scenario": _scenario_16x6(),
            "ser": {
                "snr_grid_db": [4.0, 8.0, 12.0, 16.0, 20.0, 24.0],
                "n_symbols": SER_SYMBOLS,
                "block_len": 100,
                "sources": [source],
            },
        }
    configs["mc_roc"] = {
        "task": "roc",
        "seed": seed,
        "scenario": roc_scenario,
        "roc": {
            "trials": ROC_TRIALS,
            "pilot_source": "random",
            "p_fa": [0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0],
        },
    }
    for half in range(2):
        configs[f"mc_diagnostics_{half}"] = {
            "task": "diagnostics",
            "seed": seed + half,
            "scenario": diag_scenario,
            "diagnostics": {"pilots": DIAG_PILOTS // 2, "trials": DIAG_TRIALS, "block_len": 100},
        }
    for label in RANDOM_PILOT:
        configs[label]["seed"] = pilot_seed(seed)
    return configs


def pilot_seed(seed: int) -> int:
    """Config seed of the random-pilot configs of workload seed ``seed``."""
    return PILOT_SEEDS[seed % len(PILOT_SEEDS)]


def frontier_configs(root: str, seed: int) -> dict:
    """One single-value copy of the shipped sweep per trade-off value, by label."""
    with open(os.path.join(root, "configs", "sweep_tradeoff.yaml"), encoding="utf-8") as handle:
        base = yaml.safe_load(handle)
    configs = {}
    for rho in base["sweep"]["rho_values"]:
        raw = copy.deepcopy(base)
        raw["seed"] = seed
        raw["sweep"]["rho_values"] = [float(rho)]
        configs[f"rho={float(rho):.2f}"] = raw
    return configs


def _write_config(raw: dict, path: str) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        yaml.safe_dump(raw, handle, sort_keys=False)
    return path


def build(name: str, root: str, seed: int, tmp: str) -> Workload:
    """Generate the workload's configs under ``tmp`` and list its tasks."""
    if name == "cli-suite":
        tasks = []
        for stem in CLI_SUITE:
            config = os.path.join(root, "configs", f"{stem}.yaml")
            with open(config, encoding="utf-8") as handle:
                task = yaml.safe_load(handle)["task"]
            tasks.append(Task(stem, task, config, os.path.join(tmp, "out", stem)))
        return Workload(name, seed, tuple(tasks), in_worker=False)
    if name == "frontier":
        raws = frontier_configs(root, seed)
    elif name == "montecarlo":
        raws = montecarlo_configs(seed)
    else:
        raise ValueError(f"unknown workload {name!r}")
    os.makedirs(os.path.join(tmp, "configs"), exist_ok=True)
    tasks = []
    for i, (label, raw) in enumerate(raws.items()):
        config = _write_config(raw, os.path.join(tmp, "configs", f"{i:02d}.yaml"))
        tasks.append(Task(label, raw["task"], config, os.path.join(tmp, "out", f"{i:02d}")))
    return Workload(name, seed, tuple(tasks), in_worker=True)
