"""Tests for config parsing, table emission and the experiment runner."""

import copy
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

from isacpilot.cli import (
    ResultTable,
    _average_ranks,
    _spearman,
    emit_table,
    run_config,
    verify_outputs,
)
import isacpilot.cli as cli
import isacpilot.config as config_module
from isacpilot.config import TASKS, ConfigError, build_objective, parse_config
from isacpilot.errors import ObjectiveDomainError
from isacpilot.metrics import sensing_mi
from isacpilot.optimizer import (
    OptimizerConfig,
    optimize_pgd,
    random_stiefel,
    sample_feasible_cloud,
)
from isacpilot.streams import substream

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
# the loader bases parse_config can take: libyaml's, and the pure-Python
# fallback of a PyYAML built without libyaml
LOADER_BASES = {"libyaml": getattr(yaml, "CSafeLoader", None), "python": yaml.SafeLoader}


def use_loader_base(monkeypatch, name):
    """Make parse_config read through the repeated-key loader on ``name``'s base."""
    base = LOADER_BASES[name]
    if base is None:
        pytest.skip("PyYAML was built without libyaml")
    loader = type("Loader", (config_module._RejectRepeatedKeys, base), {})
    monkeypatch.setattr(config_module, "_UniqueKeyLoader", loader)

BASE_CONFIG = {
    "task": "sweep",
    "seed": 11,
    "scenario": {
        "geometry": {"n_tx": 8, "n_rx": 4},
        "pilot_len": 3,
        "n_components": 12,
        "users": [
            {"mean_aoa_deg": 40.0, "azimuth_spread_deg": 8.0, "noise_std": 0.5},
        ],
        "scene": {
            "target_angle_deg": -20.0,
            "target_power": 1.0,
            "radar_noise_std": 1.0,
            "clutter": [],
        },
    },
    "optimizer": {"step_size": 0.1, "max_iters": 8, "rel_tol": 0.0},
    "sweep": {"rho_values": [0.0, 0.5, 1.0]},
}


def write_config(tmp_path, overrides=None, name="config.yaml"):
    config = copy.deepcopy(BASE_CONFIG)
    for path, value in (overrides or {}).items():
        node = config
        keys = path.split(".")
        for key in keys[:-1]:
            node = node[key]
        if value is ...:
            del node[keys[-1]]
        else:
            node[keys[-1]] = value
    path = tmp_path / name
    path.write_text(yaml.safe_dump(config))
    return str(path)


class TestConfigParsing:
    def test_valid_config_round_trips(self, tmp_path):
        config = parse_config(write_config(tmp_path))
        assert config.task == "sweep"
        assert config.seed == 11
        assert config.task_params["rho_values"] == [0.0, 0.5, 1.0]

    def test_unknown_key_rejected_with_path(self, tmp_path):
        path = write_config(tmp_path, {"scenario.bogus_knob": 3})
        with pytest.raises(ConfigError, match="scenario.bogus_knob"):
            parse_config(path)

    def test_missing_required_key(self, tmp_path):
        path = write_config(tmp_path, {"scenario.scene.radar_noise_std": ...})
        with pytest.raises(ConfigError, match="radar_noise_std"):
            parse_config(path)

    def test_yaml_error_carries_position(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("task: sweep\nseed: [unclosed\n")
        with pytest.raises(ConfigError, match="line"):
            parse_config(str(path))

    def test_loader_is_libyamls_where_pyyaml_has_it(self):
        base = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
        assert issubclass(config_module._UniqueKeyLoader, base)

    @pytest.mark.parametrize("base", LOADER_BASES)
    @pytest.mark.parametrize(
        "line, repeat",
        [("seed: 11", "seed: 7"), ("    radar_noise_std: 1.0", "    radar_noise_std: 2.0")],
    )
    def test_repeated_key_rejected_at_its_position(self, tmp_path, monkeypatch, line, repeat, base):
        # yaml.safe_load would keep the last copy and run with it
        use_loader_base(monkeypatch, base)
        text = yaml.safe_dump(BASE_CONFIG)
        assert text.count(f"{line}\n") == 1
        text = text.replace(f"{line}\n", f"{line}\n{repeat}\n")
        path = tmp_path / "repeated.yaml"
        path.write_text(text)
        row = text.splitlines().index(repeat) + 1
        column = len(repeat) - len(repeat.lstrip()) + 1
        key = repeat.split(":")[0].strip()
        with pytest.raises(ConfigError, match=f"line {row}, column {column}: '{key}' repeated"):
            parse_config(str(path))
        out = tmp_path / "out"
        assert run_config(str(path), out_dir=str(out)) == 2
        assert not out.exists()

    def test_foreign_task_section_rejected(self, tmp_path):
        path = write_config(tmp_path, {"roc": {"trials": 10, "p_fa": [0.1]}})
        with pytest.raises(ConfigError, match="config.roc"):
            parse_config(path)

    def test_optimizer_defaults_are_those_of_optimizer_config(self, tmp_path):
        config = parse_config(write_config(tmp_path, {"optimizer": ...}))
        assert config.optimizer == OptimizerConfig()

    def test_seed_override(self, tmp_path):
        config = parse_config(write_config(tmp_path), seed_override=99)
        assert config.seed == 99

    def test_hash_tracks_effective_seed(self, tmp_path):
        path = write_config(tmp_path)
        base = parse_config(path)
        overridden = parse_config(path, seed_override=99)
        assert base.config_hash() != overridden.config_hash()

    def test_pilot_len_must_be_tall(self, tmp_path):
        path = write_config(tmp_path, {"scenario.pilot_len": 8})
        with pytest.raises(ConfigError, match="pilot_len"):
            parse_config(path)

    def test_optimize_requires_rho(self, tmp_path):
        path = write_config(tmp_path, {"task": "optimize", "sweep": ...})
        with pytest.raises(ConfigError, match="rho"):
            parse_config(path)

    @pytest.mark.parametrize(
        "task, section, required",
        [
            ("roc", {"trials": 1000, "p_fa": [0.1], "pilot_source": "optimized"}, True),
            ("roc", {"trials": 1000, "p_fa": [0.1]}, True),
            ("roc", {"trials": 1000, "p_fa": [0.1], "pilot_source": "random"}, False),
            ("nmse", {"trials": 10, "sources": ["random", "optimized"]}, True),
            ("nmse", {"trials": 10, "sources": ["random", "dft", "eigen"]}, False),
            ("ser", {"snr_grid_db": [10.0], "n_symbols": 1000, "sources": ["optimized"]}, True),
            ("ser", {"snr_grid_db": [10.0], "n_symbols": 1000, "sources": ["random"]}, False),
            ("diagnostics", {"trials": 10}, False),
        ],
    )
    def test_rho_required_only_for_optimized_pilots(self, tmp_path, task, section, required):
        path = write_config(tmp_path, {"task": task, "sweep": ..., task: section})
        if required:
            with pytest.raises(ConfigError, match="scenario.rho"):
                parse_config(path)
        else:
            assert "rho" not in parse_config(path).scenario


SOURCES = "('optimized', 'random', 'dft', 'eigen')"
USER = {"mean_aoa_deg": 40.0, "azimuth_spread_deg": 8.0, "noise_std": 0.5}
CLUTTER = {"angle_deg": 0.0, "power": 0.5}


def task_overrides(task, section_key, section):
    """Overrides that turn BASE_CONFIG into a valid ``task`` config with ``section``."""
    return {"task": task, "sweep": ..., "scenario.rho": 0.5, section_key: section}


# single-fault configs and the exact message each is reported with
PARSE_MESSAGES = [
    ({"bogus": 1}, "config.bogus: unknown key"),
    ({"seed": ...}, "config.seed: required key is missing"),
    ({"seed": "eleven"}, "config.seed: expected an integer"),
    ({"scenario": ...}, "config.scenario: required key is missing"),
    ({"output_dir": 5}, "config.output_dir: expected a string"),
    (
        {"task": "fly"},
        "config.task: expected one of ('optimize', 'sweep', 'pareto-cloud', 'roc', 'nmse', "
        "'ser', 'gradcheck', 'diagnostics')",
    ),
    ({"scenario.bogus": 1}, "scenario.bogus: unknown key"),
    ({"scenario.pilot_len": ...}, "scenario.pilot_len: required key is missing"),
    ({"scenario.mean_scale": "big"}, "scenario.mean_scale: expected a number"),
    ({"scenario.sensing_formula": "fast"}, "scenario.sensing_formula: expected one of ('approx', 'exact')"),
    ({"scenario.geometry.bogus": 1}, "scenario.geometry.bogus: unknown key"),
    ({"scenario.geometry.n_rx": ...}, "scenario.geometry.n_rx: required key is missing"),
    ({"scenario.geometry.n_tx": 8.0}, "scenario.geometry.n_tx: expected an integer"),
    ({"scenario.users": [{**USER, "bogus": 1}]}, "scenario.users[0].bogus: unknown key"),
    (
        {"scenario.users": [USER, {"mean_aoa_deg": 0.0, "azimuth_spread_deg": 8.0}]},
        "scenario.users[1].noise_std: required key is missing",
    ),
    (
        {"scenario.users": [{**USER, "mean_aoa_deg": "north"}]},
        "scenario.users[0].mean_aoa_deg: expected a number",
    ),
    ({"scenario.users": []}, "scenario.users: expected a nonempty list"),
    ({"scenario.scene.bogus": 1}, "scenario.scene.bogus: unknown key"),
    ({"scenario.scene.radar_noise_std": ...}, "scenario.scene.radar_noise_std: required key is missing"),
    ({"scenario.scene.target_power": "high"}, "scenario.scene.target_power: expected a number"),
    ({"scenario.scene.clutter": [{**CLUTTER, "bogus": 1}]}, "scenario.scene.clutter[0].bogus: unknown key"),
    (
        {"scenario.scene.clutter": [CLUTTER, {"angle_deg": 9.0}]},
        "scenario.scene.clutter[1].power: required key is missing",
    ),
    (
        {"scenario.scene.clutter": [{**CLUTTER, "angle_deg": "x"}]},
        "scenario.scene.clutter[0].angle_deg: expected a number",
    ),
    ({"scenario.scene.clutter": [5]}, "scenario.scene.clutter[0]: expected a mapping"),
    ({"optimizer.bogus": 1}, "optimizer.bogus: unknown key"),
    ({"optimizer.max_iters": 2.5}, "optimizer.max_iters: expected an integer"),
    ({"optimizer": 5}, "optimizer: expected a mapping"),
    (task_overrides("optimize", "optimize", {"bogus": 1}), "optimize.bogus: unknown key"),
    ({"sweep.bogus": 1}, "sweep.bogus: unknown key"),
    ({"sweep.rho_values": ...}, "sweep.rho_values: required key is missing"),
    ({"sweep.rho_values": "all"}, "sweep.rho_values: expected a nonempty list of numbers"),
    ({"sweep.rho_values": [0.5, "x"]}, "sweep.rho_values[1]: expected a number"),
    (task_overrides("pareto-cloud", "cloud", {"samples": 10, "bogus": 1}), "cloud.bogus: unknown key"),
    (task_overrides("pareto-cloud", "cloud", {}), "cloud.samples: required key is missing"),
    (task_overrides("pareto-cloud", "cloud", {"samples": "many"}), "cloud.samples: expected an integer"),
    (task_overrides("roc", "roc", {"trials": 1000, "p_fa": [0.1], "bogus": 1}), "roc.bogus: unknown key"),
    (task_overrides("roc", "roc", {"trials": 1000}), "roc.p_fa: required key is missing"),
    (task_overrides("roc", "roc", {"trials": 1.5, "p_fa": [0.1]}), "roc.trials: expected an integer"),
    (
        task_overrides("roc", "roc", {"trials": 1000, "p_fa": [0.1], "pilot_source": "best"}),
        f"roc.pilot_source: expected one of {SOURCES}",
    ),
    (task_overrides("nmse", "nmse", {"trials": 10, "bogus": 1}), "nmse.bogus: unknown key"),
    (task_overrides("nmse", "nmse", {}), "nmse.trials: required key is missing"),
    (
        task_overrides("nmse", "nmse", {"trials": 10, "sources": ["random", "best"]}),
        f"nmse.sources[1]: expected one of {SOURCES}",
    ),
    (
        task_overrides("ser", "ser", {"snr_grid_db": [10.0], "n_symbols": 1000, "bogus": 1}),
        "ser.bogus: unknown key",
    ),
    (task_overrides("ser", "ser", {"n_symbols": 1000}), "ser.snr_grid_db: required key is missing"),
    (
        task_overrides("ser", "ser", {"snr_grid_db": [10.0], "n_symbols": "x"}),
        "ser.n_symbols: expected an integer",
    ),
    (task_overrides("gradcheck", "gradcheck", {"bogus": 1}), "gradcheck.bogus: unknown key"),
    (task_overrides("gradcheck", "gradcheck", {"step": "x"}), "gradcheck.step: expected a number"),
    (
        task_overrides("diagnostics", "diagnostics", {"trials": 10, "bogus": 1}),
        "diagnostics.bogus: unknown key",
    ),
    (task_overrides("diagnostics", "diagnostics", {}), "diagnostics.trials: required key is missing"),
    (
        task_overrides("diagnostics", "diagnostics", {"trials": 10, "pilots": "x"}),
        "diagnostics.pilots: expected an integer",
    ),
    ({"roc": {"trials": 1000, "p_fa": [0.1]}}, "config.roc: section does not belong to task 'sweep'"),
    ({"scenario.rho": 1.5}, "scenario.rho: must lie in [0, 1]"),
    ({"sweep.rho_values": [0.5, -0.1]}, "sweep.rho_values: values must lie in [0, 1]"),
    ({"scenario.pilot_len": 8}, "scenario.pilot_len: must be strictly below geometry.n_tx"),
    ({"task": "optimize", "sweep": ...}, "scenario.rho: required for this task"),
    ({"task": "gradcheck", "sweep": ...}, "scenario.rho: required for this task"),
]


def message_ids(cases):
    """Each case named by its message; a message named before also names its task."""
    ids = []
    for overrides, message in cases:
        ids.append(f"{overrides['task']}: {message}" if message in ids else message)
    return ids


@pytest.mark.parametrize("overrides, message", PARSE_MESSAGES, ids=message_ids(PARSE_MESSAGES))
def test_parse_error_message(tmp_path, overrides, message):
    with pytest.raises(ConfigError) as excinfo:
        parse_config(write_config(tmp_path, overrides))
    assert str(excinfo.value) == message


def test_non_mapping_root_rejected(tmp_path):
    path = tmp_path / "list.yaml"
    path.write_text("[1, 2]\n")
    with pytest.raises(ConfigError) as excinfo:
        parse_config(str(path))
    assert str(excinfo.value) == "config root must be a mapping"


# inputs that crashed, wrote an empty or NaN table, or exited 3 before the
# range rules moved into the config tables; each is now a config error
BAD_INPUTS = [
    ({"optimizer.step_size": 0.0}, None, "optimizer.step_size"),
    ({"optimizer.max_iters": 0}, None, "optimizer.max_iters"),
    ({"seed": -1}, None, "config.seed"),
    ({}, -1, "--seed"),
    ({"scenario.pilot_len": 0}, None, "scenario.pilot_len"),
    ({"scenario.pilot_len": -1}, None, "scenario.pilot_len"),
    (task_overrides("nmse", "nmse", {"trials": 10, "sources": 3}), None, "nmse.sources"),
    ({"scenario.scene.clutter": 5}, None, "scenario.scene.clutter"),
    (task_overrides("gradcheck", "gradcheck", {"instances": 0}), None, "gradcheck.instances"),
    (task_overrides("pareto-cloud", "cloud", {"samples": 0}), None, "cloud.samples"),
    (task_overrides("pareto-cloud", "cloud", {"samples": -5}), None, "cloud.samples"),
    (task_overrides("diagnostics", "diagnostics", {"trials": 10, "pilots": 0}), None, "diagnostics.pilots"),
    (task_overrides("nmse", "nmse", {"trials": 10, "sources": []}), None, "nmse.sources"),
    (
        task_overrides("ser", "ser", {"snr_grid_db": [10.0], "n_symbols": 1000, "sources": []}),
        None,
        "ser.sources",
    ),
    ({"scenario.users": [{**USER, "weight": 1.0}, USER]}, None, "scenario.users"),
    ({"scenario.n_components": 0}, None, "scenario.n_components"),
    ({"scenario.quadrature_points": 0}, None, "scenario.quadrature_points"),
    (task_overrides("nmse", "nmse", {"trials": 0, "sources": ["random"]}), None, "nmse.trials"),
    (
        task_overrides(
            "ser", "ser", {"snr_grid_db": [10.0], "n_symbols": 1000, "block_len": 0, "sources": ["random"]}
        ),
        None,
        "ser.block_len",
    ),
    (task_overrides("diagnostics", "diagnostics", {"trials": 10, "pilots": 1}), None, "diagnostics.pilots"),
    ({"scenario.users": [{**USER, "weight": 0.3}, {**USER, "weight": 0.3}]}, None, "scenario.users"),
    ({"scenario.users": [{**USER, "noise_std": 0.0}]}, None, "scenario.users[0].noise_std"),
    ({"scenario.users": [{**USER, "azimuth_spread_deg": -3.0}]}, None, "scenario.users[0].azimuth_spread_deg"),
    ({"scenario.scene.radar_noise_std": -1.0}, None, "scenario.scene.radar_noise_std"),
    ({"scenario.geometry.spacing_tx": 0.0}, None, "scenario.geometry.spacing_tx"),
    (task_overrides("gradcheck", "gradcheck", {"instances": 1, "tolerance": -1.0}), None, "gradcheck.tolerance"),
    (task_overrides("roc", "roc", {"trials": 1000, "p_fa": [0.1, 0.0]}), None, "roc.p_fa"),
    ({"scenario.scene.target_power": -1.0}, None, "scenario.scene.target_power"),
    (
        {"scenario.scene.clutter": [{"angle_deg": 10.0, "power": -0.5}]},
        None,
        "scenario.scene.clutter[0].power",
    ),
    # non-finite numbers: a raw LinAlgError, a weights error without the key,
    # and an ascent that silently stops at its first window
    ({"scenario.scene.target_angle_deg": float("nan")}, None, "scenario.scene.target_angle_deg"),
    ({"scenario.scene.target_angle_deg": float("inf")}, None, "scenario.scene.target_angle_deg"),
    ({"scenario.users": [{**USER, "mean_aoa_deg": float("nan")}]}, None, "scenario.users[0].mean_aoa_deg"),
    ({"optimizer.rel_tol": float("inf")}, None, "optimizer.rel_tol"),
    (
        {"scenario.scene.clutter": [{"angle_deg": -float("inf"), "power": 0.5}]},
        None,
        "scenario.scene.clutter[0].angle_deg",
    ),
    ({"scenario.mean_scale": 10**400}, None, "scenario.mean_scale"),
]


@pytest.mark.parametrize(
    "overrides, seed, key", BAD_INPUTS, ids=[f"{key}-{i}" for i, (_, _, key) in enumerate(BAD_INPUTS)]
)
def test_bad_input_exits_2_naming_its_key(tmp_path, capsys, overrides, seed, key):
    out = tmp_path / "out"
    assert run_config(write_config(tmp_path, overrides), seed=seed, out_dir=str(out)) == 2
    assert f"error: {key}: " in capsys.readouterr().err
    assert not out.exists()


class TestEmitTable:
    def test_empty_table_is_header_only(self, tmp_path):
        table = ResultTable("t", ["a", "b"], [], {"config_hash": "x", "seed": 1})
        path = tmp_path / "t.csv"
        emit_table(table, str(path))
        lines = path.read_text().splitlines()
        assert lines == ["# config_hash: x", "# seed: 1", "a,b"]

    def test_deterministic_bytes(self, tmp_path):
        table = ResultTable("t", ["a"], [(1.0 / 3.0,)], {"config_hash": "x"})
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_table(table, str(p1))
        emit_table(table, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_seventeen_significant_digits(self, tmp_path):
        table = ResultTable("t", ["a"], [(np.pi,)], {})
        path = tmp_path / "t.csv"
        emit_table(table, str(path))
        assert "3.1415926535897931" in path.read_text()

    def test_no_temp_file_left_behind(self, tmp_path):
        table = ResultTable("t", ["a"], [(1.0,)], {})
        emit_table(table, str(tmp_path / "t.csv"))
        assert sorted(os.listdir(tmp_path)) == ["t.csv"]


class TestRunConfig:
    def test_sweep_writes_frontier_schema(self, tmp_path):
        path = write_config(tmp_path)
        out = tmp_path / "out"
        assert run_config(path, out_dir=str(out)) == 0
        lines = (out / "frontier.csv").read_text().splitlines()
        header = [l for l in lines if not l.startswith("#")][0]
        assert header == "rho,comm_mi_bits,sense_mi_bits,objective_bits,iters,residual"
        rows = [l for l in lines if not l.startswith("#")][1:]
        assert len(rows) == 3

    def test_unknown_key_exits_2_without_output(self, tmp_path):
        path = write_config(tmp_path, {"scenario.bogus": 1})
        out = tmp_path / "out"
        assert run_config(path, out_dir=str(out)) == 2
        assert not out.exists()

    def test_task_mismatch_exits_2(self, tmp_path):
        path = write_config(tmp_path)
        assert run_config(path, task="roc", out_dir=str(tmp_path / "o")) == 2

    def test_domain_error_exits_3_without_output(self, tmp_path):
        overrides = {
            "scenario.scene.clutter": [
                {"angle_deg": -20.0, "power": 500.0},
                {"angle_deg": -20.0, "power": 500.0},
            ],
            "scenario.scene.target_power": 50.0,
            "scenario.scene.radar_noise_std": 0.2,
        }
        path = write_config(tmp_path, overrides)
        out = tmp_path / "out"
        assert run_config(path, out_dir=str(out)) == 3
        assert not out.exists()

    def test_overflowing_step_exits_3_naming_the_iteration(self, tmp_path, capsys):
        # a finite step so large that the second ascent step overflows to infinity
        overrides = {"optimizer.step_size": 1.0e308, "scenario.users": [{**USER, "noise_std": 0.05}]}
        path = write_config(tmp_path, overrides)
        out = tmp_path / "out"
        with np.errstate(over="ignore"):
            assert run_config(path, out_dir=str(out)) == 3
        assert "error: task sweep: iteration 2: projection" in capsys.readouterr().err
        assert not out.exists()

    def test_gradcheck_reports_and_passes(self, tmp_path, capsys):
        overrides = {
            "task": "gradcheck",
            "sweep": ...,
            "gradcheck": {"instances": 2, "step": 1e-4, "tolerance": 1e-5},
            "scenario.rho": 0.4,
        }
        path = write_config(tmp_path, overrides)
        out = tmp_path / "out"
        assert run_config(path, out_dir=str(out)) == 0
        content = (out / "gradcheck.csv").read_text()
        assert "# tolerance: 1e-05\n" in content

    def test_gradcheck_follows_the_exact_formula(self, tmp_path):
        # two clutter sources 2 degrees either side of the target, where the
        # approximate log-argument is below zero: the sensing and ISAC checks
        # take the exact metric and the exact gradient
        clutter = [{"angle_deg": 2.0, "power": 3.0}, {"angle_deg": -2.0, "power": 2.0}]
        section = {"instances": 2, "step": 1e-4, "tolerance": 1e-5}
        overrides = {
            **task_overrides("gradcheck", "gradcheck", section),
            "scenario.rho": 0.4,
            "scenario.scene.target_angle_deg": 0.0,
            "scenario.scene.clutter": clutter,
        }
        path = write_config(tmp_path, overrides)
        out = tmp_path / "out"
        assert run_config(path, out_dir=str(out)) == 3
        path = write_config(tmp_path, {**overrides, "scenario.sensing_formula": "exact"})
        assert run_config(path, out_dir=str(out)) == 0
        lines = (out / "gradcheck.csv").read_text().splitlines()
        assert "# sensing_formula: exact" in lines
        errors = np.array([line.split(",")[1:] for line in lines[-2:]], dtype=float)
        assert errors.shape == (2, 3) and errors.max() <= 1e-5

    def test_ser_reports_the_simulated_symbol_count(self, tmp_path):
        # 1,050 symbols in blocks of 100 run 11 whole blocks: 1,100 per user
        section = {"snr_grid_db": [0.0], "n_symbols": 1050, "block_len": 100, "sources": ["random"]}
        path = write_config(tmp_path, task_overrides("ser", "ser", section))
        out = tmp_path / "out"
        assert run_config(path, out_dir=str(out)) == 0
        lines = (out / "ser.csv").read_text().splitlines()
        assert "# n_symbols_per_user: 1100" in lines
        errors = float(lines[-1].split(",")[-1]) * 1100  # one user
        assert errors > 0 and abs(errors - round(errors)) <= 1e-9

    def test_byte_identical_reruns_and_thread_counts(self, tmp_path):
        path = write_config(tmp_path)
        outs = [tmp_path / f"out{i}" for i in range(3)]
        assert run_config(path, out_dir=str(outs[0]), threads=1) == 0
        assert run_config(path, out_dir=str(outs[1]), threads=1) == 0
        assert run_config(path, out_dir=str(outs[2]), threads=3) == 0
        reference = (outs[0] / "frontier.csv").read_bytes()
        assert (outs[1] / "frontier.csv").read_bytes() == reference
        assert (outs[2] / "frontier.csv").read_bytes() == reference


class TestCapNotice:
    """``sweep`` and ``optimize`` count on stderr the ascents that ran to
    ``max_iters`` while the early stop was on."""

    TASKS = {"sweep": {}, "optimize": {"task": "optimize", "sweep": ..., "scenario.rho": 0.5}}

    @pytest.mark.parametrize("task", TASKS)
    def test_points_at_the_cap_are_named(self, tmp_path, capsys, task):
        # the stop test needs a full 10-iteration window, so 8 iterations reach the cap
        path = write_config(tmp_path, {**self.TASKS[task], "optimizer.rel_tol": 1e-8})
        assert run_config(path, out_dir=str(tmp_path / "out")) == 0
        points = 3 if task == "sweep" else 1
        assert capsys.readouterr().err == f"{task}: {points} of {points} points reached max_iters (8)\n"

    @pytest.mark.parametrize("task", TASKS)
    def test_silent_when_every_point_stops_on_rel_tol(self, tmp_path, capsys, task):
        # rel_tol 1 passes the first window test, at iteration 10; with
        # max_iters 10 that is also the cap, and the stop is still rel_tol's
        for max_iters in (50, 10):
            overrides = {"optimizer.rel_tol": 1.0, "optimizer.max_iters": max_iters}
            path = write_config(tmp_path, {**self.TASKS[task], **overrides})
            assert run_config(path, out_dir=str(tmp_path / "out")) == 0
            assert capsys.readouterr().err == ""

    def test_silent_when_rel_tol_is_zero(self, tmp_path, capsys):
        # BASE_CONFIG runs 8 iterations with the early stop off
        assert run_config(write_config(tmp_path), out_dir=str(tmp_path / "out")) == 0
        assert capsys.readouterr().err == ""


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_is_a_usage_error(tmp_path, capsys, threads):
    out = tmp_path / "out"
    argv = ["sweep", "--config", write_config(tmp_path), "--out", str(out), "--threads", threads]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "--threads: must be >= 1" in capsys.readouterr().err
    assert not out.exists()


class TestWorkerPool:
    """``_map_units`` starts a worker pool only when a second usable CPU can
    take a worker; the usable-CPU count is patched, so a runner pinned to one
    CPU still runs the pool path."""

    CASES = [
        ("frontier.csv", {}),
        ("cloud.csv", task_overrides("pareto-cloud", "cloud", {"samples": 600})),
        # units bound to shared user models, and one unit per gradient-check instance
        ("nmse.csv", task_overrides("nmse", "nmse", {"trials": 50, "sources": ["random", "dft"]})),
        ("gradcheck.csv", task_overrides("gradcheck", "gradcheck", {"instances": 2})),
        # capacity-bound units, then the metric of every pilot from one stack
        (
            "diagnostics.csv",
            task_overrides("diagnostics", "diagnostics", {"pilots": 3, "trials": 20}),
        ),
    ]

    @pytest.mark.parametrize("table, overrides", CASES)
    def test_pool_output_is_byte_identical(self, tmp_path, monkeypatch, table, overrides):
        import concurrent.futures

        started = []

        class RecordingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers):
                started.append(max_workers)
                super().__init__(max_workers)

        path = write_config(tmp_path, overrides)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        assert run_config(path, out_dir=str(tmp_path / "one"), threads=1) == 0
        assert started == []
        assert run_config(path, out_dir=str(tmp_path / "pool"), threads=3) == 0
        assert started == [2]
        one = (tmp_path / "one" / table).read_bytes()
        assert (tmp_path / "pool" / table).read_bytes() == one

    def test_pool_reports_a_unit_error_as_one_process_does(self, tmp_path, monkeypatch, capsys):
        # clutter 3 degrees either side of the target takes the approximate
        # sensing log-argument below zero at the first iterate
        clutter = [{"angle_deg": -23.0, "power": 0.5}, {"angle_deg": -17.0, "power": 0.5}]
        path = write_config(tmp_path, {"scenario.scene.clutter": clutter})
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        assert run_config(path, out_dir=str(tmp_path / "one"), threads=1) == 3
        one = capsys.readouterr().err
        assert one.startswith("error: task sweep: iteration 0: approximate sensing metric log")
        assert run_config(path, out_dir=str(tmp_path / "pool"), threads=3) == 3
        assert capsys.readouterr().err == one

    def test_cloud_domain_error_names_its_csv_row(self, tmp_path, monkeypatch, capsys):
        # clutter 8 degrees either side of the target at 0 takes the approximate
        # sensing log-argument below zero for a few random pilots, first at
        # sample 159 of chunk 0
        clutter = [{"angle_deg": -8.0, "power": 0.5}, {"angle_deg": 8.0, "power": 0.5}]
        overrides = {
            **task_overrides("pareto-cloud", "cloud", {"samples": 500}),
            "seed": 2024,
            "scenario.n_components": 5,
            "scenario.scene.target_angle_deg": 0.0,
            "scenario.scene.clutter": clutter,
        }
        path = write_config(tmp_path, overrides)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        message = "error: task pareto-cloud: approximate sensing metric log argument of sample 159 "
        for threads in (1, 2):
            assert run_config(path, out_dir=str(tmp_path / "out"), threads=threads) == 3
            assert capsys.readouterr().err.startswith(message)
        # a later chunk's sample is named by its row, past the chunks before it
        config = parse_config(path)
        objective = build_objective(config.scenario, 0.0)
        rng = substream(config.seed, "cloud", 1)
        with pytest.raises(ObjectiveDomainError) as in_chunk:
            sample_feasible_cloud(cli.CLOUD_CHUNK, 3, objective, rng)
        assert f" of sample {in_chunk.value.index} is " in str(in_chunk.value)
        with pytest.raises(ObjectiveDomainError) as in_table:
            cli._cloud_unit(config, objective, 1)
        row = cli.CLOUD_CHUNK + in_chunk.value.index
        assert in_table.value.index == row
        assert str(in_table.value) == str(in_chunk.value).replace(
            f" of sample {in_chunk.value.index} ", f" of sample {row} "
        )

    def test_no_pool_on_one_usable_cpu(self, tmp_path, monkeypatch):
        import concurrent.futures

        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        path = write_config(tmp_path)
        assert run_config(path, out_dir=str(tmp_path / "out"), threads=3) == 0
        assert (tmp_path / "out" / "frontier.csv").exists()

    def test_usable_cpus_reads_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
        assert cli._usable_cpus() == 1
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert cli._usable_cpus() == 6


def frontier_columns(tmp_path, overrides, name):
    path = write_config(tmp_path, overrides, name=f"{name}.yaml")
    assert run_config(path, out_dir=str(tmp_path / name)) == 0
    lines = (tmp_path / name / "frontier.csv").read_text().splitlines()
    header, *rows = [line for line in lines if not line.startswith("#")]
    return dict(zip(header.split(","), zip(*(row.split(",") for row in rows))))


class TestSensingFormula:
    def test_exact_frontier_is_the_exact_ascent(self, tmp_path):
        # each frontier row is the end point of an optimize_pgd run on the
        # exact objective, bit for bit, and its objective is rho comm +
        # (1 - rho) sense under the exact metric
        clutter = [{"angle_deg": 0.0, "power": 0.5}, {"angle_deg": 35.0, "power": 0.3}]
        overrides = {"scenario.scene.clutter": clutter, "scenario.sensing_formula": "exact"}
        columns = frontier_columns(tmp_path, overrides, "exact")
        config = parse_config(str(tmp_path / "exact.yaml"))
        objective = build_objective(config.scenario, 0.0)
        assert objective.sensing_formula == "exact"
        init = random_stiefel(3, 8, substream(config.seed, "init"))
        for i, rho in enumerate(config.task_params["rho_values"]):
            trace = optimize_pgd(init, replace(objective, rho=rho), config.optimizer)
            comm, sense = trace.comm_mi[-1], sensing_mi(trace.final_pilot, objective.scene, "exact")
            assert trace.sense_mi[-1] == sense
            assert trace.objective[-1] == rho * comm + (1.0 - rho) * sense
            row = (rho, comm, sense, trace.objective[-1])
            expected = [format(v / cli.LN2 if k else v, ".17g") for k, v in enumerate(row)]
            expected += [str(trace.n_iterations), format(trace.residual[-1], ".17g")]
            assert [column[i] for column in columns.values()] == expected

    @pytest.mark.parametrize("rho", [0.0, 0.5])
    def test_exact_ascent_optimizes_near_target_clutter(self, tmp_path, capsys, rho):
        # clutter 2 degrees either side of the target takes the approximate
        # log-argument below zero at the first iterate (-10.1402 at this
        # seed); the exact ascent runs, and its pilot detects no worse than
        # the random one at every configured P_fa on the same paired trials
        clutter = [{"angle_deg": 2.0, "power": 3.0}, {"angle_deg": -2.0, "power": 2.0}]
        section = {"trials": 20000, "pilot_source": "optimized", "p_fa": [0.01, 0.1]}
        overrides = {
            **task_overrides("roc", "roc", section),
            "seed": 2024,
            "scenario.rho": rho,
            "scenario.scene.target_angle_deg": 0.0,
            "scenario.scene.clutter": clutter,
            "optimizer": {"step_size": 0.1, "max_iters": 200, "rel_tol": 1e-8},
        }
        approx = write_config(tmp_path, overrides, name="approx.yaml")
        assert run_config(approx, out_dir=str(tmp_path / "approx")) == 3
        message = "approximate sensing metric log argument is -10.1402 <= 0"
        assert message in capsys.readouterr().err
        p_d = {}
        for source in ("optimized", "random"):
            exact = {**overrides, "scenario.sensing_formula": "exact", "roc.pilot_source": source}
            path = write_config(tmp_path, exact, name=f"{source}.yaml")
            assert run_config(path, out_dir=str(tmp_path / source)) == 0
            lines = (tmp_path / source / "roc.csv").read_text().splitlines()
            rows = [line.split(",") for line in lines if not line.startswith("#")][1:]
            p_d[source] = np.array([float(row[1]) for row in rows])
        assert p_d["optimized"].shape == (2,)
        assert np.all(p_d["optimized"] >= p_d["random"])

    def test_formulas_agree_without_clutter(self, tmp_path):
        approx, exact = (
            frontier_columns(tmp_path, {"scenario.sensing_formula": formula}, formula)
            for formula in ("approx", "exact")
        )
        assert approx.keys() == exact.keys()
        for column in approx:
            a = np.array(approx[column], dtype=float)
            b = np.array(exact[column], dtype=float)
            assert np.allclose(a, b, rtol=1e-12, atol=1e-12), column


def test_every_task_has_a_runner():
    assert set(cli._RUNNERS) == set(TASKS)


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.yaml")), ids=lambda p: p.name)
def test_shipped_config_parses(path):
    config = parse_config(str(path))
    assert config.task in TASKS


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.yaml")), ids=lambda p: p.name)
def test_shipped_config_round_trips_on_both_loader_bases(path, tmp_path, monkeypatch):
    parsed = []
    for base in LOADER_BASES:
        use_loader_base(monkeypatch, base)
        config = parse_config(str(path))
        # dumped and read back, the config parses to the same values
        again = tmp_path / f"{base}.yaml"
        again.write_text(yaml.safe_dump(config.raw))
        assert parse_config(str(again)) == config
        parsed.append(config)
    libyaml, python = parsed
    assert libyaml == python and libyaml.config_hash() == python.config_hash()


class TestVerify:
    def test_verify_accepts_matching_outputs(self, tmp_path, capsys):
        path = write_config(tmp_path)
        out = tmp_path / "out"
        assert run_config(path, out_dir=str(out)) == 0
        assert verify_outputs(path, None, str(out)) == 0

    def test_verify_flags_tampering(self, tmp_path):
        path = write_config(tmp_path)
        out = tmp_path / "out"
        assert run_config(path, out_dir=str(out)) == 0
        target = out / "frontier.csv"
        target.write_text(target.read_text().replace("# config_hash: ", "# config_hash: dead"))
        assert verify_outputs(path, None, str(out)) == 3

    def test_verify_detects_seed_mismatch(self, tmp_path):
        path = write_config(tmp_path)
        out = tmp_path / "out"
        assert run_config(path, out_dir=str(out)) == 0
        assert verify_outputs(path, 12345, str(out)) == 3

    def test_verify_unreadable_entry_exits_4(self, tmp_path, capsys):
        path = write_config(tmp_path)
        out = tmp_path / "out"
        assert run_config(path, out_dir=str(out)) == 0
        (out / "a.csv").mkdir()
        assert verify_outputs(path, None, str(out)) == 4
        assert f"error: cannot read {out / 'a.csv'}" in capsys.readouterr().err

    def test_verify_flags_a_csv_that_is_not_utf8(self, tmp_path, capsys):
        # a small table, and one whose bad byte lies past the first 8 KB decoded
        cloud = task_overrides("pareto-cloud", "cloud", {"samples": 600})
        for table, overrides in (("frontier.csv", {}), ("cloud.csv", cloud)):
            path = write_config(tmp_path, overrides)
            out = tmp_path / table
            assert run_config(path, out_dir=str(out)) == 0
            target = out / table
            assert target.stat().st_size > (8192 if table == "cloud.csv" else 0)
            target.write_bytes(target.read_bytes() + b"0,\xd0\n")
            capsys.readouterr()
            assert verify_outputs(path, None, str(out)) == 3
            assert f"{table}: MISMATCH (not UTF-8)" in capsys.readouterr().out

    @pytest.mark.parametrize("content", [None, b"task: \xd0\n"], ids=["missing", "not-utf8"])
    def test_unreadable_config_exits_2(self, tmp_path, capsys, content):
        path = tmp_path / "config.yaml"
        if content is not None:
            path.write_bytes(content)
        assert verify_outputs(str(path), None, str(tmp_path / "out")) == 2
        assert run_config(str(path), out_dir=str(tmp_path / "out")) == 2
        assert capsys.readouterr().err.count("error: cannot read config") == 2


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats costs about a second of start-up and isacpilot does not use it
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, isacpilot.cli; print('scipy.stats' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def test_diagnostics_run_leaves_scipy_unloaded(tmp_path):
    # a worker that loads SciPy mid-run holds tens of MB more from then on
    path = write_config(
        tmp_path, {"task": "diagnostics", "sweep": ..., "diagnostics": {"pilots": 4, "trials": 10}}
    )
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys, isacpilot.cli as cli; "
        f"status = cli.run_config({path!r}, out_dir={str(tmp_path / 'out')!r}, threads=1); "
        "print(status, 'scipy' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split()[-2:] == ["0", "False"]


def test_diagnostics_forms_one_state_per_pilot_and_bounded_stacks(tmp_path, monkeypatch):
    """The shipped diagnostics config forms each pilot's state once, with the
    terms, in the capacity bound's estimator, and the metric of all its
    pilots from value-only states of their stack in pieces of at most 16
    (``metrics.pieces`` at that shape): 22 calls for 20 pilots."""
    import isacpilot.evaluation as evaluation
    import isacpilot.metrics as metrics

    calls = []

    def recording(pilot, users, terms=True, comm_state=metrics.comm_state):
        calls.append((np.ndim(getattr(pilot, "entries", pilot)), terms))
        return comm_state(pilot, users, terms)

    for module in (metrics, evaluation):
        monkeypatch.setattr(module, "comm_state", recording)
    config = CONFIGS / "diagnostics_cworst.yaml"
    assert run_config(str(config), out_dir=str(tmp_path / "out"), threads=1) == 0
    assert calls == [(2, True)] * 20 + [(3, False)] * 2


def test_spearman_matches_scipy_bit_for_bit():
    from scipy import stats

    rng = np.random.default_rng(5)
    for trial in range(200):
        n = int(rng.integers(3, 50))
        x = rng.standard_normal(n)
        y = rng.uniform(-1.0, 1.0) * x + rng.standard_normal(n)
        if trial % 2:
            x, y = np.round(x, 1), np.round(y, 1)  # ties
        assert np.array_equal(_average_ranks(x), stats.rankdata(x))
        assert _spearman(list(x), list(y)) == float(stats.spearmanr(x, y).statistic)
