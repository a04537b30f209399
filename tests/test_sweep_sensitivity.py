"""Smoke test of ``tools/sweep_sensitivity.py`` on a small two-value sweep."""

import importlib.util
from pathlib import Path

from test_cli import write_config

ROOT = Path(__file__).resolve().parents[1]


def load_tool(name="sweep_sensitivity"):
    """The module of ``tools/<name>.py``."""
    path = ROOT / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_prints_one_row_per_rho_with_iteration_counts(tmp_path, capsys):
    overrides = {"sweep.rho_values": [0.0, 1.0], "optimizer.max_iters": 3}
    load_tool().main(["sweep_sensitivity.py", write_config(tmp_path, overrides)])
    lines = capsys.readouterr().out.splitlines()
    header = lines.index(f"{'rho':>5} {'iters':>5} {'nudged':>6} {'d comm_mi':>10} {'d sense_mi':>10}")
    rows = [line.split() for line in lines[header + 1 : -1]]
    assert [row[:3] for row in rows] == [["0.00", "3", "3"], ["1.00", "3", "3"]]
    assert all(len(row) == 5 for row in rows)
    assert lines[-1].startswith("wall: ")
