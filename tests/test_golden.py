"""Golden tables of every shipped config: NMSE, link SER and the capacity
diagnostic, which run through the mixture-MMSE estimator; the ROC, which
runs through the paired detection trials; the trade-off frontier and the
single-run convergence trace, which run through the optimizer; the random
pilot cloud; and the gradient check.

Each ``golden/<config>.json`` is fixed data, with no re-record path: the
table that ``isacpilot <task> --config configs/<config>.yaml --seed 2024
--threads 1`` wrote at the commit named in its ``recorded`` field.  The
metadata lines must match exactly; none carries roundoff, since a table's
own values live in its rows.  Each column has a relative tolerance (``rel_tol``)
and may have an absolute one (``abs_tol``), with its reason beside it in the
file; a tolerance of 0 means equal values.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from isacpilot.cli import run_config

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"
STEMS = [
    "nmse_baselines",
    "diagnostics_cworst",
    "ser_multiuser",
    "roc_compare",
    "sweep_tradeoff",
    "pareto_cloud",
    "convergence_stepsize",
    "gradcheck_small",
]


@pytest.mark.parametrize("stem", STEMS)
def test_config_reproduces_golden_table(stem, tmp_path):
    golden = json.loads((GOLDEN / f"{stem}.json").read_text())
    assert run_config(str(ROOT / golden["config"]), seed=2024, out_dir=str(tmp_path)) == 0
    lines = (tmp_path / golden["table"]).read_text().splitlines()
    assert [line for line in lines if line.startswith("#")] == golden["metadata"]
    body = [line for line in lines if not line.startswith("#")]
    assert body[0].split(",") == golden["columns"]
    got = np.array([[float(x) for x in line.split(",")] for line in body[1:]])
    expected = np.array(golden["rows"])
    assert got.shape == expected.shape
    abs_tol = golden.get("abs_tol", {})
    for j, column in enumerate(golden["columns"]):
        error = np.abs(got[:, j] - expected[:, j])
        bound = golden["rel_tol"][column] * np.abs(expected[:, j]) + abs_tol.get(column, 0.0)
        assert np.all(error <= bound), (column, float(np.max(error - bound)))
