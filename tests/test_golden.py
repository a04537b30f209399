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

``golden/digests.json`` holds the SHA-256 of every table those runs write,
and of the ``montecarlo`` benchmark workload's tables at workload seed 1,
with the environment they were recorded on (NumPy version, BLAS build, CPU
model).  The digest tests check the bytes the value tests allow to move at
roundoff: the tables the value tests write, the tables of the configs whose
tasks map units over a worker pool at ``--threads 2``, and the workload's.
On another environment, or with one usable CPU for the pool, they skip and
say why.  A mismatch names the table and, where a golden JSON covers it,
each column's largest relative change against the golden values.
"""

import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from test_sweep_sensitivity import load_tool

from isacpilot.cli import _usable_cpus, run_config

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
# the configs whose tasks map their units over a worker pool
POOLED = [
    "sweep_tradeoff",
    "nmse_baselines",
    "ser_multiuser",
    "pareto_cloud",
    "gradcheck_small",
    "diagnostics_cworst",
]
MANIFEST = json.loads((GOLDEN / "digests.json").read_text())


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """The output directory of ``configs/<stem>.yaml`` at ``--seed 2024``
    and ``--threads 1``, each config run once, on first use."""
    runs = {}

    def out_dir(stem: str) -> Path:
        if stem not in runs:
            runs[stem] = tmp_path_factory.mktemp(stem)
            config = ROOT / "configs" / f"{stem}.yaml"
            assert run_config(str(config), seed=2024, out_dir=str(runs[stem])) == 0
        return runs[stem]

    return out_dir


def read_table(path: Path) -> tuple:
    """(metadata lines, column names, rows as a float array) of a written table."""
    lines = path.read_text().splitlines()
    body = [line for line in lines if not line.startswith("#")]
    rows = np.array([[float(x) for x in line.split(",")] for line in body[1:]])
    return [line for line in lines if line.startswith("#")], body[0].split(","), rows


@pytest.mark.parametrize("stem", STEMS)
def test_config_reproduces_golden_table(stem, written):
    golden = json.loads((GOLDEN / f"{stem}.json").read_text())
    metadata, columns, got = read_table(written(stem) / golden["table"])
    assert metadata == golden["metadata"]
    assert columns == golden["columns"]
    expected = np.array(golden["rows"])
    assert got.shape == expected.shape
    abs_tol = golden.get("abs_tol", {})
    for j, column in enumerate(golden["columns"]):
        error = np.abs(got[:, j] - expected[:, j])
        bound = golden["rel_tol"][column] * np.abs(expected[:, j]) + abs_tol.get(column, 0.0)
        assert np.all(error <= bound), (column, float(np.max(error - bound)))


def environment() -> dict:
    """The NumPy version, BLAS build and CPU model a table's bytes may depend on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}", "cpu": cpu}


def skip_on_another_environment() -> None:
    recorded = MANIFEST["environment"]
    here = environment()
    differ = [f"{key} {here[key]!r}, recorded {recorded[key]!r}" for key in recorded if here[key] != recorded[key]]
    if differ:
        pytest.skip(f"digests were recorded on another environment: {'; '.join(differ)}")


def column_changes(path: Path, stem: str) -> str:
    """Each column's largest relative change against ``golden/<stem>.json``,
    if that file covers the table at ``path``."""
    golden_path = GOLDEN / f"{stem}.json"
    golden = json.loads(golden_path.read_text()) if golden_path.exists() else {}
    if golden.get("table") != path.name:
        return "no golden values cover it"
    _, columns, got = read_table(path)
    expected = np.array(golden["rows"])
    if columns != golden["columns"] or got.shape != expected.shape:
        return f"its columns or shape differ from {golden_path.name}"
    change = np.abs(got - expected) / np.maximum(np.abs(expected), np.finfo(float).tiny)
    largest = ", ".join(f"{c} {r:.3g}" for c, r in zip(columns, change.max(axis=0)))
    return f"largest relative change per column against {golden_path.name}: {largest}"


def check_digests(out_dir: Path, label: str, digests: dict) -> None:
    """Every table under ``out_dir`` has the manifest's SHA-256 for
    ``<label>/<table>``, and the manifest names no other table of ``label``."""
    tables = sorted(out_dir.glob("*.csv"))
    names = [f"{label}/{table.name}" for table in tables]
    assert names == sorted(name for name in digests if name.startswith(f"{label}/"))
    moved = [
        f"{name}: SHA-256 differs from golden/digests.json; {column_changes(table, label)}"
        for name, table in zip(names, tables)
        if hashlib.sha256(table.read_bytes()).hexdigest() != digests[name]
    ]
    assert not moved, "\n".join(moved)


@pytest.mark.parametrize("stem", STEMS)
def test_tables_keep_their_digests(stem, written):
    skip_on_another_environment()
    check_digests(written(stem), stem, MANIFEST["shipped"])


def test_pooled_tables_keep_their_digests(tmp_path):
    cpus = _usable_cpus()
    if cpus < 2:
        pytest.skip(f"{cpus} usable CPU: --threads 2 would start no worker pool and check nothing")
    skip_on_another_environment()
    # one process for the six runs, with one BLAS thread: each pool worker
    # would otherwise start BLAS threads of its own on the same CPUs, which
    # leaves the bytes as they are and makes the runs several times slower
    code = (
        "import sys\n"
        "from isacpilot.cli import run_config\n"
        "for config, out in zip(sys.argv[1::2], sys.argv[2::2]):\n"
        "    assert run_config(config, seed=2024, out_dir=out, threads=2) == 0, config\n"
    )
    runs = [str(arg) for stem in POOLED for arg in (ROOT / "configs" / f"{stem}.yaml", tmp_path / stem)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    result = subprocess.run(
        [sys.executable, "-c", code, *runs], env=env, capture_output=True, text=True, timeout=300
    )
    assert result.returncode == 0, result.stderr
    for stem in POOLED:
        check_digests(tmp_path / stem, stem, MANIFEST["shipped"])


def test_montecarlo_workload_tables_keep_their_digests(tmp_path):
    skip_on_another_environment()
    for config in load_tool("csv_digests").workload_configs("montecarlo", 1, tmp_path):
        assert run_config(str(config), out_dir=str(tmp_path / config.stem)) == 0
        check_digests(tmp_path / config.stem, config.stem, MANIFEST["montecarlo"])
