"""Output checks that decide whether a task invocation succeeded.

An operation (one task invocation) fails when its exit status or ``verify``
is nonzero, when a table holds a non-finite value, when a frontier point is
infeasible or falls below the recorded objective, or when a Monte Carlo
figure leaves its recorded band.  CSV content
digests of repeated invocations with one seed must also agree.

Reference values live in ``reference.json`` next to this file; they were
recorded from the seed commit by ``make_reference.py``: the frontier over
many seeds, and each Monte Carlo figure over many trial streams with its
pilot held fixed, so every band is the Monte Carlo error of one pilot.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

RESIDUAL_MAX = 1e-8
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


# checked Monte Carlo figures per task: (file, row key from metadata and row, column)
MONTECARLO_TABLES = {
    "nmse": ("nmse.csv", lambda m, r: f"{_pilot(m, r)}:{int(r['user_id'])}", "nmse"),
    "ser": ("ser.csv", lambda m, r: f"{_pilot(m, r)}:{r['snr_db']:g}", "ser"),
    "roc": ("roc.csv", lambda m, r: f"{_pilot(m, r)}:{r['p_fa']:g}", "p_d"),
}


def _pilot(meta: dict, row: dict) -> str:
    """Pilot of a row: its source name, plus ``@<config seed>`` for a random pilot.

    NMSE and SER tables name their sources in a '# sources: 0=random 1=dft'
    header, ROC tables in '# pilot_source: random'.
    """
    if "sources" in meta:
        source = dict(item.split("=", 1) for item in meta["sources"].split())[str(int(row["source_id"]))]
    else:
        source = meta["pilot_source"]
    return f"random@{meta['seed']}" if source == "random" else source


def load_reference(path: str = REFERENCE_PATH) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def read_table(path: str) -> tuple[dict, list]:
    """(metadata, rows as column->float dicts) of one emitted CSV."""
    meta, header, rows = {}, None, []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.rstrip("\n")
            if line.startswith("#"):
                key, _, value = line[1:].partition(":")
                meta[key.strip()] = value.strip()
            elif header is None:
                header = line.split(",")
            elif line:
                rows.append(dict(zip(header, (float(v) for v in line.split(",")))))
    return meta, rows


def digests(out_dir: str) -> dict:
    """sha256 of every CSV in an output directory, by file name."""
    result = {}
    for name in sorted(os.listdir(out_dir)):
        if name.endswith(".csv"):
            with open(os.path.join(out_dir, name), "rb") as handle:
                result[name] = hashlib.sha256(handle.read()).hexdigest()
    return result


def _finite(out_dir: str) -> list:
    problems = []
    for name in sorted(os.listdir(out_dir)):
        if not name.endswith(".csv"):
            continue
        _, rows = read_table(os.path.join(out_dir, name))
        if not rows:
            problems.append(f"{name}: no data rows")
        for i, row in enumerate(rows):
            bad = [k for k, v in row.items() if not math.isfinite(v)]
            if bad:
                problems.append(f"{name} row {i}: non-finite {', '.join(bad)}")
    return problems


def _check_frontier(out_dir: str, reference: dict) -> list:
    ref = reference["frontier"]
    problems = []
    for row in read_table(os.path.join(out_dir, "frontier.csv"))[1]:
        key = f"{row['rho']:.2f}"
        if row["residual"] > RESIDUAL_MAX:
            problems.append(f"rho={key}: residual {row['residual']:.3e} > {RESIDUAL_MAX:g}")
        low, high = ref["objective_bits_min"][key], ref["objective_bits_max"][key]
        allowed = low - max(ref["objective_rel_tol"] * abs(low), 2.0 * (high - low))
        if row["objective_bits"] < allowed:
            problems.append(f"rho={key}: objective_bits {row['objective_bits']:.6f} < {allowed:.6f}")
    return problems


def _check_montecarlo(out_dir: str, task: str, reference: dict) -> list:
    if task not in MONTECARLO_TABLES:
        return []
    name, key_of, value = MONTECARLO_TABLES[task]
    bands = reference["montecarlo"]["bands"][task]
    problems = []
    meta, rows = read_table(os.path.join(out_dir, name))
    for row in rows:
        key = key_of(meta, row)
        band = bands.get(key)
        if band is None:
            problems.append(f"{name}: no reference for row {key}")
        elif not band["low"] <= row[value] <= band["high"]:
            problems.append(
                f"{name} {key}: {value} {row[value]:.6g} outside [{band['low']:.6g}, {band['high']:.6g}] "
                f"(reference mean {band['mean']:.6g}, std {band['std']:.3g})"
            )
    return problems


def check_outputs(workload: str, task: str, out_dir: str, reference: dict) -> list:
    """Problems found in one invocation's output directory; empty means correct."""
    if not os.path.isdir(out_dir):
        return [f"{out_dir}: no output directory"]
    problems = _finite(out_dir)
    if problems:
        return problems
    if workload == "frontier":
        problems += _check_frontier(out_dir, reference)
    elif workload == "montecarlo":
        problems += _check_montecarlo(out_dir, task, reference)
    return problems
