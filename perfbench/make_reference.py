#!/usr/bin/env python3
"""Record the reference values the output checks compare against.

Runs the ``frontier`` workload and the checked ``montecarlo`` tasks over many
seeds, untimed, and writes ``reference.json`` next to this file:

- per trade-off value, the lowest and highest ``objective_bits`` seen over
  ``FRONTIER_SEEDS``, and the relative tolerance below the lowest that still
  counts as correct;
- per NMSE, SER and P_d figure of every pilot the ``montecarlo`` workload
  can use (the DFT and eigen pilots, and the random pilot of each of
  ``workloads.PILOT_SEEDS``), the mean and standard deviation over
  ``TRIAL_SEEDS`` trial streams with that pilot held fixed, and the band
  ``[low, high]`` a run's figure must fall in.

Run from the repository root on the commit whose outputs are the reference:

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import contextlib
import io
import json
import math
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import workloads  # noqa: E402

# the benchmark's tuning seeds are 1..10; the reference uses seeds from 100
FIRST_SEED = 100
FRONTIER_SEEDS = range(FIRST_SEED, FIRST_SEED + 8)
TRIAL_SEEDS = range(FIRST_SEED, FIRST_SEED + 24)
# an objective may fall below the lowest reference value by the larger of this
# share of it and twice the range seen over the reference seeds
OBJECTIVE_REL_TOL = 1e-2
# Monte Carlo bands: mean +- (SIGMAS x std + three events in the trial count)
SIGMAS = 6.0
EVENTS = {
    "nmse": 0.0,
    "ser": 3.0 / (workloads.SER_SYMBOLS * len(workloads.FOUR_USERS)),
    "roc": 3.0 / workloads.ROC_TRIALS,
}
# A user's NMSE is heavy-tailed upwards: one badly estimated channel among
# thousands of trials moved the DFT pilot's user-1 NMSE by +75% (25 standard
# deviations) on one seed.  So a user's band reaches this share of its mean
# higher; the pooled NMSE, dominated by the worst-estimated user, has no tail.
NMSE_TAIL = 1.0


def _run(config: str, task: str, out_dir: str) -> None:
    import isacpilot.cli as cli

    with contextlib.redirect_stdout(io.StringIO()):
        status = cli.run_config(config, task=task, out_dir=out_dir, threads=1)
    if status != 0:
        raise SystemExit(f"{config}: exit status {status}")


def _figures(task: str, out_dir: str) -> dict:
    """Checked figures of one task's output table, by reference key."""
    name, key_of, column = checks.MONTECARLO_TABLES[task]
    meta, rows = checks.read_table(os.path.join(out_dir, name))
    return {key_of(meta, row): row[column] for row in rows}


def frontier_reference(tmp: str) -> dict:
    values: dict = {}
    for seed in FRONTIER_SEEDS:
        for task in workloads.build("frontier", ROOT, seed, os.path.join(tmp, f"frontier-{seed}")).tasks:
            _run(task.config, task.task, task.out_dir)
            for row in checks.read_table(os.path.join(task.out_dir, "frontier.csv"))[1]:
                values.setdefault(f"{row['rho']:.2f}", []).append(row["objective_bits"])
        print(f"frontier seed {seed} done", file=sys.stderr)
    spread = max((max(v) - min(v)) / abs(min(v)) for v in values.values())
    return {
        "seeds": list(FRONTIER_SEEDS),
        "objective_rel_tol": OBJECTIVE_REL_TOL,
        "largest_relative_spread_seen": spread,
        "objective_bits_min": {k: min(v) for k, v in values.items()},
        "objective_bits_max": {k: max(v) for k, v in values.items()},
    }


def _random_pilot_figures(config, trial_seed: int) -> list:
    """The figures ``cli.run_config`` writes for a random-pilot config, in table
    order, with the config's pilot and the trial stream of ``trial_seed``."""
    from isacpilot import nmse_experiment, random_stiefel, roc_curve, ser_experiment, substream
    from isacpilot.config import build_scene, build_users

    scenario, params = config.scenario, config.task_params
    pilot = random_stiefel(scenario["pilot_len"], scenario["n_tx"], substream(config.seed, "baseline"))
    if config.task == "roc":
        rng = substream(trial_seed, "roc")
        return list(roc_curve(pilot, build_scene(scenario), params["trials"], params["p_fa"], rng).p_d)
    users, _ = build_users(scenario)
    if config.task == "nmse":
        per_user, pooled = nmse_experiment(pilot, users, params["trials"], substream(trial_seed, "nmse"))
        return list(per_user) + [pooled]
    rng = substream(trial_seed, "ser")
    return list(ser_experiment(pilot, users, params["snr_grid_db"], params["n_symbols"], params["block_len"], rng))


def _band(task: str, key: str, values: list) -> dict:
    mean, std = statistics.fmean(values), statistics.stdev(values)
    half = SIGMAS * std + EVENTS[task]
    high = mean + half
    if task == "nmse" and not key.endswith(f":{len(workloads.FOUR_USERS)}"):
        high += NMSE_TAIL * mean
    return {"mean": mean, "std": std, "low": mean - half, "high": high}


def montecarlo_reference(tmp: str) -> dict:
    from isacpilot.config import parse_config

    values: dict = {task: {} for task in checks.MONTECARLO_TABLES}
    # DFT and eigen pilots do not depend on the seed: the workload seed varies the trials only
    for seed in TRIAL_SEEDS:
        workload = workloads.build("montecarlo", ROOT, seed, os.path.join(tmp, f"montecarlo-{seed}"))
        for task in workload.tasks:
            if task.task in values and task.label not in workloads.RANDOM_PILOT:
                _run(task.config, task.task, task.out_dir)
                for key, value in _figures(task.task, task.out_dir).items():
                    values[task.task].setdefault(key, []).append(value)
        print(f"montecarlo seed {seed} done", file=sys.stderr)
    # a random pilot is drawn from the config seed: hold it and vary the trial stream
    for pilot_seed in workloads.PILOT_SEEDS:
        workload = workloads.build(
            "montecarlo", ROOT, workloads.PILOT_SEEDS.index(pilot_seed), os.path.join(tmp, f"pilot-{pilot_seed}")
        )
        for task in workload.tasks:
            if task.label not in workloads.RANDOM_PILOT:
                continue
            config = parse_config(task.config)
            assert config.seed == pilot_seed
            _run(task.config, task.task, task.out_dir)
            written = _figures(task.task, task.out_dir)
            # the figures computed here must be the ones the task writes
            own = _random_pilot_figures(config, config.seed)
            if len(own) != len(written) or not all(
                math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-15) for a, b in zip(own, written.values())
            ):
                raise SystemExit(f"{task.label}: figures {own} differ from the written {list(written.values())}")
            for trial_seed in TRIAL_SEEDS:
                for key, value in zip(written, _random_pilot_figures(config, trial_seed)):
                    values[task.task].setdefault(key, []).append(value)
        print(f"random pilot of seed {pilot_seed} done", file=sys.stderr)
    bands = {task: {key: _band(task, key, v) for key, v in table.items()} for task, table in values.items()}
    return {
        "trial_seeds": list(TRIAL_SEEDS),
        "pilot_seeds": list(workloads.PILOT_SEEDS),
        "sigmas": SIGMAS,
        "nmse_tail": NMSE_TAIL,
        "bands": bands,
    }


def main() -> None:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    build_dir = os.path.join(ROOT, ".bench_build")
    os.makedirs(build_dir, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="perfbench-ref-", dir=build_dir) as tmp:
        reference = {
            "commit": commit,
            "frontier": frontier_reference(tmp),
            "montecarlo": montecarlo_reference(tmp),
        }
    with open(checks.REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
