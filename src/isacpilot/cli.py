"""Config-driven experiment runner emitting deterministic CSV tables.

Every output file carries '#'-prefixed metadata (config hash, seed, code
version, units) followed by a header row and 17-significant-digit values.
Independent work units (trade-off values, pilot sources, cloud chunks) run
behind fixed named substreams, on a worker pool when more than one usable
CPU can take them, so outputs are byte identical for a given config and
seed regardless of --threads.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .config import (
    TASKS,
    ExperimentConfig,
    ConfigError,
    build_objective,
    build_scene,
    build_users,
    parse_config,
)
from .errors import IsacPilotError, NumericError
from .evaluation import dft_pilot, eigen_pilot, nmse_experiment, roc_curve, ser_experiment
from .gradients import finite_diff_check, grad_comm_mi_user, grad_isac, grad_sensing_mi
from .metrics import (
    IsacObjective,
    c_worst_estimate,
    comm_mi_user,
    comm_mi_weighted,
    isac_objective,
    sensing_mi,
    sensing_mi_approx,
)
from .optimizer import (
    optimize_pgd,
    pareto_filter,
    random_stiefel,
    rho_sweep,
    sample_feasible_cloud,
)
from .streams import substream

LN2 = float(np.log(2.0))
CLOUD_CHUNK = 250


@dataclass
class ResultTable:
    """Column-named rows of real values plus the metadata header."""

    name: str
    columns: list
    rows: list
    metadata: dict = field(default_factory=dict)


def emit_table(table: ResultTable, path: str) -> None:
    """Write a table as CSV with '#' metadata lines; atomic via temp rename."""
    lines = []
    ordered = ["config_hash", "seed", "version", "units", "task"]
    for key in ordered:
        if key in table.metadata:
            lines.append(f"# {key}: {table.metadata[key]}")
    for key in sorted(table.metadata):
        if key not in ordered:
            lines.append(f"# {key}: {table.metadata[key]}")
    lines.append(",".join(table.columns))
    for row in table.rows:
        if len(row) != len(table.columns):
            raise IsacPilotError("table row width does not match the column header")
        lines.append(",".join(format(float(v), ".17g") for v in row))
    payload = "\n".join(lines) + "\n"
    tmp_path = f"{path}.tmp"
    with open(tmp_path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(payload)
    os.replace(tmp_path, path)


def _base_metadata(config: ExperimentConfig) -> dict:
    return {
        "config_hash": config.config_hash(),
        "seed": config.seed,
        "version": __version__,
        "units": "MI in bits",
        "task": config.task,
        "mean_policy": config.scenario["mean_policy"],
        "mean_scale": config.scenario["mean_scale"],
        "sensing_formula": config.scenario["sensing_formula"],
    }


def _pilot_for_source(source: str, config: ExperimentConfig, built=None):
    """The pilot a task evaluates; ``built`` is ``build_users(config.scenario)``
    when the caller already has it, so the models are not built twice."""
    scenario = config.scenario
    n_slots, n_tx = scenario["pilot_len"], scenario["n_tx"]
    if source == "random":
        return random_stiefel(n_slots, n_tx, substream(config.seed, "baseline"))
    if source == "dft":
        return dft_pilot(n_slots, n_tx)
    users, weights = built or build_users(scenario)
    if source == "eigen":
        return eigen_pilot(n_slots, users, weights)
    objective = IsacObjective(scenario["rho"], weights, users, build_scene(scenario))
    init = random_stiefel(n_slots, n_tx, substream(config.seed, "init"))
    return optimize_pgd(init, objective, config.optimizer).final_pilot


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_units(worker, units, threads: int) -> list:
    """Order-preserving map over picklable work units.

    Runs them in this process unless a second usable CPU can take a worker:
    a pool of one worker, or of workers sharing one CPU, only adds its
    start-up and the pickling of every unit.
    """
    workers = min(threads, len(units), _usable_cpus())
    if workers <= 1:
        return [worker(unit) for unit in units]
    from concurrent.futures import ProcessPoolExecutor  # imported only to start a pool

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, units))


def _sweep_unit(args) -> tuple:
    config, objective, rho = args
    scenario = config.scenario
    init = random_stiefel(scenario["pilot_len"], scenario["n_tx"], substream(config.seed, "init"))
    point = rho_sweep(objective, [rho], init, config.optimizer)[0]
    # endpoint sense MI reported under the globally selected formula; the
    # ascent itself always follows the approximate objective
    sense = sensing_mi(point.pilot, objective.scene, scenario["sensing_formula"])
    objective_val = rho * point.comm_mi + (1.0 - rho) * sense
    return (rho, point.comm_mi / LN2, sense / LN2, objective_val / LN2, point.iterations, point.residual)


def _task_sweep(config: ExperimentConfig, threads: int) -> list:
    # one objective for every unit; rho_sweep sets each unit's own rho
    objective = build_objective(config.scenario, 0.0)
    units = [(config, objective, rho) for rho in config.task_params["rho_values"]]
    rows = _map_units(_sweep_unit, units, threads)
    table = ResultTable(
        name="frontier",
        columns=["rho", "comm_mi_bits", "sense_mi_bits", "objective_bits", "iters", "residual"],
        rows=rows,
        metadata=_base_metadata(config),
    )
    return [table]


def _task_optimize(config: ExperimentConfig, threads: int) -> list:
    scenario = config.scenario
    objective = build_objective(scenario, scenario["rho"])
    init = random_stiefel(scenario["pilot_len"], scenario["n_tx"], substream(config.seed, "init"))
    trace = optimize_pgd(init, objective, config.optimizer)
    meta = _base_metadata(config)
    meta["rho"] = scenario["rho"]
    trace_rows = [
        (int(it), obj / LN2, comm / LN2, sense / LN2, res)
        for it, obj, comm, sense, res in zip(
            trace.iterations, trace.objective, trace.comm_mi, trace.sense_mi, trace.residual
        )
    ]
    trace_table = ResultTable(
        name="trace",
        columns=["iteration", "objective_bits", "comm_mi_bits", "sense_mi_bits", "residual"],
        rows=trace_rows,
        metadata=meta,
    )
    entries = trace.final_pilot.entries
    pilot_rows = [
        (slot, antenna, entries[slot, antenna].real, entries[slot, antenna].imag)
        for slot in range(entries.shape[0])
        for antenna in range(entries.shape[1])
    ]
    pilot_table = ResultTable(
        name="pilot",
        columns=["slot", "antenna", "re", "im"],
        rows=pilot_rows,
        metadata=meta,
    )
    return [trace_table, pilot_table]


def _cloud_unit(args) -> list:
    config, objective, chunk_index, chunk_size = args
    pairs = sample_feasible_cloud(
        chunk_size,
        config.scenario["pilot_len"],
        objective,
        substream(config.seed, "cloud", chunk_index),
        formula=config.scenario["sensing_formula"],
    )
    return pairs.tolist()


def _task_pareto_cloud(config: ExperimentConfig, threads: int) -> list:
    total = config.task_params["samples"]
    objective = build_objective(config.scenario, 0.0)
    chunks = [
        (config, objective, i, min(CLOUD_CHUNK, total - i * CLOUD_CHUNK))
        for i in range((total + CLOUD_CHUNK - 1) // CLOUD_CHUNK)
    ]
    pairs = [pair for chunk in _map_units(_cloud_unit, chunks, threads) for pair in chunk]
    kept_set = {tuple(p) for p in pareto_filter(pairs)}
    rows = [
        (i, sense / LN2, comm / LN2, 1.0 if (sense, comm) in kept_set else 0.0)
        for i, (sense, comm) in enumerate(pairs)
    ]
    table = ResultTable(
        name="cloud",
        columns=["sample", "sense_mi_bits", "comm_mi_bits", "pareto"],
        rows=rows,
        metadata=_base_metadata(config),
    )
    return [table]


def _task_roc(config: ExperimentConfig, threads: int) -> list:
    params = config.task_params
    pilot = _pilot_for_source(params["pilot_source"], config)
    scene = build_scene(config.scenario)
    curve = roc_curve(pilot, scene, params["trials"], params["p_fa"], substream(config.seed, "roc"))
    meta = _base_metadata(config)
    meta["pilot_source"] = params["pilot_source"]
    meta["trials"] = params["trials"]
    rows = [
        (pfa, pd, thr, float(low))
        for pfa, pd, thr, low in zip(curve.p_fa, curve.p_d, curve.thresholds, curve.low_resolution)
    ]
    return [ResultTable("roc", ["p_fa", "p_d", "threshold", "low_resolution"], rows, meta)]


def _nmse_unit(args) -> list:
    config, built, source_id, source = args
    users = built[0]
    pilot = _pilot_for_source(source, config, built)
    per_user, pooled = nmse_experiment(
        pilot, users, config.task_params["trials"], substream(config.seed, "nmse")
    )
    rows = [(float(source_id), float(k), float(v)) for k, v in enumerate(per_user)]
    rows.append((float(source_id), float(len(users)), pooled))
    return rows


def _task_nmse(config: ExperimentConfig, threads: int) -> list:
    sources = config.task_params["sources"]
    built = build_users(config.scenario)
    units = [(config, built, i, s) for i, s in enumerate(sources)]
    rows = [row for chunk in _map_units(_nmse_unit, units, threads) for row in chunk]
    meta = _base_metadata(config)
    meta["sources"] = " ".join(f"{i}={s}" for i, s in enumerate(sources))
    meta["user_legend"] = f"user ids 0..K-1, {len(config.scenario['users'])} = pooled"
    meta["trials"] = config.task_params["trials"]
    return [ResultTable("nmse", ["source_id", "user_id", "nmse"], rows, meta)]


def _ser_unit(args) -> list:
    config, built, source_id, source = args
    params = config.task_params
    pilot = _pilot_for_source(source, config, built)
    ser = ser_experiment(
        pilot,
        built[0],
        params["snr_grid_db"],
        params["n_symbols"],
        params["block_len"],
        substream(config.seed, "ser"),
    )
    return [(float(source_id), snr, val) for snr, val in zip(params["snr_grid_db"], ser)]


def _task_ser(config: ExperimentConfig, threads: int) -> list:
    sources = config.task_params["sources"]
    built = build_users(config.scenario)
    units = [(config, built, i, s) for i, s in enumerate(sources)]
    rows = [row for chunk in _map_units(_ser_unit, units, threads) for row in chunk]
    meta = _base_metadata(config)
    meta["sources"] = " ".join(f"{i}={s}" for i, s in enumerate(sources))
    meta["snr_definition"] = "per-user nominal receive SNR: unit symbol energy, unit-norm precoder columns, noise var 10^(-snr_db/10)"
    meta["block_len"] = config.task_params["block_len"]
    meta["n_symbols_per_user"] = config.task_params["n_symbols"]
    return [ResultTable("ser", ["source_id", "snr_db", "ser"], rows, meta)]


def _gradcheck_unit(args) -> tuple:
    config, objective, index = args
    scenario = config.scenario
    scene = objective.scene
    pilot = random_stiefel(
        scenario["pilot_len"], scenario["n_tx"], substream(config.seed, "gradcheck", index)
    )
    step = config.task_params["step"]
    model = objective.users[0]
    err_comm = finite_diff_check(
        lambda p: comm_mi_user(p, model), lambda p: grad_comm_mi_user(p, model), pilot, step
    )
    err_sense = finite_diff_check(
        lambda p: sensing_mi_approx(p, scene), lambda p: grad_sensing_mi(p, scene), pilot, step
    )
    err_isac = finite_diff_check(
        lambda p: isac_objective(p, objective), lambda p: grad_isac(p, objective), pilot, step
    )
    return (float(index), err_comm, err_sense, err_isac)


def _task_gradcheck(config: ExperimentConfig, threads: int) -> list:
    params = config.task_params
    objective = build_objective(config.scenario, config.scenario.get("rho", 0.5))
    units = [(config, objective, i) for i in range(params["instances"])]
    rows = _map_units(_gradcheck_unit, units, threads)
    worst = max(max(r[1], r[2], r[3]) for r in rows)
    meta = _base_metadata(config)
    meta["max_rel_err"] = format(worst, ".17g")
    meta["tolerance"] = params["tolerance"]
    if worst > params["tolerance"]:
        raise NumericError(
            f"gradient check failed: max relative error {worst:.3e} exceeds {params['tolerance']:.1e}"
        )
    return [ResultTable("gradcheck", ["instance", "comm_err", "sense_err", "isac_err"], rows, meta)]


def _diag_unit(args) -> tuple:
    config, objective, index = args
    scenario = config.scenario
    pilot = random_stiefel(
        scenario["pilot_len"], scenario["n_tx"], substream(config.seed, "diag-pilot", index)
    )
    comm = comm_mi_weighted(pilot, objective)
    c_worst = c_worst_estimate(
        pilot,
        objective.users,
        config.task_params["block_len"],
        config.task_params["trials"],
        substream(config.seed, "diag-cw", index),
    )
    return (float(index), comm / LN2, c_worst / LN2)


def _average_ranks(values) -> np.ndarray:
    """1-based ranks of ``values``, ties given the mean of their ranks."""
    x = np.asarray(values, dtype=float)
    order = np.argsort(x, kind="mergesort")
    new = np.r_[True, x[order][1:] != x[order][:-1]]
    bounds = np.r_[np.flatnonzero(new), x.size]
    ranks = np.empty(x.size)
    ranks[order] = (0.5 * (bounds[:-1] + bounds[1:] + 1))[np.cumsum(new) - 1]
    return ranks


def _spearman(x, y) -> float:
    """Spearman's rank correlation, computed as ``scipy.stats.spearmanr`` computes it.

    Kept in NumPy so that no task loads SciPy: ``scipy.stats`` costs about a
    second of start-up and tens of MB of resident memory for one number.
    """
    ranks = np.column_stack((_average_ranks(x), _average_ranks(y)))
    with np.errstate(invalid="ignore", divide="ignore"):
        return float(np.corrcoef(ranks, rowvar=False)[1, 0])


def _task_diagnostics(config: ExperimentConfig, threads: int) -> list:
    objective = build_objective(config.scenario, 0.0)
    units = [(config, objective, i) for i in range(config.task_params["pilots"])]
    rows = _map_units(_diag_unit, units, threads)
    meta = _base_metadata(config)
    comm = [r[1] for r in rows]
    cw = [r[2] for r in rows]
    meta["spearman_comm_vs_cworst"] = format(_spearman(comm, cw), ".17g")
    meta["block_len"] = config.task_params["block_len"]
    meta["trials"] = config.task_params["trials"]
    return [ResultTable("diagnostics", ["pilot_index", "comm_mi_bits", "c_worst_bits"], rows, meta)]


_RUNNERS = {
    "optimize": _task_optimize,
    "sweep": _task_sweep,
    "pareto-cloud": _task_pareto_cloud,
    "roc": _task_roc,
    "nmse": _task_nmse,
    "ser": _task_ser,
    "gradcheck": _task_gradcheck,
    "diagnostics": _task_diagnostics,
}


def run_config(
    config_path: str,
    task: str | None = None,
    seed: int | None = None,
    out_dir: str | None = None,
    threads: int = 1,
) -> int:
    """Execute the configured task; returns the process exit status."""
    try:
        config = parse_config(config_path, seed_override=seed, out_override=out_dir)
        if task is not None and task != config.task:
            raise ConfigError(f"config.task: file says {config.task!r} but {task!r} was requested")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2

    try:
        tables = _RUNNERS[config.task](config, threads)
    except IsacPilotError as exc:
        print(f"error: task {config.task}: {exc}", file=sys.stderr)
        return 3

    try:
        os.makedirs(config.output_dir, exist_ok=True)
        paths = []
        for table in tables:
            path = os.path.join(config.output_dir, f"{table.name}.csv")
            emit_table(table, path)
            paths.append(path)
    except OSError as exc:
        print(f"error: writing results: {exc}", file=sys.stderr)
        return 4
    print(
        f"{config.task}: wrote {', '.join(paths)} (seed={config.seed}, hash={config.config_hash()})"
    )
    return 0


def verify_outputs(config_path: str, seed: int | None, out_dir: str | None) -> int:
    """Re-hash the config and confirm every CSV in the output dir matches."""
    try:
        config = parse_config(config_path, seed_override=seed, out_override=out_dir)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    expected = config.config_hash()
    directory = config.output_dir
    try:
        files = sorted(f for f in os.listdir(directory) if f.endswith(".csv"))
    except OSError as exc:
        print(f"error: cannot list {directory}: {exc}", file=sys.stderr)
        return 4
    if not files:
        print(f"error: no CSV files in {directory}", file=sys.stderr)
        return 3
    bad = []
    for name in files:
        found = None
        with open(os.path.join(directory, name), "r", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("# config_hash:"):
                    found = line.split(":", 1)[1].strip()
                    break
        status = "ok" if found == expected else "MISMATCH"
        print(f"{name}: {status} (hash {found})")
        if found != expected:
            bad.append(name)
    if bad:
        print(f"error: {len(bad)} file(s) do not match config hash {expected}", file=sys.stderr)
        return 3
    return 0


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(
        prog="isacpilot",
        description="Pilot design and evaluation experiments, driven by a YAML config.",
    )
    parser.add_argument("task", choices=[*TASKS, "verify"], help="task to run")
    parser.add_argument("--config", required=True, help="path to the experiment config file")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", default=None, help="override the output directory")
    parser.add_argument("--threads", type=int, default=1, help="worker processes, at most one per usable CPU")
    args = parser.parse_args(argv)
    if args.task == "verify":
        sys.exit(verify_outputs(args.config, args.seed, args.out))
    sys.exit(run_config(args.config, task=args.task, seed=args.seed, out_dir=args.out, threads=args.threads))


if __name__ == "__main__":
    main()
