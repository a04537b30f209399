"""Config-driven experiment runner emitting deterministic CSV tables.

Every output file carries '#'-prefixed metadata (config hash, seed, code
version, units) followed by a header row and 17-significant-digit values.
Every task takes one path from config to tables: it lists its independent
work units (trade-off values, pilot sources, cloud chunks, instance
indices), maps a unit function over them with the shared inputs bound in
front, and hands the rows to ``_table``, which adds the metadata every
table carries. Units run behind fixed named substreams, on a worker pool
when more than one usable CPU can take them, so outputs are byte identical
for a given config and seed regardless of --threads.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field, replace
from functools import partial

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
from .errors import IsacPilotError, NumericError, ObjectiveDomainError
from .evaluation import (
    c_worst_estimate,
    dft_pilot,
    eigen_pilot,
    nmse_experiment,
    roc_curve,
    ser_experiment,
)
from .gradients import finite_diff_check, isac_value_and_grad
from .metrics import (
    IsacObjective,
    comm_mi_weighted,
    isac_objective,
    sensing_mi,
)
from .optimizer import optimize_pgd, pareto_filter, random_stiefel, sample_feasible_cloud
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
    """Write a table as CSV with '#' metadata lines, in the metadata's order;
    atomic via temp rename."""
    lines = [f"# {key}: {value}" for key, value in table.metadata.items()]
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


def _table(config: ExperimentConfig, name: str, header: str, rows: list, **metadata) -> ResultTable:
    """A task's table: the comma-separated ``header`` names its columns, and
    its metadata is in the order ``emit_table`` writes it: the five keys
    every table leads with, then the scenario's keys and the task's own
    ``metadata``, sorted by name."""
    lead = {
        "config_hash": config.config_hash(),
        "seed": config.seed,
        "version": __version__,
        "units": "MI in bits",
        "task": config.task,
    }
    rest = {
        "mean_policy": config.scenario["mean_policy"],
        "mean_scale": config.scenario["mean_scale"],
        "sensing_formula": config.scenario["sensing_formula"],
        **metadata,
    }
    return ResultTable(name, header.split(","), rows, {**lead, **dict(sorted(rest.items()))})


def _random_pilot(config: ExperimentConfig, *role):
    """A random pilot of the scenario's shape, drawn from ``substream(config.seed, *role)``."""
    scenario = config.scenario
    return random_stiefel(scenario["pilot_len"], scenario["n_tx"], substream(config.seed, *role))


def _ascend(config: ExperimentConfig, objective: IsacObjective):
    """The trace of the ascent of ``objective`` from the "init" random pilot."""
    return optimize_pgd(_random_pilot(config, "init"), objective, config.optimizer)


def _pilot_for_source(source: str, config: ExperimentConfig):
    """The pilot a task evaluates."""
    scenario = config.scenario
    if source == "random":
        return _random_pilot(config, "baseline")
    if source == "dft":
        return dft_pilot(scenario["pilot_len"], scenario["n_tx"])
    if source == "eigen":
        return eigen_pilot(scenario["pilot_len"], *build_users(scenario))
    return _ascend(config, build_objective(scenario, scenario["rho"])).final_pilot


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_units(worker, units, threads: int) -> list:
    """Order-preserving map over picklable work units.

    ``worker`` is a unit function with the task's shared inputs bound in
    front of the unit by ``functools.partial``, so a pool pickles them with
    every unit.

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


def _sweep_unit(config: ExperimentConfig, objective: IsacObjective, rho: float) -> tuple:
    """(frontier row, stop reason) of the ascent at trade-off value ``rho``."""
    objective = replace(objective, rho=float(rho))
    trace = _ascend(config, objective)
    comm, sense, value = trace.comm_mi[-1], trace.sense_mi[-1], trace.objective[-1]
    row = (rho, comm / LN2, sense / LN2, value / LN2, trace.n_iterations, trace.residual[-1])
    return row, trace.stop_reason


def _cap_notice(config: ExperimentConfig, stop_reasons) -> None:
    """Print to stderr how many of the ascents, given by their
    ``OptimizationTrace.stop_reason``, ran to ``max_iters``. Silent when none
    did, and when ``rel_tol`` is 0, which switches the early stop off."""
    cap = config.optimizer.max_iters
    capped = stop_reasons.count("max_iters")
    if config.optimizer.rel_tol > 0 and capped:
        notice = f"{config.task}: {capped} of {len(stop_reasons)} points reached max_iters ({cap})"
        print(notice, file=sys.stderr)


def _task_sweep(config: ExperimentConfig, threads: int) -> list:
    # one objective for every unit; each unit sets its own rho
    unit = partial(_sweep_unit, config, build_objective(config.scenario, 0.0))
    rows, stop_reasons = zip(*_map_units(unit, config.task_params["rho_values"], threads))
    _cap_notice(config, stop_reasons)
    header = "rho,comm_mi_bits,sense_mi_bits,objective_bits,iters,residual"
    return [_table(config, "frontier", header, list(rows))]


def _task_optimize(config: ExperimentConfig, threads: int) -> list:
    rho = config.scenario["rho"]
    objective = build_objective(config.scenario, rho)
    trace = _ascend(config, objective)
    _cap_notice(config, [trace.stop_reason])
    records = zip(trace.objective, trace.comm_mi, trace.sense_mi, trace.residual)
    trace_rows = [
        (it, obj / LN2, comm / LN2, sense / LN2, res)
        for it, (obj, comm, sense, res) in enumerate(records)
    ]
    pilot_rows = [(i, j, z.real, z.imag) for (i, j), z in np.ndenumerate(trace.final_pilot.entries)]
    trace_header = "iteration,objective_bits,comm_mi_bits,sense_mi_bits,residual"
    return [
        _table(config, "trace", trace_header, trace_rows, rho=rho),
        _table(config, "pilot", "slot,antenna,re,im", pilot_rows, rho=rho),
    ]


def _cloud_unit(config: ExperimentConfig, objective: IsacObjective, chunk_index: int) -> list:
    offset = chunk_index * CLOUD_CHUNK
    try:
        pairs = sample_feasible_cloud(
            min(CLOUD_CHUNK, config.task_params["samples"] - offset),
            config.scenario["pilot_len"],
            objective,
            substream(config.seed, "cloud", chunk_index),
        )
    except ObjectiveDomainError as exc:  # named by its cloud.csv row, not its place in the chunk
        row = offset + exc.index
        exc.args = (exc.args[0].replace(f"of sample {exc.index}", f"of sample {row}"),)
        exc.index = row
        raise
    return pairs.tolist()


def _task_pareto_cloud(config: ExperimentConfig, threads: int) -> list:
    unit = partial(_cloud_unit, config, build_objective(config.scenario, 0.0))
    n_chunks = -(-config.task_params["samples"] // CLOUD_CHUNK)  # rounded up
    chunks = _map_units(unit, range(n_chunks), threads)
    pairs = [pair for chunk in chunks for pair in chunk]
    kept_set = {tuple(p) for p in pareto_filter(pairs)}
    rows = [
        (i, sense / LN2, comm / LN2, 1.0 if (sense, comm) in kept_set else 0.0)
        for i, (sense, comm) in enumerate(pairs)
    ]
    return [_table(config, "cloud", "sample,sense_mi_bits,comm_mi_bits,pareto", rows)]


def _task_roc(config: ExperimentConfig, threads: int) -> list:
    params = config.task_params
    source = params["pilot_source"]
    # the user models are built only for a pilot that needs them, which a
    # random or DFT pilot does not
    pilot = _pilot_for_source(source, config)
    scene = build_scene(config.scenario)
    curve = roc_curve(pilot, scene, params["trials"], params["p_fa"], substream(config.seed, "roc"))
    rows = list(zip(curve.p_fa, curve.p_d, curve.thresholds, curve.low_resolution))
    header = "p_fa,p_d,threshold,low_resolution"
    return [_table(config, "roc", header, rows, pilot_source=source, trials=params["trials"])]


def _per_source(unit, config: ExperimentConfig, threads: int) -> tuple:
    """``unit(config, source)`` over the task's pilot sources, each of its rows
    led by the source's id, and the ``sources`` legend of those ids."""
    sources = config.task_params["sources"]
    chunks = _map_units(partial(unit, config), sources, threads)
    rows = [(i, *row) for i, chunk in enumerate(chunks) for row in chunk]
    return rows, " ".join(f"{i}={s}" for i, s in enumerate(sources))


def _nmse_unit(config: ExperimentConfig, source: str) -> list:
    users = build_users(config.scenario)[0]
    pilot = _pilot_for_source(source, config)
    rng = substream(config.seed, "nmse")
    per_user, pooled = nmse_experiment(pilot, users, config.task_params["trials"], rng)
    return [*enumerate(per_user), (len(users), pooled)]


def _task_nmse(config: ExperimentConfig, threads: int) -> list:
    rows, sources = _per_source(_nmse_unit, config, threads)
    legend = f"user ids 0..K-1, {len(config.scenario['users'])} = pooled"
    metadata = {"sources": sources, "user_legend": legend, "trials": config.task_params["trials"]}
    return [_table(config, "nmse", "source_id,user_id,nmse", rows, **metadata)]


def _ser_unit(config: ExperimentConfig, source: str) -> list:
    params = config.task_params
    snrs = params["snr_grid_db"]
    users = build_users(config.scenario)[0]
    pilot = _pilot_for_source(source, config)
    rng = substream(config.seed, "ser")
    ser = ser_experiment(pilot, users, snrs, params["n_symbols"], params["block_len"], rng)
    return list(zip(snrs, ser))


def _task_ser(config: ExperimentConfig, threads: int) -> list:
    params = config.task_params
    rows, sources = _per_source(_ser_unit, config, threads)
    metadata = {
        "sources": sources,
        "snr_definition": "per-user nominal receive SNR: unit symbol energy, unit-norm precoder "
        "columns, noise var 10^(-snr_db/10)",
        "block_len": params["block_len"],
        # whole blocks are simulated: the count rounds up to a multiple of block_len
        "n_symbols_per_user": -(-params["n_symbols"] // params["block_len"]) * params["block_len"],
    }
    return [_table(config, "ser", "source_id,snr_db,ser", rows, **metadata)]


def _gradcheck_unit(config: ExperimentConfig, objective: IsacObjective, index: int) -> tuple:
    pilot = _random_pilot(config, "gradcheck", index)
    scene = objective.scene
    # the first user alone at rho = 1 and at rho = 0 isolates each gradient
    # term; the values are the metrics themselves, since isac_objective at
    # rho = 1 or 0 would also evaluate the other metric on every stencil stack
    comm_obj = replace(objective, rho=1.0, user_weights=[1.0], users=objective.users[:1])
    sense_obj = replace(comm_obj, rho=0.0)
    checks = (
        (lambda p: comm_mi_weighted(p, comm_obj), comm_obj),
        (lambda p: sensing_mi(p, scene, objective.sensing_formula), sense_obj),
        (lambda p: isac_objective(p, objective), objective),
    )
    step = config.task_params["step"]
    errors = (
        finite_diff_check(value_fn, lambda p: isac_value_and_grad(p, obj)[3], pilot, step)
        for value_fn, obj in checks
    )
    return (index, *errors)


def _task_gradcheck(config: ExperimentConfig, threads: int) -> list:
    params = config.task_params
    rho = config.scenario["rho"]
    unit = partial(_gradcheck_unit, config, build_objective(config.scenario, rho))
    rows = _map_units(unit, range(params["instances"]), threads)
    worst = max(max(row[1:]) for row in rows)
    tolerance = params["tolerance"]
    if worst > tolerance:
        raise NumericError(
            f"gradient check failed: max relative error {worst:.3e} exceeds {tolerance:.1e}"
        )
    header = "instance,comm_err,sense_err,isac_err"
    return [_table(config, "gradcheck", header, rows, tolerance=tolerance)]


def _diag_unit(config: ExperimentConfig, users: list, unit: tuple) -> float:
    """The capacity bound, in bits, of the pilot of ``unit`` = (index, pilot)."""
    params = config.task_params
    index, pilot = unit
    rng = substream(config.seed, "diag-cw", index)
    return c_worst_estimate(pilot, users, params["block_len"], params["trials"], rng) / LN2


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
    params = config.task_params
    objective = build_objective(config.scenario, 0.0)
    pilots = [_random_pilot(config, "diag-pilot", index) for index in range(params["pilots"])]
    units = list(enumerate(pilots))
    c_worst = _map_units(partial(_diag_unit, config, objective.users), units, threads)
    # one stack, which the metric evaluates in pieces of bounded size; each
    # pilot's value is that of its own call
    comm = comm_mi_weighted(np.array([pilot.entries for pilot in pilots]), objective) / LN2
    rows = list(zip(range(len(pilots)), comm, c_worst))
    metadata = {
        "spearman_comm_vs_cworst": format(_spearman(comm, c_worst), ".17g"),
        "block_len": params["block_len"],
        "trials": params["trials"],
    }
    header = "pilot_index,comm_mi_bits,c_worst_bits"
    return [_table(config, "diagnostics", header, rows, **metadata)]


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


def _load_config(config_path: str, task: str | None, seed: int | None, out_dir: str | None):
    """The parsed config, or None once the reason it cannot be had is printed (exit 2)."""
    try:
        config = parse_config(config_path, seed_override=seed, out_override=out_dir)
        if task is not None and task != config.task:
            raise ConfigError(f"config.task: file says {config.task!r} but {task!r} was requested")
        return config
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
    return None


def run_config(
    config_path: str,
    task: str | None = None,
    seed: int | None = None,
    out_dir: str | None = None,
    threads: int = 1,
) -> int:
    """Execute the configured task; returns the process exit status."""
    config = _load_config(config_path, task, seed, out_dir)
    if config is None:
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
    """Re-hash the config and confirm every CSV in the output dir matches.

    Returns 0 when every CSV carries the config's hash, 3 when one does not
    (a CSV that is not UTF-8 does not) and 4 when the directory or one of
    its entries cannot be read.  Each file is decoded whole before its hash
    line is looked for, so a bad byte anywhere in it is seen.
    """
    config = _load_config(config_path, None, seed, out_dir)
    if config is None:
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
        path = os.path.join(directory, name)
        found, note = None, None
        try:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except UnicodeDecodeError:  # not a table this package wrote
            note = "not UTF-8"
        except OSError as exc:
            print(f"error: cannot read {path}: {exc}", file=sys.stderr)
            return 4
        else:
            for line in text.split("\n"):
                if line.startswith("# config_hash:"):
                    found = line.split(":", 1)[1].strip()
                    break
        status = "ok" if found == expected else "MISMATCH"
        print(f"{name}: {status} ({note or f'hash {found}'})")
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
    parser.add_argument(
        "--threads", type=int, default=1, help="worker processes, at most one per usable CPU"
    )
    args = parser.parse_args(argv)
    if args.threads < 1:
        parser.error("argument --threads: must be >= 1")
    if args.task == "verify":
        sys.exit(verify_outputs(args.config, args.seed, args.out))
    sys.exit(run_config(args.config, args.task, args.seed, args.out, args.threads))


if __name__ == "__main__":
    main()
