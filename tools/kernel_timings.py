"""Time one call of each kernel the shipped configs spend their time in.

For each kernel it builds the inputs of a shipped config once, makes one
untimed call, then times single calls until ``--seconds`` (default 1) have
passed, at least ``MIN_REPEATS`` of them, and makes one more untimed call
under ``tracemalloc``.  It prints the median and the quartiles of the
per-call times, the repeat count, the traced peak allocation of one call
(NumPy reports its arrays to ``tracemalloc``; the peak includes the
returned arrays), the core count and the BLAS thread count.  The shapes
are:

- ``comm_state``, ``sense_state``, ``isac_value_and_grad`` (rho = 0.5) and
  ``project_stiefel``: ``configs/sweep_tradeoff.yaml`` (N_t = 16, L = 4,
  K = 2 users sharing one 180-component prior), as one optimizer iteration
  calls them; ``comm_state_l9`` and ``isac_value_and_grad_l9`` the same at
  ``configs/convergence_stepsize.yaml`` (N_t = 20, L = 9, one user, 180
  components, its rho = 0.5), where the pilot is longer than the prior's
  rank (q = 5);
- ``ascent_step`` and ``ascent_step_l9``: the per-iteration cost of
  ``optimize_pgd`` at those two shapes and rho values, with each config's
  step size: an ``ASCENT_ITERS``-iteration ascent from a random pilot with
  the early stop off, divided by its iterations, so each row is one
  ``isac_value_and_grad``, one ``project_stiefel`` and the trace
  bookkeeping (plus a twentieth of the initial evaluation);
- ``build_users`` and ``build_users_cold``: the user models of
  ``configs/sweep_tradeoff.yaml``, with its prior already built in this
  process (the cache hit of every build after the first) and with the prior
  cache cleared before each call (the first build in a process);
- ``gmm_mmse_batch``: one user of ``configs/nmse_baselines.yaml`` (N_t = 16,
  L = 6, 180 components), the ``montecarlo`` workload's NMSE trials
  (3,000), as the Monte Carlo NMSE runs; ``gmm_mmse_batch_ser``: the same
  prior, 400 trials, as the Monte Carlo SER runs per user;
  ``gmm_mmse_batch_diag``: ``configs/diagnostics_cworst.yaml`` (N_t = 12,
  L = 4, 90 zero-mean components), the workload's diagnostic trials (600),
  as the Monte Carlo capacity diagnostic runs per pilot;
- ``sample_channels``: the NMSE prior, the workload's NMSE trials;
- ``roc_curve_mc``: the Monte Carlo ROC shape, ``configs/roc_compare.yaml``
  (N_t = 20, L = 9) with the ``montecarlo`` workload's ``mc_roc`` clutter
  and trial count (``perfbench/workloads.py``: two sources, 10^6 trials),
  the whole ``roc_curve``, both passes over its draws and the thresholds
  together; ``roc_thresholds_mc``: the thresholds alone,
  ``roc_compare.yaml``'s ten false-alarm targets from that many h0
  statistics (|g|^2 of the ROC's standard interference draws g, whose
  order the variance a does not change), which each call first copies
  back into one 8 MB buffer (the thresholds partition it in place);
  ``normals_mc``: the 6 * 10^6 standard normals of
  one such ROC (interference, its replay and targets) drawn alone, in
  blocks of ``DRAW_BLOCK`` pairs into one buffer, the floor under the ROC;
- ``ser_experiment``: ``configs/ser_multiuser.yaml`` (four users, six SNR
  points, 5,000 symbols per user);
- ``nmse_experiment_mc`` and ``ser_experiment_mc``: the ``montecarlo``
  workload's NMSE and SER runs, the four users of
  ``configs/nmse_baselines.yaml`` (N_t = 16, L = 6, 180 components) with
  the workload's trials per user (``NMSE_TRIALS``), and the same users at
  its symbols per user (``SER_SYMBOLS``) with
  ``configs/ser_multiuser.yaml``'s blocks of 100 and six SNR points.
  With ``roc_curve_mc`` these are the three largest working sets of that
  workload, whose peak memory is the largest of them plus the heap the
  earlier ones leave behind;
- ``comm_state_cloud``: ``configs/pareto_cloud.yaml`` (N_t = 16, L = 4,
  K = 2 users sharing one 180-component prior), one pilot per call, without
  the gradient's terms, as the cloud's metric calls it; against
  ``comm_state`` (the same shape with the terms, as the ascent calls it) it
  shows what the value-only state saves;
- ``comm_mi_cloud_piece_P`` and ``comm_mi_l6_piece_P`` for P = 1, 2, 4, 8,
  16 and 32: the value-only ``comm_mi_weighted`` on a stack of
  ``PIECE_PILOTS`` pilots cut into pieces of P pilots (``metrics.pieces``
  set to that size), time per pilot, at the Pareto cloud's shape and at
  ``configs/nmse_baselines.yaml``'s (N_t = 16, L = 6, K = 4 users sharing
  one 180-component prior).  They are the measured basis of
  ``metrics.WORKING_SET``, which gives pieces of 8 and 4 at these shapes;
- ``gmm_mmse_chunk_C`` for C = 128, 347, 700 and 1,500: the
  ``gmm_mmse_batch`` row in chunks of C trials (``metrics.pieces`` set to
  that size), the estimator's part of that basis (the budget gives 314);
- ``diagnostics_metric_1000``: ``comm_mi_weighted`` on a stack of 1,000
  pilots at ``configs/diagnostics_cworst.yaml``'s shape (N_t = 12, L = 4,
  90 components), time per call; its peak column shows that the metric's
  pieces bound its working set, whatever the stack's size;
- ``finite_diff_check``: ``configs/gradcheck_small.yaml`` (N_t = 8, L = 3,
  two users with their own noise levels, two clutter sources), one check of
  the ISAC objective at the config's rho, as the gradcheck task runs it per
  instance, its 192 stencil points in one stack;
  ``isac_value_and_grad_clutter``: one value-and-gradient call at
  that shape and rho, the row whose sensing gradient takes the clutter
  pull-back (the other ``isac_value_and_grad`` rows are clutter-free);
  ``isac_value_and_grad_exact``: the same call with the objective's
  sensing formula set to "exact", whose clutter weights take one solve and
  whose pull-back takes the full clutter block;
  ``sensing_mi_exact_stack``: the same scene, one call of the
  exact sensing metric on a stack of those 192 pilots (time per call), the
  stack ``finite_diff_check`` hands its objective;
- ``parse_config``: the ``montecarlo`` workload's NMSE config with a random
  pilot (``perfbench/workloads.py::montecarlo_configs``, workload seed 1),
  written to a temporary file as the workload writes it, parsed and
  validated as each of that workload's eight tasks does first.

Pilots are random (fixed seed), since the timings do not depend on them.

Usage: ``python3 tools/kernel_timings.py [--seconds S] [kernel ...]``.
Unless ``OPENBLAS_NUM_THREADS`` is set, BLAS runs on one thread.  Per-call
times on a shared machine are noisy; compare two versions with alternating
runs on the same machine.
"""

from __future__ import annotations

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # before NumPy loads BLAS

import argparse
import ctypes
import glob
import sys
import tempfile
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import yaml

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.append(str(ROOT / "perfbench"))  # after the packages: its module names are generic

from workloads import (  # noqa: E402
    DIAG_TRIALS,
    NMSE_TRIALS,
    ROC_TRIALS,
    SER_SYMBOLS,
    montecarlo_configs,
)

from isacpilot.channel import _shared_prior, sample_channels  # noqa: E402
from isacpilot.config import build_objective, build_scene, build_users, parse_config  # noqa: E402
from isacpilot import evaluation, metrics  # noqa: E402
from isacpilot.evaluation import (  # noqa: E402
    DRAW_BLOCK,
    _roc_thresholds,
    gmm_mmse_batch,
    nmse_experiment,
    roc_curve,
    ser_experiment,
)
from isacpilot.gradients import STENCIL, finite_diff_check, isac_value_and_grad  # noqa: E402
from isacpilot.metrics import (  # noqa: E402
    comm_mi_weighted,
    comm_state,
    isac_objective,
    sense_state,
    sensing_mi,
)
from isacpilot.optimizer import optimize_pgd, project_stiefel, random_stiefel  # noqa: E402
from isacpilot.streams import complex_normal, substream  # noqa: E402

MIN_REPEATS = 5
# names of OpenBLAS's thread-count query in NumPy's bundled and in plain builds
OPENBLAS_THREAD_QUERIES = (
    "scipy_openblas_get_num_threads64_",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)
SER_TRIALS = 400
ASCENT_ITERS = 20
DIAG_METRIC_PILOTS = 1000
PIECE_PILOTS = 32
PIECE_SIZES = (1, 2, 4, 8, 16, 32)
CHUNK_SIZES = (128, 347, 700, 1500)


def scenario(stem: str):
    config = parse_config(str(ROOT / "configs" / f"{stem}.yaml"))
    return config, config.scenario


def pilot_for(scen: dict, label: str):
    return random_stiefel(scen["pilot_len"], scen["n_tx"], substream(1, "kernel-timings", label))


def draw_normals(rng: np.random.Generator, block: np.ndarray, n: int) -> None:
    """Draw ``n`` standard normals into ``block``, one block at a time."""
    flat = block.reshape(-1)
    for start in range(0, n, flat.size):
        rng.standard_normal(out=flat[: min(flat.size, n - start)])


def in_pieces(module, size: int, call):
    """``call`` with the ``pieces`` that ``module`` reads cutting its work
    into pieces of ``size`` units, whatever their bytes."""

    def sized(n: int, unit_bytes: int) -> list:
        return [slice(start, min(start + size, n)) for start in range(0, n, size)]

    def run():
        saved, module.pieces = module.pieces, sized
        try:
            return call()
        finally:
            module.pieces = saved

    return run


def kernels(tmp: str) -> tuple[dict, dict]:
    """(name -> (shape description, zero-argument call), name -> units per
    call), inputs built once; input files are written under the directory
    ``tmp``.  The rows timed per pilot of a stack or per ascent iteration
    have their count in the second dict, and a call's time is divided by it."""
    sweep_config, sweep = scenario("sweep_tradeoff")
    objective = build_objective(sweep, 0.5)
    # the config's step size, ASCENT_ITERS iterations, the early stop off
    sweep_ascent = replace(sweep_config.optimizer, max_iters=ASCENT_ITERS, rel_tol=0.0)
    pilot = pilot_for(sweep, "sweep")
    step = pilot.entries + 0.1 * isac_value_and_grad(pilot, objective)[3]
    sweep_shape = (
        f"N_t={sweep['n_tx']} L={sweep['pilot_len']} K={len(objective.users)} "
        f"N_k={sweep['n_components']}"
    )

    conv_config, conv = scenario("convergence_stepsize")
    conv_objective = build_objective(conv, conv["rho"])
    conv_ascent = replace(conv_config.optimizer, max_iters=ASCENT_ITERS, rel_tol=0.0)
    conv_pilot = pilot_for(conv, "convergence")
    conv_shape = (
        f"N_t={conv['n_tx']} L={conv['pilot_len']} K={len(conv_objective.users)} "
        f"N_k={conv['n_components']} q={conv_objective.users[0].rank}"
    )

    _, nmse = scenario("nmse_baselines")
    nmse_users = build_users(nmse)[0]
    model = nmse_users[0]
    nmse_pilot = pilot_for(nmse, "nmse")
    rng = substream(2, "kernel-timings", "nmse")
    channels = sample_channels(model, NMSE_TRIALS, rng)
    noise = model.noise_std * complex_normal(rng, (NMSE_TRIALS, nmse["pilot_len"]))
    obs = channels @ nmse_pilot.entries.T + noise
    nmse_shape = f"N_t={nmse['n_tx']} L={nmse['pilot_len']} N_k={nmse['n_components']}"
    nmse_rng = substream(7, "kernel-timings", "nmse-experiment")

    _, diag = scenario("diagnostics_cworst")
    diag_model = build_users(diag)[0][0]
    diag_pilot = pilot_for(diag, "diag")
    rng = substream(5, "kernel-timings", "diag")
    channels = sample_channels(diag_model, DIAG_TRIALS, rng)
    noise = diag_model.noise_std * complex_normal(rng, (DIAG_TRIALS, diag["pilot_len"]))
    diag_obs = channels @ diag_pilot.entries.T + noise
    diag_objective = build_objective(diag, 0.0)
    diag_stack = np.array(
        [pilot_for(diag, f"diag-{p}").entries for p in range(DIAG_METRIC_PILOTS)]
    )
    sampler_rng = substream(6, "kernel-timings", "sampler")

    roc_config, roc = scenario("roc_compare")
    roc_scene, roc_pilot = build_scene(roc), pilot_for(roc, "roc")
    detection_rng = substream(3, "kernel-timings", "roc")
    mc_clutter = montecarlo_configs(1)["mc_roc"]["scenario"]["scene"]["clutter"]
    mc_scene = replace(
        roc_scene, clutter=tuple((source["angle_deg"], source["power"]) for source in mc_clutter)
    )
    mc_shape = (
        f"N_t={roc['n_tx']} L={roc['pilot_len']} clutter={len(mc_clutter)} trials={ROC_TRIALS}"
    )
    p_fa = roc_config.task_params["p_fa"]
    # h0 statistics |g|^2 at a = 1: scaling them by a moves no order statistic
    mc_h0 = np.abs(complex_normal(detection_rng, (ROC_TRIALS,))) ** 2
    mc_stats = np.empty_like(mc_h0)
    mc_p_fa = np.sort(p_fa)
    normals_rng = substream(8, "kernel-timings", "normals")

    def mc_thresholds():
        np.copyto(mc_stats, mc_h0)  # the thresholds partition it in place
        return _roc_thresholds(mc_stats, mc_p_fa)

    normals_block = np.empty((DRAW_BLOCK, 2))

    ser_config, ser = scenario("ser_multiuser")
    ser_users, ser_pilot = build_users(ser)[0], pilot_for(ser, "ser")
    params = ser_config.task_params
    ser_rng = substream(4, "kernel-timings", "ser")

    _, cloud = scenario("pareto_cloud")
    cloud_objective = build_objective(cloud, 0.0)
    cloud_users = cloud_objective.users
    cloud_stack = np.array([pilot_for(cloud, f"cloud-{p}").entries for p in range(PIECE_PILOTS)])
    nmse_objective = build_objective(nmse, 0.0)
    nmse_stack = np.array([pilot_for(nmse, f"nmse-{p}").entries for p in range(PIECE_PILOTS)])
    cloud_shape = (
        f"N_t={cloud['n_tx']} L={cloud['pilot_len']} K={len(cloud_users)} "
        f"N_k={cloud['n_components']}"
    )

    grad_config, grad = scenario("gradcheck_small")
    grad_objective = build_objective(grad, grad["rho"])
    grad_pilot = pilot_for(grad, "gradcheck")
    grad_step = grad_config.task_params["step"]
    grad_shape = (
        f"N_t={grad['n_tx']} L={grad['pilot_len']} K={len(grad_objective.users)} "
        f"N_k={grad['n_components']} Q={len(grad_objective.scene.clutter)}"
    )
    grad_exact = replace(grad_objective, sensing_formula="exact")
    n_stencil = STENCIL.size * grad_pilot.entries.size  # the points of one check
    grad_stack = np.array([pilot_for(grad, f"gradcheck-{p}").entries for p in range(n_stencil)])

    mc_nmse = Path(tmp) / "mc_nmse_random.yaml"
    with open(mc_nmse, "w", encoding="utf-8") as handle:
        yaml.safe_dump(montecarlo_configs(1)["mc_nmse_random"], handle, sort_keys=False)

    metric_pieces = {
        f"comm_mi_{label}_piece_{size}": (
            f"{shape} values only, per pilot of {PIECE_PILOTS} in pieces of {size}",
            in_pieces(metrics, size, lambda stack=stack, obj=obj: comm_mi_weighted(stack, obj)),
        )
        for label, shape, stack, obj in (
            ("cloud", cloud_shape, cloud_stack, cloud_objective),
            ("l6", f"{nmse_shape} K={len(nmse_users)}", nmse_stack, nmse_objective),
        )
        for size in PIECE_SIZES
    }
    estimator_chunks = {
        f"gmm_mmse_chunk_{size}": (
            f"{nmse_shape} trials={NMSE_TRIALS} in chunks of {size}",
            in_pieces(evaluation, size, lambda: gmm_mmse_batch(obs, nmse_pilot, model)),
        )
        for size in CHUNK_SIZES
    }
    units = {
        **dict.fromkeys(metric_pieces, PIECE_PILOTS),
        "ascent_step": ASCENT_ITERS,
        "ascent_step_l9": ASCENT_ITERS,
    }
    return {
        "comm_state": (sweep_shape, lambda: comm_state(pilot, objective.users)),
        "sense_state": (sweep_shape, lambda: sense_state(pilot, objective.scene)),
        "isac_value_and_grad": (sweep_shape, lambda: isac_value_and_grad(pilot, objective)),
        "project_stiefel": (f"{step.shape[0]}x{step.shape[1]}", lambda: project_stiefel(step)),
        "build_users": (sweep_shape, lambda: build_users(sweep)),
        "build_users_cold": (sweep_shape, lambda: (_shared_prior.cache_clear(), build_users(sweep))),
        "comm_state_l9": (conv_shape, lambda: comm_state(conv_pilot, conv_objective.users)),
        "ascent_step": (
            f"{sweep_shape} per iteration of {ASCENT_ITERS}",
            lambda: optimize_pgd(pilot, objective, sweep_ascent),
        ),
        "ascent_step_l9": (
            f"{conv_shape} per iteration of {ASCENT_ITERS}",
            lambda: optimize_pgd(conv_pilot, conv_objective, conv_ascent),
        ),
        "isac_value_and_grad_l9": (
            conv_shape,
            lambda: isac_value_and_grad(conv_pilot, conv_objective),
        ),
        "gmm_mmse_batch": (
            f"{nmse_shape} trials={NMSE_TRIALS}",
            lambda: gmm_mmse_batch(obs, nmse_pilot, model),
        ),
        "gmm_mmse_batch_ser": (
            f"{nmse_shape} trials={SER_TRIALS}",
            lambda: gmm_mmse_batch(obs[:SER_TRIALS], nmse_pilot, model),
        ),
        "gmm_mmse_batch_diag": (
            f"N_t={diag['n_tx']} L={diag['pilot_len']} N_k={diag['n_components']} "
            f"zero means trials={DIAG_TRIALS}",
            lambda: gmm_mmse_batch(diag_obs, diag_pilot, diag_model),
        ),
        "sample_channels": (
            f"{nmse_shape} draws={NMSE_TRIALS}",
            lambda: sample_channels(model, NMSE_TRIALS, sampler_rng),
        ),
        "roc_curve_mc": (
            f"{mc_shape} p_fa_points={len(p_fa)}",
            lambda: roc_curve(roc_pilot, mc_scene, ROC_TRIALS, p_fa, detection_rng),
        ),
        "roc_thresholds_mc": (
            f"{mc_shape} p_fa_points={len(p_fa)}",
            mc_thresholds,
        ),
        "normals_mc": (
            f"normals={6 * ROC_TRIALS} blocks of {2 * DRAW_BLOCK}",
            lambda: draw_normals(normals_rng, normals_block, 6 * ROC_TRIALS),
        ),
        "nmse_experiment_mc": (
            f"{nmse_shape} K={len(nmse_users)} trials={NMSE_TRIALS}",
            lambda: nmse_experiment(nmse_pilot, nmse_users, NMSE_TRIALS, nmse_rng),
        ),
        "ser_experiment_mc": (
            f"{nmse_shape} K={len(nmse_users)} snr_points={len(params['snr_grid_db'])} "
            f"symbols={SER_SYMBOLS}",
            lambda: ser_experiment(
                nmse_pilot,
                nmse_users,
                params["snr_grid_db"],
                SER_SYMBOLS,
                params["block_len"],
                ser_rng,
            ),
        ),
        "comm_state_cloud": (
            f"{cloud_shape} values only",
            lambda: comm_state(cloud_stack[0], cloud_users, terms=False),
        ),
        **metric_pieces,
        **estimator_chunks,
        "diagnostics_metric_1000": (
            f"N_t={diag['n_tx']} L={diag['pilot_len']} N_k={diag['n_components']} "
            f"pilots={DIAG_METRIC_PILOTS}",
            lambda: comm_mi_weighted(diag_stack, diag_objective),
        ),
        "isac_value_and_grad_clutter": (
            grad_shape,
            lambda: isac_value_and_grad(grad_pilot, grad_objective),
        ),
        "isac_value_and_grad_exact": (
            f"{grad_shape} exact",
            lambda: isac_value_and_grad(grad_pilot, grad_exact),
        ),
        "finite_diff_check": (
            f"{grad_shape} isac",
            lambda: finite_diff_check(
                lambda p: isac_objective(p, grad_objective),
                lambda p: isac_value_and_grad(p, grad_objective)[3],
                grad_pilot,
                grad_step,
            ),
        ),
        "sensing_mi_exact_stack": (
            f"{grad_shape} stack of {len(grad_stack)} per call",
            lambda: sensing_mi(grad_stack, grad_objective.scene, "exact"),
        ),
        "parse_config": ("montecarlo mc_nmse_random", lambda: parse_config(str(mc_nmse))),
        "ser_experiment": (
            f"K={len(ser_users)} snr_points={len(params['snr_grid_db'])} "
            f"symbols={params['n_symbols']}",
            lambda: ser_experiment(
                ser_pilot,
                ser_users,
                params["snr_grid_db"],
                params["n_symbols"],
                params["block_len"],
                ser_rng,
            ),
        ),
    }, units


def time_calls(call, seconds: float) -> np.ndarray:
    call()
    times = []
    deadline = time.perf_counter() + seconds
    while len(times) < MIN_REPEATS or time.perf_counter() < deadline:
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return np.array(times)


def traced_peak(call) -> int:
    """Peak bytes allocated during one call, from ``tracemalloc``."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def blas_threads() -> str:
    """The thread count OpenBLAS reports, or the environment setting if the
    bundled library cannot be asked."""
    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        for symbol in OPENBLAS_THREAD_QUERIES:
            if hasattr(lib, symbol):
                query = getattr(lib, symbol)
                query.argtypes, query.restype = [], ctypes.c_int
                return str(query())
    return f"{os.environ['OPENBLAS_NUM_THREADS']} (OPENBLAS_NUM_THREADS)"


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description="Per-call timings of the isacpilot kernels.")
    parser.add_argument("names", nargs="*", help="kernels to time (default: all)")
    parser.add_argument("--seconds", type=float, default=1.0, help="timing budget per kernel")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        table, units = kernels(tmp)
        unknown = sorted(set(args.names) - set(table))
        if unknown:
            parser.error(f"unknown kernel(s) {', '.join(unknown)}; choose from {', '.join(table)}")
        print(f"nproc: {os.cpu_count()}  BLAS threads: {blas_threads()}  NumPy {np.__version__}")
        print(
            f"{'kernel':<26} {'median ms':>10} {'q1 ms':>9} {'q3 ms':>9} {'calls':>6} "
            f"{'peak MB':>8}  shape"
        )
        for name in args.names or table:
            shape, call = table[name]
            times = time_calls(call, args.seconds) / units.get(name, 1)
            peak_mb = traced_peak(call) / 1e6
            q1, median, q3 = 1e3 * np.percentile(times, [25, 50, 75])
            print(
                f"{name:<26} {median:10.3f} {q1:9.3f} {q3:9.3f} {times.size:6d} "
                f"{peak_mb:8.2f}  {shape}"
            )


if __name__ == "__main__":
    main()
