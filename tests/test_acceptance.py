"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
report. Scenarios are desk-scale versions of the headline experiments;
every tolerance is pinned here, not tuned at runtime.
"""

import subprocess
import sys
from pathlib import Path

import numpy as np
from scipy import stats

import isacpilot as ip
from isacpilot import OptimizerConfig, substream
from isacpilot.channel import build_user_models
from isacpilot.gradients import isac_value_and_grad
from oracles import (
    all_draws_first,
    comm_grad,
    comm_mi_user,
    mmse_with_weights,
    sense_grad,
    sense_kl_and_g,
    sense_kl_direct,
    sensing_vectors,
    sweep_traces,
)

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def report(num, name, ok, detail=""):
    print(f"[acceptance] {num:02d} {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def formula_gap(pilot, scene):
    """The approximate sensing metric minus the exact one."""
    return ip.sensing_mi(pilot, scene, "approx") - ip.sensing_mi(pilot, scene, "exact")


def gradient_instance(seed):
    """Random feasible instance at N_t=8, L=3, K=2, N_k=5, Q=2: (pilot,
    objective, scene, each user's covariance stack R_n)."""
    rng = substream(seed, "acc-grad")
    n_tx = 8

    def model():
        weights = rng.uniform(0.2, 1.0, 5)
        weights /= weights.sum()
        means = (rng.standard_normal((5, n_tx)) + 1j * rng.standard_normal((5, n_tx))) / 2
        covs = np.empty((5, n_tx, n_tx), dtype=complex)
        for k in range(5):
            a = (rng.standard_normal((n_tx, n_tx)) + 1j * rng.standard_normal((n_tx, n_tx))) / 2
            covs[k] = a @ a.conj().T / n_tx
        noise_std = float(rng.uniform(0.5, 1.5))
        return ip.GmmUserModel(weights, means, covs, noise_std), covs

    geom = ip.ArrayGeometry(n_tx=n_tx, n_rx=4)
    target = float(rng.uniform(-45, 45))
    scene = ip.SensingScene(
        target_angle=target,
        target_power=float(rng.uniform(0.5, 2.0)),
        clutter=(
            (target + float(rng.uniform(20, 50)), float(rng.uniform(0.2, 0.6))),
            (target - float(rng.uniform(20, 50)), float(rng.uniform(0.2, 0.6))),
        ),
        radar_noise_std=float(rng.uniform(0.8, 2.0)),
        geometry=geom,
    )
    users, covariances = zip(model(), model())
    objective = ip.IsacObjective(rho=0.35, user_weights=[0.6, 0.4], users=list(users), scene=scene)
    pilot = ip.random_stiefel(3, n_tx, rng)
    return pilot, objective, scene, list(covariances)


def tradeoff_objective(rho=0.5):
    """Two users on opposite sides, target away from both, low radar noise:
    a genuinely interpolating sensing/communication frontier."""
    geom = ip.ArrayGeometry(n_tx=16, n_rx=8)
    users = [build_user_models(geom, [(a, 6.0, 0.2)], 180)[0] for a in (-40.0, 40.0)]
    scene = ip.SensingScene(
        target_angle=70.0, target_power=1.0, clutter=(), radar_noise_std=0.05, geometry=geom
    )
    return ip.IsacObjective(rho=rho, user_weights=[0.5, 0.5], users=users, scene=scene)


def detection_objective(rho):
    """Headline detection scenario: N_t=20, N_r=5, L=9, target at 60 deg."""
    geom = ip.ArrayGeometry(n_tx=20, n_rx=5)
    user = build_user_models(geom, [(70.0, 6.0, 0.1)], 180)[0]
    scene = ip.SensingScene(
        target_angle=60.0, target_power=1.0, clutter=(), radar_noise_std=2.0, geometry=geom
    )
    return ip.IsacObjective(rho=rho, user_weights=[1.0], users=[user], scene=scene)


def estimation_users():
    """Four-user constellation used for the estimation and link criteria."""
    geom = ip.ArrayGeometry(n_tx=16, n_rx=8)
    return [build_user_models(geom, [(a, 4.0, 0.1)], 180)[0] for a in (70.0, 23.0, -23.0, -70.0)]


def estimation_objective(users):
    geom = ip.ArrayGeometry(n_tx=16, n_rx=8)
    scene = ip.SensingScene(
        target_angle=-20.0, target_power=1.0, clutter=(), radar_noise_std=2.0, geometry=geom
    )
    return ip.IsacObjective(
        rho=1.0, user_weights=np.full(len(users), 1.0 / len(users)), users=users, scene=scene
    )


def test_01_gradient_oracle():
    worst = 0.0
    for seed in range(20):
        pilot, objective, scene, _ = gradient_instance(seed)
        model = objective.users[0]
        for value_fn, grad_fn in (
            (lambda p: comm_mi_user(p, model), lambda p: comm_grad(p, model)),
            (lambda p: ip.sensing_mi(p, scene, "approx"), lambda p: sense_grad(p, scene)),
            (
                lambda p: ip.isac_objective(p, objective),
                lambda p: isac_value_and_grad(p, objective)[3],
            ),
        ):
            worst = max(worst, ip.finite_diff_check(value_fn, grad_fn, pilot, step=1e-4))
    report(1, "gradient-oracle", worst <= 1e-5, f"max_rel_err={worst:.3e} (limit 1e-05)")


def test_02_feasibility_along_iterates():
    objective = detection_objective(0.5)
    init = ip.random_stiefel(9, 20, substream(0, "acc-feas"))
    trace = ip.optimize_pgd(init, objective, OptimizerConfig(0.1, 200, 0.0))
    worst = float(trace.residual.max())
    ok = worst <= 1e-8 and len(trace.objective) == 201
    report(2, "iterate-feasibility", ok, f"max_residual={worst:.3e} over 200 iterations")


def test_03_sensing_mi_oracle():
    worst_lowrank = 0.0
    for seed in range(10):
        for n_clutter in (0, 1):
            rng = substream(seed, "acc-s3", n_clutter)
            geom = ip.ArrayGeometry(n_tx=10, n_rx=4)
            clutter = ((float(rng.uniform(-80, 80)), float(rng.uniform(0.2, 1.0))),) if n_clutter else ()
            scene = ip.SensingScene(
                target_angle=float(rng.uniform(-80, 80)),
                target_power=float(rng.uniform(0.5, 2.0)),
                clutter=clutter,
                radar_noise_std=1.0,
                geometry=geom,
            )
            pilot = ip.random_stiefel(4, 10, rng)
            gap = abs(formula_gap(pilot, scene))
            worst_lowrank = max(worst_lowrank, gap)

    wins = 0
    for seed in range(20):
        rng = substream(seed, "acc-s3-q2")
        angles = rng.uniform(-80, 80, 3)
        pilot_rng = substream(seed, "acc-s3-pilot")
        gaps = {}
        for n_rx in (4, 64):
            geom = ip.ArrayGeometry(n_tx=10, n_rx=n_rx)
            scene = ip.SensingScene(
                target_angle=float(angles[0]),
                target_power=1.0,
                clutter=((float(angles[1]), 0.8), (float(angles[2]), 0.5)),
                radar_noise_std=1.0,
                geometry=geom,
            )
            pilot = ip.random_stiefel(4, 10, substream(seed, "acc-s3-p"))
            gaps[n_rx] = abs(formula_gap(pilot, scene))
        wins += gaps[64] < gaps[4]
    ok = worst_lowrank <= 1e-10 and wins >= 18
    report(
        3,
        "sensing-mi-oracle",
        ok,
        f"lowrank_gap={worst_lowrank:.2e} (limit 1e-10), large-array improvement {wins}/20 seeds",
    )


def test_04_unitary_invariance():
    worst = 0.0
    for seed in range(20):
        pilot, objective, scene, _ = gradient_instance(seed + 200)
        model = objective.users[0]
        rng = substream(seed, "acc-u4")
        z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        q, _ = np.linalg.qr(z)
        rotated = ip.PilotMatrix(q @ pilot.entries)
        worst = max(worst, abs(comm_mi_user(rotated, model) - comm_mi_user(pilot, model)))
        exact = [ip.sensing_mi(p, scene, "exact") for p in (rotated, pilot)]
        worst = max(worst, abs(exact[0] - exact[1]))
    report(4, "unitary-invariance", worst <= 1e-9, f"max_drift={worst:.2e} (limit 1e-09)")


def _sweep_endpoints(seed, objective, rho_values):
    """(sense MI, comm MI) at the end of each trade-off value's ascent, in ρ order."""
    init = ip.random_stiefel(4, 16, substream(seed, "acc-sweep-init"))
    config = OptimizerConfig(0.1, 200, 1e-8)
    traces = sweep_traces(objective, rho_values, init, config)
    return [(trace.sense_mi[-1], trace.comm_mi[-1]) for _, trace in traces]


def test_05_tradeoff_ordering():
    rho_values = [0.0, 0.25, 0.5, 0.75, 1.0]
    objective = tradeoff_objective()
    comm, sense, pareto_keeps_all = [], [], 0
    for seed in range(5):
        points = _sweep_endpoints(seed, objective, rho_values)
        comm.append([c for _, c in points])
        sense.append([s for s, _ in points])
        kept = ip.pareto_filter(points)
        pareto_keeps_all += len(kept) == len(points)
    med_comm = np.median(comm, axis=0)
    med_sense = np.median(sense, axis=0)
    monotone = bool(
        np.all(np.diff(med_comm) >= -1e-9) and np.all(np.diff(med_sense) <= 1e-9)
    )
    gaps = med_comm[-1] > med_comm[0] and med_sense[0] > med_sense[-1]
    ok = monotone and gaps and pareto_keeps_all >= 4
    report(
        5,
        "tradeoff-ordering",
        ok,
        f"comm {med_comm.round(3)}, sense {med_sense.round(3)}, pareto-complete {pareto_keeps_all}/5",
    )


def test_06_frontier_dominance():
    rho_values = [0.0, 0.25, 0.5, 0.75, 1.0]
    objective = tradeoff_objective()
    good = 0
    for seed in range(10):
        points = _sweep_endpoints(seed, objective, rho_values)
        cloud = ip.sample_feasible_cloud(1000, 4, objective, substream(seed, "acc-cloud"))
        all_clear = True
        for p in points:
            ours = np.array(p)
            dominated = np.any(np.all(cloud >= ours, axis=1) & np.any(cloud > ours, axis=1))
            all_clear &= not dominated
        good += all_clear
    report(6, "frontier-dominance", good >= 9, f"non-dominated in {good}/10 seeds (need 9)")


def test_07_roc_ordering_and_exponential_law():
    objective = detection_objective(0.8)
    scene = objective.scene
    config = OptimizerConfig(0.1, 200, 1e-8)
    wins, gaps = 0, []
    for seed in range(10):
        init = ip.random_stiefel(9, 20, substream(seed, "acc-roc-init"))
        optimized = ip.optimize_pgd(init, objective, config).final_pilot
        baseline = ip.random_stiefel(9, 20, substream(seed, "acc-roc-base"))
        p_d = {}
        for name, pilot in (("opt", optimized), ("rnd", baseline)):
            curve = ip.roc_curve(pilot, scene, 100_000, [1e-2], substream(seed, "acc-roc-mc"))
            p_d[name] = float(curve.p_d[0])
        gaps.append(p_d["opt"] - p_d["rnd"])
        wins += gaps[-1] >= 0.02
    pilot = ip.random_stiefel(9, 20, substream(123, "acc-roc-ks"))
    t0, _ = all_draws_first(pilot, scene, 10_000, substream(123, "acc-roc-kst"))
    mu0 = sensing_vectors(pilot, scene)[0]
    scale = np.linalg.norm(mu0) ** 2 / scene.radar_noise_std**2
    p_value = stats.kstest(t0 / scale, "expon").pvalue
    ok = wins >= 9 and p_value > 0.01
    report(
        7,
        "roc-ordering",
        ok,
        f"gap>=0.02 in {wins}/10 seeds (median gap {np.median(gaps):.3f}), KS p={p_value:.3f}",
    )


def test_08_nmse_ordering():
    users = estimation_users()
    objective = estimation_objective(users)
    config = OptimizerConfig(0.1, 200, 1e-8)
    eigen = ip.eigen_pilot(6, users, objective.user_weights)
    dft = ip.dft_pilot(6, 16)
    pooled = {name: [] for name in ("opt", "rnd", "eig", "dft")}
    for seed in range(10):
        init = ip.random_stiefel(6, 16, substream(seed, "acc-nmse-init"))
        optimized = ip.optimize_pgd(init, objective, config).final_pilot
        baseline = ip.random_stiefel(6, 16, substream(seed, "acc-nmse-base"))
        for name, pilot in (("opt", optimized), ("rnd", baseline), ("eig", eigen), ("dft", dft)):
            _, value = ip.nmse_experiment(pilot, users, 1000, substream(seed, "acc-nmse-mc"))
            pooled[name].append(value)
    med = {name: float(np.median(vals)) for name, vals in pooled.items()}
    ok = (
        med["opt"] <= med["rnd"]
        and med["opt"] <= med["eig"]
        and med["dft"] >= max(med["rnd"], med["eig"])
    )
    report(
        8,
        "nmse-ordering",
        ok,
        f"median NMSE opt={med['opt']:.2e} rnd={med['rnd']:.2e} eig={med['eig']:.2e} dft={med['dft']:.2e}",
    )


def test_09_ser_ordering():
    users = estimation_users()
    objective = estimation_objective(users)
    config = OptimizerConfig(0.1, 200, 1e-8)
    results = {"opt": [], "rnd": []}
    for seed in range(5):
        init = ip.random_stiefel(6, 16, substream(seed, "acc-ser-init"))
        optimized = ip.optimize_pgd(init, objective, config).final_pilot
        baseline = ip.random_stiefel(6, 16, substream(seed, "acc-ser-base"))
        for name, pilot in (("opt", optimized), ("rnd", baseline)):
            ser = ip.ser_experiment(pilot, users, [12.0], 100_000, 100, substream(seed, "acc-ser-mc"))
            results[name].append(float(ser[0]))
    med_opt, med_rnd = np.median(results["opt"]), np.median(results["rnd"])
    report(
        9,
        "ser-ordering",
        med_opt < med_rnd,
        f"median SER optimized={med_opt:.4f} random={med_rnd:.4f} at 12 dB",
    )


def test_10_convergence_stability():
    objective = detection_objective(0.5)
    init = ip.random_stiefel(9, 20, substream(0, "acc-conv"))
    trace = ip.optimize_pgd(init, objective, OptimizerConfig(0.1, 200, 0.0))
    tail = trace.objective[-20:]
    spread = float((tail.max() - tail.min()) / abs(trace.objective[-1]))

    fast_ok = 0
    for seed in range(5):
        init_s = ip.random_stiefel(9, 20, substream(seed, "acc-conv5"))
        trace_fast = ip.optimize_pgd(init_s, objective, OptimizerConfig(0.5, 200, 0.0))
        rel = abs(trace_fast.objective[60] - trace_fast.objective[-1]) / max(
            1.0, abs(trace_fast.objective[-1])
        )
        fast_ok += rel <= 1e-3
    ok = spread <= 1e-4 and fast_ok >= 4
    report(
        10,
        "convergence-stability",
        ok,
        f"final-20 spread={spread:.2e} (limit 1e-4), step-0.5 settled by 60 in {fast_ok}/5 seeds",
    )


def test_11_mmse_identity():
    rng = substream(0, "acc-mmse")
    n_tx = 8
    a = (rng.standard_normal((n_tx, n_tx)) + 1j * rng.standard_normal((n_tx, n_tx))) / np.sqrt(n_tx)
    cov = a @ a.conj().T
    mean = rng.standard_normal(n_tx) + 1j * rng.standard_normal(n_tx)
    model = ip.GmmUserModel(weights=[1.0], means=mean[None], covariances=cov[None], noise_std=0.4)
    pilot = ip.random_stiefel(3, n_tx, substream(1, "acc-mmse"))
    phi = pilot.entries
    worst = 0.0
    for _ in range(20):
        y = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        ours = ip.gmm_mmse_batch(y[None], pilot, model)[0]
        sigma = phi @ cov @ phi.conj().T + model.noise_std**2 * np.eye(3)
        closed = mean + cov @ phi.conj().T @ np.linalg.solve(sigma, y - phi @ mean)
        worst = max(worst, float(np.abs(ours - closed).max()))

    from test_metrics import random_model

    mixture = random_model(5, n_tx=n_tx)
    obs = rng.standard_normal((200, 3)) + 1j * rng.standard_normal((200, 3))
    _, resp = mmse_with_weights(obs, pilot, mixture)
    resp_gap = float(np.abs(resp.sum(axis=1) - 1.0).max())
    ok = worst <= 1e-10 and resp_gap <= 1e-12
    report(
        11,
        "mmse-identity",
        ok,
        f"linear-MMSE gap={worst:.2e} (limit 1e-10), responsibility sum gap={resp_gap:.2e}",
    )


def test_12_kl_stein_identities():
    from test_metrics import random_scene

    worst = 0.0
    g_ok = True
    for seed in range(10):
        geom = ip.ArrayGeometry(n_tx=8, n_rx=4)
        scene = random_scene(seed, geom)
        pilot = ip.random_stiefel(3, 8, substream(seed, "acc-kl"))
        kl, g = sense_kl_and_g(pilot, scene)
        worst = max(worst, abs(kl - sense_kl_direct(pilot, scene)))
        g_ok &= 0.0 <= g < 1.0 and kl >= 0.0
    geom = ip.ArrayGeometry(n_tx=8, n_rx=4)
    scene_hot = ip.SensingScene(
        target_angle=25.0, target_power=1e6, clutter=(), radar_noise_std=1.0, geometry=geom
    )
    pilot = ip.random_stiefel(3, 8, substream(99, "acc-kl"))
    _, g_hot = sense_kl_and_g(pilot, scene_hot)
    ok = worst <= 1e-10 and g_ok and abs(g_hot - 1.0) <= 1e-3
    report(
        12,
        "kl-stein-identities",
        ok,
        f"closed-vs-direct gap={worst:.2e} (limit 1e-10), g at 1e6 power={g_hot:.6f}",
    )


def test_13_capacity_diagnostic_trend():
    # zero-mean mixture: the surrogate is then purely covariance-driven and
    # tracks the estimation quality entering the capacity bound
    geom = ip.ArrayGeometry(n_tx=12, n_rx=4)
    user = build_user_models(geom, [(40.0, 10.0, 0.1)], 90, mean_policy="zero")[0]
    comm, c_worst = [], []
    for i in range(50):
        pilot = ip.random_stiefel(4, 12, substream(77, "acc-diag-p", i))
        comm.append(comm_mi_user(pilot, user))
        c_worst.append(ip.c_worst_estimate(pilot, [user], 100, 1000, substream(77, "acc-diag-c", i)))
    rho = float(stats.spearmanr(comm, c_worst).statistic)
    report(13, "capacity-diagnostic-trend", rho > 0.5, f"spearman={rho:.3f} (need > 0.5)")


def test_14_cli_determinism(tmp_path):
    env_cmd = [sys.executable, "-m", "isacpilot.cli"]
    runs = {
        "a": ["--threads", "1"],
        "b": ["--threads", "1"],
        "c": ["--threads", "3"],
    }
    outputs = {}
    for tag, extra in runs.items():
        out = tmp_path / tag
        cmd = env_cmd + [
            "pareto-cloud",
            "--config",
            str(CONFIG_DIR / "pareto_cloud.yaml"),
            "--out",
            str(out),
        ] + extra
        proc = subprocess.run(cmd, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outputs[tag] = (out / "cloud.csv").read_bytes()
    identical = outputs["a"] == outputs["b"] == outputs["c"]

    verify = subprocess.run(
        env_cmd
        + ["verify", "--config", str(CONFIG_DIR / "pareto_cloud.yaml"), "--out", str(tmp_path / "a")],
        capture_output=True,
        text=True,
    )
    ok = identical and verify.returncode == 0
    report(
        14,
        "cli-determinism",
        ok,
        f"byte-identical across reruns and thread counts={identical}, verify rc={verify.returncode}",
    )
