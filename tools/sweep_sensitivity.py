"""Measure the roundoff floor of the shipped trade-off sweep.

Reruns the sweep of ``configs/sweep_tradeoff.yaml`` in process, once from its
shared initializer and once from that initializer nudged by about one ulp:
each real and imaginary part is moved by one machine epsilon of its size,
with a random sign, and the result is projected back onto the Stiefel
manifold.  For each trade-off value it prints both iteration counts and the
relative change of the final communication and sensing MI.

A kernel change that only reorders floating-point operations moves a sweep
point by about as much as this nudge does, so these numbers are the floor
against which a frontier diff is judged: a point that moves by much more
than its floor has changed for another reason.

Usage: ``python3 tools/sweep_sensitivity.py [config]`` (default: the shipped
``configs/sweep_tradeoff.yaml``).  It takes about two sweeps' time.
"""

from __future__ import annotations

import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from isacpilot.config import build_objective, parse_config  # noqa: E402
from isacpilot.optimizer import optimize_pgd, project_stiefel, random_stiefel  # noqa: E402
from isacpilot.streams import substream  # noqa: E402


def nudged(entries: np.ndarray, rng: np.random.Generator):
    """``entries`` with every real and imaginary part moved by one epsilon of
    its size, in a random direction, then re-projected."""
    eps = np.finfo(float).eps
    signs = rng.choice([-1.0, 1.0], size=(2,) + entries.shape)
    moved = entries.real * (1.0 + eps * signs[0]) + 1j * entries.imag * (1.0 + eps * signs[1])
    return project_stiefel(moved)


def relative(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), np.finfo(float).tiny)


def main(argv: list) -> None:
    config = parse_config(argv[1] if len(argv) > 1 else str(ROOT / "configs" / "sweep_tradeoff.yaml"))
    scenario = config.scenario
    objective = build_objective(scenario, 0.0)
    init = random_stiefel(scenario["pilot_len"], scenario["n_tx"], substream(config.seed, "init"))
    moved = nudged(init.entries, substream(config.seed, "sensitivity"))
    size = np.linalg.norm(moved.entries - init.entries) / np.linalg.norm(init.entries)
    print(f"config: {config.task} {argv[1] if len(argv) > 1 else 'configs/sweep_tradeoff.yaml'}")
    print(f"initializer nudge: {size:.2g} relative (Frobenius)")
    print(f"{'rho':>5} {'iters':>5} {'nudged':>6} {'d comm_mi':>10} {'d sense_mi':>10}")
    start = time.perf_counter()
    for rho in config.task_params["rho_values"]:
        rho_objective = replace(objective, rho=float(rho))
        base = optimize_pgd(init, rho_objective, config.optimizer)
        other = optimize_pgd(moved, rho_objective, config.optimizer)
        print(
            f"{rho:5.2f} {base.n_iterations:5d} {other.n_iterations:6d} "
            f"{relative(base.comm_mi[-1], other.comm_mi[-1]):10.2g} "
            f"{relative(base.sense_mi[-1], other.sense_mi[-1]):10.2g}"
        )
    print(f"wall: {time.perf_counter() - start:.1f} s")


if __name__ == "__main__":
    main(sys.argv)
