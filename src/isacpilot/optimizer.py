"""Projected gradient ascent on the Stiefel manifold plus frontier tooling.

Each iteration takes an ascent step along the conjugate gradient and
projects back to the closest row-orthonormal matrix (polar factor via SVD),
so every recorded iterate is feasible.  Independent runs (seeds, trade-off
values, cloud samples) are pure and can execute concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import PilotMatrix, pilot_entries
from .errors import (
    DimensionError,
    IsacPilotError,
    ObjectiveDomainError,
    SingularMatrixError,
    count,
    finite_array,
    number,
)
from .gradients import isac_value_and_grad
from .metrics import IsacObjective, comm_mi_weighted, sensing_mi
from .streams import complex_normal

STOP_WINDOW = 10
# random pilots per stack in ``sample_feasible_cloud``; a stack of 8 keeps a
# call's temporaries near 4 MB at the shipped cloud shape
CLOUD_STACK = 8


@dataclass(frozen=True)
class OptimizerConfig:
    """Fixed-step ascent settings; rel_tol 0 disables the early stop."""

    step_size: float = 0.1
    max_iters: int = 200
    rel_tol: float = 1e-8

    def __post_init__(self):
        number(self.step_size, "step_size", "must be positive")
        count(self.max_iters, "max_iters")
        number(self.rel_tol, "rel_tol", "must be nonnegative")


@dataclass(eq=False)
class OptimizationTrace:
    """Per-iteration objective/feasibility records (iterate 0 is the initial
    pilot), the final pilot and why the ascent stopped: "rel_tol" when the
    window test passed, "max_iters" when it ran to the cap."""

    objective: np.ndarray
    comm_mi: np.ndarray
    sense_mi: np.ndarray
    residual: np.ndarray
    final_pilot: PilotMatrix
    stop_reason: str

    @property
    def n_iterations(self) -> int:
        return len(self.objective) - 1


def project_stiefel(z) -> PilotMatrix:
    """Closest row-orthonormal matrix to z in Frobenius norm (polar factor).

    A NaN or infinite entry raises ``NonFiniteError``, a ``NumericError``:
    the SVD would either fail with a ``LinAlgError`` or return NaN factors.
    """
    return PilotMatrix(_polar(pilot_entries(z, name="projection input")))


def _polar(z: np.ndarray) -> np.ndarray:
    """Polar factors U V^H of a matrix or of each matrix of a stack, from one
    (batched) SVD; a singular value at or below 1e-12 raises
    ``SingularMatrixError``."""
    u, s, vh = np.linalg.svd(z, full_matrices=False)
    if s.min(initial=np.inf) <= 1e-12:
        raise SingularMatrixError("projection undefined for rank-deficient input")
    return u @ vh


def random_stiefel(n_slots: int, n_tx: int, rng: np.random.Generator) -> PilotMatrix:
    """Random orthogonal pilot: projected i.i.d. complex Gaussian matrix."""
    count(n_slots, "n_slots")
    count(n_tx, "n_tx")
    return project_stiefel(complex_normal(rng, (n_slots, n_tx)))


def optimize_pgd(
    init: PilotMatrix, objective: IsacObjective, config: OptimizerConfig
) -> OptimizationTrace:
    """Ascend the scalarized objective from ``init``; deterministic given inputs.

    Stops at ``max_iters`` or once the objective spread over a 10-iteration
    window drops below ``rel_tol`` relative to the current value, and records
    which in ``stop_reason``.  Every iterate is a ``PilotMatrix``, whose
    constructor rejects a residual above 1e-8.  An error
    in the projection or the evaluation of iteration t is raised with
    "iteration t: " before its message.
    """
    pilot = init
    values, comms, senses, residuals = [], [], [], []

    def record(p):
        val, comm, sense, grad = isac_value_and_grad(p, objective)
        values.append(val)
        comms.append(comm)
        senses.append(sense)
        residuals.append(p.residual)
        return grad

    stop_reason = "max_iters"
    try:
        grad = record(pilot)
        for t in range(1, config.max_iters + 1):
            pilot = project_stiefel(pilot.entries + config.step_size * grad)
            grad = record(pilot)
            if config.rel_tol > 0 and t >= STOP_WINDOW:
                window = values[-(STOP_WINDOW + 1) :]
                if max(window) - min(window) <= config.rel_tol * max(1.0, abs(values[-1])):
                    stop_reason = "rel_tol"
                    break
    except IsacPilotError as exc:
        # iterates 0 .. t - 1 were recorded, so the failing iteration is t
        exc.args = (f"iteration {len(values)}: {exc}",) + exc.args[1:]
        raise

    return OptimizationTrace(
        objective=np.array(values),
        comm_mi=np.array(comms),
        sense_mi=np.array(senses),
        residual=np.array(residuals),
        final_pilot=pilot,
        stop_reason=stop_reason,
    )


def pareto_filter(points) -> list:
    """Non-dominated subset of (x, y) pairs, input order kept.

    A point is dropped iff some other point is >= in both coordinates and
    strictly greater in at least one; exact duplicates all survive.  One
    sort, x then y both descending, gives the staircase of 2-D maxima (Kung,
    Luccio & Preparata, J. ACM 22, 1975): a point is dominated iff a point
    in its run of equal x has a larger y, or a point with a larger x has a y
    at least as large.  A point that is not a finite (x, y) pair raises an
    ``IsacPilotError`` before any sort.
    """
    try:
        pts = [tuple(p) for p in points]
    except TypeError:  # a number, or numbers in place of pairs
        raise DimensionError("points: expected (x, y) pairs") from None
    if not pts:
        return []
    xy = finite_array(pts, "points", 2)
    if xy.shape[1] != 2:
        raise DimensionError("points: expected (x, y) pairs")
    x, y = xy.T
    order = np.lexsort((-y, -x))
    xs, ys = x[order], y[order]
    first = np.r_[True, xs[1:] != xs[:-1]]  # each run of equal x, its largest y first
    run = np.cumsum(first) - 1
    top = ys[first]  # largest y of each run
    above = np.r_[-np.inf, np.maximum.accumulate(top)[:-1]]  # largest y at a larger x
    dominated = np.empty(len(pts), dtype=bool)
    dominated[order] = (ys < top[run]) | (ys <= above[run])
    return [p for p, d in zip(pts, dominated) if not d]


def sample_feasible_cloud(
    n_samples: int,
    n_slots: int,
    objective: IsacObjective,
    rng: np.random.Generator,
) -> np.ndarray:
    """(sense MI, comm MI) pairs of random orthogonal pilots, shape (n, 2).

    The pilots are drawn and projected ``CLOUD_STACK`` at a time: one draw of
    a (P, L, N_t) stack takes the same stream as P single draws, and one
    batched SVD projects it; each pilot is checked for rank and as a
    ``PilotMatrix`` (shape, row orthonormality).  Both metrics, the sensing
    one under the objective's formula, evaluate a stack per call, with each
    pilot's value that of its own call.  A pilot outside the approximate
    sensing metric's domain raises ``ObjectiveDomainError`` naming its
    sample.
    """
    count(n_samples, "n_samples")
    count(n_slots, "n_slots")
    n_tx = objective.scene.geometry.n_tx
    pairs = np.empty((n_samples, 2))
    for start in range(0, n_samples, CLOUD_STACK):
        stack = _polar(complex_normal(rng, (min(CLOUD_STACK, n_samples - start), n_slots, n_tx)))
        for phi in stack:
            PilotMatrix(phi)  # its shape and row-orthonormality checks
        rows = slice(start, start + len(stack))
        try:
            pairs[rows, 0] = sensing_mi(stack, objective.scene, objective.sensing_formula)
        except ObjectiveDomainError as exc:  # named by its sample, not its place in the stack
            sample = start + exc.index
            exc.args = (exc.args[0].replace(f"of pilot {exc.index}", f"of sample {sample}"),)
            exc.index = sample
            raise
        pairs[rows, 1] = comm_mi_weighted(stack, objective)
    return pairs
