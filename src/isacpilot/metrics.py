"""Mutual-information objectives for pilot design.

All values are in natural-log units; conversion to bits happens only at
reporting boundaries.  The communication metric is a linearized-entropy
surrogate and can be negative; it includes its pilot-independent constant
so values are comparable across pilots at a fixed noise level and length.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import SensingScene, pilot_entries
from .errors import (
    DimensionError,
    InvalidParameterError,
    NumericError,
    ObjectiveDomainError,
    number,
    one_of,
    simplex,
)

SENSING_FORMULAS = ("approx", "exact")


@dataclass(eq=False)
class IsacObjective:
    """Scalarized joint objective: rho weights communication against sensing.

    ``sensing_formula`` names the sensing metric (``SENSING_FORMULAS``)
    that the objective, its gradient and the ascent follow.  Construction
    rejects users whose antenna count differs from the scene's, and
    sets ``groups``, the users as (weights, users) pairs
    that share one factor and one noise level, each of which takes one
    ``comm_state`` call per pilot (per piece of a stack in
    ``comm_mi_weighted``); groups and the users within them keep their
    first-appearance order.
    """

    rho: float
    user_weights: np.ndarray
    users: list
    scene: SensingScene
    sensing_formula: str = "approx"

    def __post_init__(self):
        number(self.rho, "rho", "must lie in [0, 1]")
        one_of(self.sensing_formula, "sensing_formula", SENSING_FORMULAS)
        self.user_weights = simplex(self.user_weights, "user weights", len(self.users))
        n_tx = self.scene.geometry.n_tx
        for m in self.users:
            if m.n_tx != n_tx:
                raise DimensionError(f"users have {m.n_tx} antennas but the scene has {n_tx}")
        groups = {}
        for w, m in zip(self.user_weights, self.users):
            weights, users = groups.setdefault((id(m.stacked), m.noise_std), ([], []))
            weights.append(w)
            users.append(m)
        self.groups = [(np.array(weights), users) for weights, users in groups.values()]


# A mixture weight whose log lies more than this below the largest log
# weight (the estimator's) or below the log of their sum (the gradient's,
# log_mix - log_omega) is set to exactly 0.  e^-700 is about 1e-304, just
# above the subnormal range (below 2.2e-308, from about e^-708): such a
# weight is hundreds of orders below the result's roundoff, but as a
# subnormal operand it takes a slow microcode path in every product it
# enters.  In ``evaluation.gmm_mmse_batch`` the weights enter the mixing of
# the stacked gains [G_n | b_n], which subnormal weights made about thirteen
# times slower; in ``gradients._comm_grad`` they enter its products with
# the state, which one subnormal weight of 180 made 1.2 to 1.4 times slower
# at the L = 9 ascent.  Normalized by at most N_k, a kept estimator weight
# stays normal for any N_k below about 4,000.
WEIGHT_CUT = -700.0
# The bytes that one piece of a stacked or chunked kernel builds (120,000
# complex entries).  ``pieces`` cuts the pilots of ``comm_mi_weighted``, the
# trials of ``evaluation.gmm_mmse_batch`` and the stencil points of
# ``gradients.finite_diff_check`` so that each piece's arrays take about this
# much; each caller states its bytes per unit.  Pieces set speed and memory
# alone: the shipped tables keep their bytes at pieces of 1 to 64 pilots and
# chunks of 50 to 3,200 trials.  ``tools/kernel_timings.py`` shows where the
# budget sits: its ``comm_mi_cloud_piece_*`` and ``comm_mi_l6_piece_*`` rows
# time the value-only metric per pilot at pieces of 1 to 32, which cost least
# from 8 to 16 pilots at the Pareto cloud's shape (8 here) and turn up once a
# piece's largest temporary passes about 4 to 7 MB (from 8 to 16 pilots at
# L = 6, K = 4, where the budget gives 4); its ``gmm_mmse_chunk_*`` rows time
# the estimator at the NMSE shape, flat from 128 to 700 trials per chunk (314
# here) and slower at 1,500.  A larger budget also raises the cloud task's
# process peak: 44.2 MB at 10 pilots per piece against 43.0 MB at 8.
WORKING_SET = 1_920_000


def pieces(n: int, unit_bytes: int) -> list:
    """The slices of range(``n``) in order, each of max(1, ``WORKING_SET`` //
    ``unit_bytes``) units but the last, which may be shorter."""
    size = max(1, WORKING_SET // unit_bytes)
    return [slice(start, min(start + size, n)) for start in range(0, n, size)]


class CommState(NamedTuple):
    """Mixture observation statistics of a group of users at one pilot, in
    factor form (R_n = A_n A_n^H, Sigma_n = B_n B_n^H + sigma^2 I).

    The users of a group share the stacked factor and means
    (``GmmUserModel.stacked``, rank q) and the noise level, hence B_n, C_n
    and log det Sigma_n; each user g has its own weights, so its own mixture
    mean m^(g) and mean terms v_n^(g) = Phi m^(g) - Phi mu_n (Phi times
    mixture mean minus component mean), s, beta, B^H s, log_mix and value.
    Conjugate convention: the solves s_n = Sigma_n^{-1} v_n and
    C_n = Sigma_n^{-1} B_n are kept as conj(s_n) and conj(C_n), the forms
    their readers take: the gradient d value / d Phi^* is built from
    conj(C_n), conj(s_n) and B_n^H s_n (``gradients._comm_grad``), and the
    estimator reads C_n^H as the transpose of conj(C_n)
    (``evaluation.gmm_mmse_batch``), so neither conjugates an array of the
    state.  B_n^H s_n is kept as is.  The fields are the same whichever
    system ``comm_state`` eliminated: the conjugate L x L system when
    L <= q, or the q x q capacitance K_n = sigma^2 I + B_n^H B_n when q < L,
    where B_n^H s_n = B_n^H Sigma_n^{-1} v_n = K_n^{-1} B_n^H v_n is one of
    the solved blocks.  Sigma_n itself is not kept: B_n C_n^H =
    I - sigma^2 Sigma_n^{-1}, so its inverse is (I - B_n C_n^H) / sigma^2,
    and log det Sigma_n enters ``log_mix`` alone.
    A state formed without ``terms`` (``comm_state``), for the metric's
    value alone, has None in place of conj(C) and B^H s.  Arrays keep the
    component axis n last, so each step of the elimination in
    ``_solve_stacked`` works on all N_k components at once.  For a stack of
    P pilots that axis holds P N_k columns, column p N_k + n for component n
    at pilot p, and ``value`` and ``log_omega`` are (K_g, P); the shapes
    below are those of one pilot.
    """

    value: np.ndarray  # (K_g,) per-user metric
    log_mix: np.ndarray  # (K_g, N_k) log of alpha_n e^{-beta_n} / det Sigma_n
    log_omega: np.ndarray  # (K_g,) log-sum-exp of log_mix
    b: np.ndarray  # (L, q, N_k) B_n = Phi A_n, a view of Phi @ stacked
    s_conj: np.ndarray  # (L, K_g, N_k) conj(s_n^(g)), s_n^(g) = Sigma_n^{-1} v_n^(g)
    c_conj: np.ndarray | None  # (L, q, N_k) conj(C_n), C_n = Sigma_n^{-1} B_n
    bh_s: np.ndarray | None  # (K_g, q, N_k) B_n^H s_n^(g)


class SenseState(NamedTuple):
    """The pilot terms of the sensing metrics and their gradient.

    The scene terms (transmit steering rows, receive-steering correlations,
    powers, target first) are not kept: they are built once per scene
    (``SensingScene._sense_terms``), with the noise level
    ``radar_noise_std``, as ``CommState`` keeps none of the channel model.
    For a stack of P pilots every field gains a leading pilot axis (``arg``
    is then a (P,) array).  A state is valid: ``arg`` is positive, since
    ``sense_state`` raises where it forms it.  ``z`` holds the clutter
    weights of the formula the state was formed under, 0 for a source of
    zero power: the solve of ``sense_state``, exact or with the clutter Gram
    taken as diagonal, where the approximate weights read z_i = nu_i
    gram[i, 0] / (sigma_r^2 + nu_i gram[i, i]).  The metric's clutter sum is
    sum_i Re(conj(gram[i, 0]) z_i); the detector's trials
    (``evaluation.roc_curve``) and the gradient
    (``gradients._sense_grad``) are formed from z.
    """

    u: np.ndarray  # (Q+1, L) pilots applied to steering, target first
    gram: np.ndarray  # (Q+1, Q+1) Gram of the mu_i vectors
    arg: float  # argument of the log in the sensing metric
    z: np.ndarray  # (Q,) clutter weights z_i, i = 1..Q


def _solve_stacked(aug: np.ndarray, n: int) -> np.ndarray:
    """Gaussian elimination, in place, of the stacked systems [M_n | rhs_n].

    ``aug`` is a C-contiguous (n, n + p, N_k) array with a Hermitian
    positive definite M_n in its first n columns (the observation covariance
    Sigma_n or the capacitance sigma^2 I + B_n^H B_n); on return its last p
    columns hold M_n^{-1} rhs_n.  Returns the (n, N_k) pivots, whose logs
    sum to log det M_n.  Each of the n forward steps and n - 1
    back-substitution steps is a few NumPy operations over all N_k
    components, in place of one LAPACK call per component.  No pivoting is
    needed: every pivot is the leading entry of a Schur complement of M_n,
    which is positive definite with eigenvalues no smaller than M_n's, so a
    pivot is at least lambda_min(M_n) (sigma^2 for either matrix, both being
    sigma^2 I plus a Gram matrix), and elimination on a positive definite
    matrix does not grow its entries.  A pivot that is not positive and finite
    raises ``NumericError``.
    """
    pivots = _diagonal(aug).real  # each entry is final once its step is done
    for i in range(n - 1):
        aug[i, i + 1 :] *= 1.0 / pivots[i]
        aug[i + 1 :, i + 1 :] -= aug[i + 1 :, i, None] * aug[i, None, i + 1 :]
    aug[n - 1, n:] *= 1.0 / pivots[n - 1]
    for j in range(n - 1, 0, -1):
        aug[:j, n:] -= aug[:j, j, None] * aug[j, None, n:]
    if not (pivots.min() > 0.0 and pivots.max() < np.inf):
        raise NumericError(
            f"observation covariance is not positive definite (smallest pivot {pivots.min():.3g})"
        )
    return pivots


def _diagonal(aug: np.ndarray) -> np.ndarray:
    """The (n, N_k) diagonal entries aug[i, i] of a C-contiguous (n, m, N_k)
    array, as a view: row i*m + i of its (n m, N_k) reshape."""
    return aug.reshape(-1, aug.shape[2])[:: aug.shape[1] + 1]


def _observation_solve(b: np.ndarray, v: np.ndarray, sigma2: float, terms: bool) -> tuple:
    """(log det Sigma_n, conj(s), conj(C), B^H s) from the L x L system,
    for L <= q.

    The conjugate system conj(Sigma_n) = conj(B_n) B_n^T + sigma^2 I,
    conj(v_n^(g)) and conj(B_n) are written into one (L, L + K_g + q, N_k)
    array, and one elimination (``_solve_stacked``) gives log det Sigma_n
    (the pivots are real) and conj(Sigma_n^{-1}) [conj(v_n^(1)) ...
    conj(v_n^(K_g)) | conj(B_n)], which are conj(s_n) and conj(C_n).
    Conjugation commutes exactly with the elimination's products, sums and
    real scalings, so these are the bits of the conjugated solves of
    Sigma_n.  Without ``terms`` the array is [conj(Sigma_n) | conj(v_n)]
    alone, (L, L + K_g, N_k), and conj(C) and B^H s are None; the
    elimination works column by column, so log det Sigma_n and conj(s)
    keep their bits.
    """
    n_slots, rank, n_cols = b.shape
    start = n_slots + v.shape[1]  # first column of conj(B_n) in the elimination array
    aug = np.empty((n_slots, start + (rank if terms else 0), n_cols), dtype=complex)
    b_conj = np.conjugate(b, out=aug[:, start:] if terms else None)
    np.add.reduce(b_conj[:, None] * b, axis=2, out=aug[:, :n_slots])
    _diagonal(aug)[...] += sigma2
    np.conjugate(v, out=aug[:, n_slots:start])
    logdet = np.add.reduce(np.log(_solve_stacked(aug, n_slots)), axis=0)
    s_conj = aug[:, n_slots:start]
    if not terms:
        return logdet, s_conj, None, None
    sb = np.add.reduce(s_conj[:, :, None] * b[:, None], axis=0)  # s^H B = conj(B^H s)
    return logdet, s_conj, aug[:, start:], np.conjugate(sb, out=sb)


def _capacitance_solve(b: np.ndarray, v: np.ndarray, sigma2: float, terms: bool) -> tuple:
    """(log det Sigma_n, conj(s), conj(C), B^H s) from the q x q capacitance
    K_n = sigma^2 I_q + B_n^H B_n, for rank q < L.

    [K_n | B_n^H v_n^(1) ... B_n^H v_n^(K_g) | B_n^H] is one
    (q, q + K_g + L, N_k) array.  Its first q + K_g columns are B_n^H
    [B_n | v_n], taken row by row from the diagonal on; the Hermitian K_n's
    lower triangle is the conjugate of its upper one.  One elimination
    (``_solve_stacked``) gives K_n^{-1} B_n^H v_n and K_n^{-1} B_n^H, and
    with them (Sylvester's determinant identity and Woodbury's inverse,
    Sigma_n^{-1} = (I - B_n K_n^{-1} B_n^H) / sigma^2): log det Sigma_n =
    (L - q) log sigma^2 + log det K_n; B_n^H s_n = B_n^H Sigma_n^{-1} v_n =
    K_n^{-1} B_n^H v_n, the solved block itself; conj(C_n) =
    conj(B_n K_n^{-1}) = (K_n^{-1} B_n^H)^T, the transpose of the solved
    B_n^H block; and s_n = (v_n - B_n K_n^{-1} B_n^H v_n) / sigma^2.
    K_n >= sigma^2 I, so every pivot is still at least sigma^2.  Without
    ``terms`` the B_n^H block is left out, (q, q + K_g, N_k), and conj(C)
    and B^H s are None.
    """
    n_slots, rank, n_cols = b.shape
    start = rank + v.shape[1]  # first column of B_n^H in the elimination array
    aug = np.empty((rank, start + (n_slots if terms else 0), n_cols), dtype=complex)
    b_h = b.conj()
    rhs = np.concatenate((b, v), axis=1)  # [B_n | v_n^(1) ... v_n^(K_g)]
    for i in range(rank):
        np.add.reduce(b_h[:, i, None] * rhs[:, i:], axis=0, out=aug[i, i:start])
        np.conjugate(aug[:i, i], out=aug[i, :i])
    _diagonal(aug)[...] += sigma2
    if terms:
        aug[:, start:] = b_h.transpose(1, 0, 2)
    logdet = (n_slots - rank) * np.log(sigma2) + np.add.reduce(
        np.log(_solve_stacked(aug, rank)), axis=0
    )
    w = aug[:, rank:start]  # K_n^{-1} B_n^H v_n = B_n^H s_n, (q, K_g, N_k)
    s = np.add.reduce(b[:, :, None] * w, axis=1)
    np.subtract(v, s, out=s)
    s /= sigma2
    s_conj = np.conjugate(s, out=s)
    if not terms:
        return logdet, s_conj, None, None
    return logdet, s_conj, aug[:, start:].transpose(1, 0, 2), w.transpose(1, 0, 2)


def comm_state(pilot, users, terms: bool = True) -> CommState:
    """Evaluate the mixture observation statistics Sigma_n(Phi) and the metric
    for a group of users that share one factor and one noise level.

    The only place Sigma_n, or its capacitance, is eliminated.  One product
    Phi @ stacked (``GmmUserModel.stacked``) gives every B_n = Phi A_n as a
    contiguous (L, q, N_k) block and every Phi mu_n as (L, N_k); user g's
    mean terms are v_n^(g) = Phi m^(g) - Phi mu_n.  One elimination over all
    components (``_solve_stacked``) then gives log det Sigma_n and, in the
    conjugate form the gradient and the estimator read (``CommState``),
    s_n^(g) = Sigma_n^{-1} v_n^(g), C_n = Sigma_n^{-1} B_n and
    B_n^H s_n^(g) for the whole group.  It eliminates the smaller system, by
    shape alone: the conjugate L x L system conj(Sigma_n) when L <= q
    (``_observation_solve``), the q x q capacitance sigma^2 I + B_n^H B_n
    when q < L (``_capacitance_solve``); beta_n^(g) = Re v_n^(g)H s_n^(g)
    is formed after either.  A single user is a group of one.

    ``terms`` asks for the gradient's and the estimator's terms C_n and
    B_n^H s_n^(g).  Without them, as every caller that reads values alone
    calls it (``comm_mi_weighted``, the gradient at rho = 0), the L x L
    system drops its conj(B_n) columns and the capacitance system its
    B_n^H block, the state's ``c_conj`` and ``bh_s`` are None, and
    ``value``, ``log_mix``, ``log_omega`` and ``s_conj`` keep their bits.

    ``pilot`` may be a stack of P pilots (P, L, N_t).  Their products are
    folded into the component axis (column p N_k + n), so the elimination
    and the log-sum-exp run once over P N_k columns.  Each pilot's values
    equal those of its own call, since its product is a batched product of
    the same shape and every later step works column by column.
    """
    phi = pilot_entries(pilot, (2, 3))
    model = users[0]
    if phi.shape[-1] != model.n_tx:
        raise DimensionError("pilot antenna count must match the channel model")
    if any(m.stacked is not model.stacked or m.noise_std != model.noise_std for m in users):
        raise InvalidParameterError("a group's users must share one factor and one noise level")
    stack = phi[None] if phi.ndim == 2 else phi  # (P, L, N_t)
    (n_pilots, n_slots, _), n_users, rank = stack.shape, len(users), model.rank
    n_comp = model.n_components

    # fold the pilots into the component axis, column p N_k + n (a view for one pilot)
    product = (stack @ model.stacked).reshape(n_pilots, n_slots, rank + 1, n_comp)
    product = product.transpose(1, 2, 0, 3).reshape(n_slots, rank + 1, -1)
    b, phi_mu = product[:, :rank], product[:, rank]
    v = np.empty((n_slots, n_users, n_pilots * n_comp), dtype=complex)
    mixture_means = np.array([m.mixture_mean for m in users])
    np.subtract(
        (stack @ mixture_means.T).transpose(1, 2, 0)[..., None],  # (L, K_g, P, 1)
        phi_mu.reshape(n_slots, 1, n_pilots, n_comp),
        out=v.reshape(n_slots, n_users, n_pilots, n_comp),
    )
    solve = _capacitance_solve if rank < n_slots else _observation_solve
    logdet, s_conj, c_conj, bh_s = solve(b, v, model.noise_std**2, terms)
    beta = np.add.reduce((v * s_conj).real, axis=0)  # Re v^H s

    log_weights = np.array([m.log_weights for m in users])[:, None]
    log_mix = log_weights - beta.reshape(n_users, n_pilots, -1) - logdet.reshape(n_pilots, -1)
    top = log_mix.max(axis=2)
    log_omega = top + np.log(np.add.reduce(np.exp(log_mix - top[..., None]), axis=2))
    log_omega = log_omega.reshape(n_users, *phi.shape[:-2])  # (K_g,) for one pilot
    cnst = -n_slots * (2.0 * np.log(model.noise_std) + 1.0)
    value = -log_omega + cnst
    return CommState(value, log_mix.reshape(n_users, -1), log_omega, b, s_conj, c_conj, bh_s)


def comm_mi_weighted(pilot, objective: IsacObjective):
    """Preference-weighted sum of the per-user communication metrics; one
    value per pilot of a stack.

    A stack reaches ``comm_state`` in ``pieces``, one value-only call per
    piece and group, so its temporaries do not grow with the stack; each
    pilot's value is that of its own call.  A pilot's bytes are those of the
    largest broadcast products of a value-only elimination, 16 N_k L q
    max(min(L, q), K_g): L L q complex entries per column in
    ``_observation_solve``, L q K_g in ``_capacitance_solve``.  That makes 8
    pilots at the Pareto cloud's shape (N_k = 180, L = 4, q = 5, two users)
    and 16 at the capacity diagnostic's (N_k = 90); a piece's traced peak at
    the cloud's shape is then about 4 MB."""
    phi = pilot_entries(pilot, (2, 3))
    stack = phi[None] if phi.ndim == 2 else phi
    total = np.zeros(len(stack))
    n_slots = stack.shape[1]
    for weights, users in objective.groups:
        n_comp, rank = users[0].n_components, users[0].rank
        per_pilot = 16 * n_comp * n_slots * rank * max(min(n_slots, rank), len(users))
        for piece in pieces(len(stack), per_pilot):
            value = comm_state(stack[piece], users, terms=False).value  # (K_g, p)
            total[piece] += sum((weights * value.T).T)  # over the users in order
    return total if phi.ndim == 3 else total[0]


def sense_state(pilot, scene: SensingScene, formula: str = "approx") -> SenseState:
    """Gram-domain quantities shared by the sensing metric, its gradient and
    the detector, under the sensing formula ``formula`` ("approx" or "exact").

    mu_i^H mu_j factors into a receive-steering correlation times a
    pilot-domain inner product, so nothing of size N_r*L is ever formed.
    The steering rows, correlations and powers depend on the scene alone and
    are built once per scene (``SensingScene._sense_terms``).  A stack of
    pilots (P, L, N_t) takes one batched product per step.

    The only place the clutter weights are formed.  Both formulas solve
    (diag(nu) G + sigma^2 I) z = nu o b, with b = gram[1:, 0] and G the
    clutter Gram gram[1:, 1:] ("exact", one batched solve) or its diagonal
    ("approx"); row i of the system reads sigma^2 z_i = 0 for a source of
    zero power.  Then arg = 1 + nu_0 / sigma^2 (gram[0, 0] -
    sum_i Re(conj(b_i) z_i)), which for "exact" is 1 + x with x = nu_0 a the
    whitened target-to-interference ratio, a = w^H mu_0 the h0 variance of
    the detector's statistic (``evaluation.roc_curve``).
    An argument <= 0 raises ``ObjectiveDomainError`` with its value and, for
    a stack, the first failing pilot's index.  Only the approximate
    argument can fall there: the exact one is 1 + x with x >= 0.
    """
    one_of(formula, "formula", SENSING_FORMULAS)
    phi = pilot_entries(pilot, (2, 3))
    if phi.shape[-1] != scene.geometry.n_tx:
        raise DimensionError("pilot antenna count must match the scene geometry")
    a_tx, rx_corr, powers = scene._sense_terms
    u = a_tx @ phi.swapaxes(-1, -2)
    gram = rx_corr * (u.conj() @ u.swapaxes(-1, -2))
    sigma2 = scene.radar_noise_std**2

    norms = gram.diagonal(0, -2, -1).real
    cross = gram[..., 1:, 0]  # b_i = mu_i^H mu_0
    nu = powers[1:]
    if formula == "exact":
        system = nu[:, None] * gram[..., 1:, 1:] + sigma2 * np.eye(nu.size)
        z = np.linalg.solve(system, (nu * cross)[..., None])[..., 0]
    else:
        z = nu * cross / (sigma2 + nu * norms[..., 1:])
    clutter = np.add.reduce((cross.conj() * z).real, axis=-1)
    arg = 1.0 + powers[0] / sigma2 * (norms[..., 0] - clutter)
    first = int(np.argmax(arg <= 0.0)) if np.ndim(arg) else None
    value = float(arg if first is None else arg[first])
    if value <= 0.0:
        where = "" if first is None else f" of pilot {first}"
        raise ObjectiveDomainError(
            f"approximate sensing metric log argument{where} is {value:.6g} <= 0", value, first
        )
    return SenseState(u, gram, arg, z)


def sensing_mi(pilot, scene: SensingScene, formula: str = "approx"):
    """Sensing information log(1 + x) under ``formula``: "exact" solves the
    clutter-plus-noise system in full, "approx" (the large-array form, exact
    for zero or one clutter source) takes the clutter Gram as diagonal; one
    value per pilot of a stack."""
    return np.log(sense_state(pilot, scene, formula).arg)


def isac_objective(pilot, objective: IsacObjective):
    """rho-weighted scalarization of the communication metric and the sensing
    metric under the objective's formula; one value per pilot of a stack."""
    return objective.rho * comm_mi_weighted(pilot, objective) + (
        1.0 - objective.rho
    ) * sensing_mi(pilot, objective.scene, objective.sensing_formula)
