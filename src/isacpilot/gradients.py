"""Closed-form conjugate (Wirtinger) gradients of the pilot objectives.

Convention: a gradient G is d f / d Phi^*, so the derivative of f along a
perturbation E of the pilot is 2 Re <G, E>. The expressions below were
re-derived from d log det Sigma(Phi) and d beta(Phi) and are validated
against finite differences rather than transcribed, which resolves the
shape ambiguities of the published three-term form.

The communication gradient is built from the factor-form state of
``comm_state``. With R_n = A_n A_n^H, B_n = Phi A_n, the mean term
v_n = Phi mu_bar_n (mu_bar_n = m - mu_n, the mixture mean m minus the
component mean), s_n = Sigma_n^{-1} v_n and C_n = Sigma_n^{-1} B_n, the
derivative of log det Sigma_n + beta_n is

    Sigma_n^{-1} Phi R_n + s_n mu_bar_n^H - s_n s_n^H Phi R_n
        = (C_n - s_n s_n^H B_n) A_n^H + s_n m^H - s_n mu_n^H.

The model keeps A_n q-major with the component means after it, as one
(N_t, (q + 1) N_k) array ``GmmUserModel.stacked`` (column j N_k + n holds
column j of A_n, column q N_k + n holds mu_n); the centred means mu_bar_n
are not stored. So the mixture-weighted sum over components is one product
E stacked^H, where E holds D_n = mix_n (C_n - s_n s_n^H B_n) and -mix_n s_n
for every n, laid out (L, q + 1, N_k) in the same column order, plus one
(L, K_g) x (K_g, N_t) product for the s_n m^H terms; nothing of size
(N_k, L, N_t) is formed and D is not reordered. ``_comm_grad`` writes
conj(E) directly, conj(D_n) = mix_n (conj(C_n) - conj(s_n) (B_n^H s_n)^T),
from the state's conjugate solves (``metrics.CommState`` keeps conj(s_n),
conj(C_n) and B_n^H s_n), and takes E stacked^H as
conj(conj(E) stacked^T), so it conjugates no array of the state.
``comm_state`` gets B_n and Phi mu_n from one product Phi @ stacked in the
same way, and forms v_n^(g) = Phi m^(g) - Phi mu_n from them.

The users of a scenario share one prior (``channel.build_user_models``): the
same read-only stacked factor and means, with their own weights and noise
level. Users with the same stacked array and an equal noise level form a
group (``IsacObjective.groups``, formed with the objective), and one
``comm_state`` call serves a group: its Sigma_n, B_n, C_n and log det
Sigma_n are shared, and each user g has its own s_n^(g) and mixture
weights. ``_comm_grad`` sums the group's rho w_g-weighted D_n^(g) =
mix_n^(g) (C_n - s_n^(g) s_n^(g)H B_n) into E before its one product, as
broadcast products summed over one axis.

The state keeps the component axis last: B_n, conj(C_n) and conj(s_n)
are stacked as (L, q, N_k), (L, q, N_k) and (L, K_g, N_k) arrays, so the
per-component algebra is elementwise NumPy work over N_k-long rows rather
than N_k small matrix calls. ``comm_state`` gets every conj(s_n^(g)),
conj(C_n), log det Sigma_n and B_n^H s_n^(g) from one Gaussian elimination
run over all components at once (``metrics._solve_stacked``), of the
smaller of two systems, chosen by shape alone. When L <= q it is the
conjugate (L, L + K_g + q, N_k) system [conj(Sigma_n) | conj(v_n^(1)) ...
conj(v_n^(K_g)) | conj(B_n)], whose solved columns are conj(s_n) and
conj(C_n) (conjugation commutes exactly with the elimination's products,
sums and real scalings), and B_n^H s_n is one product of the solved
conj(s_n) with B_n, conjugated. When q < L it is the (q, q + K_g + L, N_k)
system [K_n | B_n^H v_n^(1) ... B_n^H v_n^(K_g) | B_n^H] with the
capacitance K_n = sigma^2 I_q + B_n^H B_n: conj(C_n) = conj(B_n K_n^{-1})
= (K_n^{-1} B_n^H)^T is the transpose of the solved B_n^H block,
B_n^H s_n = B_n^H Sigma_n^{-1} v_n = K_n^{-1} B_n^H v_n is the other
solved block itself, so no product forms it, and s_n =
(v_n - B_n K_n^{-1} B_n^H v_n) / sigma^2. Neither elimination pivots,
because Sigma_n and K_n are sigma^2 I plus a Gram matrix: every pivot is
at least sigma^2, and elimination without pivoting is stable on such
matrices. A pivot that is not positive and finite raises ``NumericError``.

A_n keeps the eigenvectors of R_n whose eigenvalues exceed
``channel.FACTOR_RANK_CUT`` (1e-15) times the model's largest eigenvalue.
A region covariance is a sum of ``quadrature_points`` steering outer
products, so its rank is at most that number, and on the shipped scenarios
only about 5 of 16 eigenvalues lie above roundoff. The dropped eigenvalues
are themselves roundoff: removing them changes R_n by less than N_t x 1e-15
of its largest eigenvalue, the size of the error eigh already makes, so
metric, gradient and estimates move only at the 1e-15 relative level. A
coarser cut (1e-12) drops one more column (q = 4) but moves the metric by
about 2e-14 relative at a fixed pilot, and an ascent amplifies that to about
1e-11 after 50 iterations of the shipped sweep, against 8e-13 at the
roundoff cut; hence the cut sits at roundoff.

The sensing gradient is a pull-back from the Gram domain of
``metrics.sense_state``, under the objective's sensing formula. With
u_i = Phi a_i (transmit steering row a_i, ``SenseState.u``) and the
receive-steering correlation r_ij, gram[i, j] = mu_i^H mu_j =
r_ij u_i^H u_j, so d gram[i, j] / d Phi^* = r_ij u_j a_i^H. A metric that
reads Phi through the Gram alone, with coefficients
S[i, j] = d f / d gram[i, j], has the gradient
sum_ij S[i, j] r_ij u_j a_i^H = u^T W^T conj(A_tx) with W = S o rx_corr:
one (Q+1) x (Q+1) matrix pulled back by two small products. Either
metric is log arg with arg = 1 + nu_0 / sigma^2 (gram[0, 0] - b^H K^{-1} b),
b = gram[1:, 0] and K = G + diag(sigma^2 / nu) over the live sources,
where G is the clutter Gram gram[1:, 1:] ("exact", the whitened filter's
log(1 + x)) or its diagonal ("approx"). The clutter weights z = K^{-1} b
(``SenseState.z``) give d(b^H K^{-1} b) = z^H db + db^H z - z^H dK z, so
S, in units of nu_0 / (sigma^2 arg), is 1 at [0, 0], -z_i at [0, i],
-conj(z_i) at [i, 0], and on the clutter block conj(z_i) z_j at [i, j]
for "exact" or |z_i|^2 at [i, i] alone for "approx" (whose K holds only
the diagonal of G), zero elsewhere. A source of zero power has z_i = 0 and
so no coefficient. ``_sense_grad`` forms the target term N_r u_0 a_0^H
(r_00 = N_r) as its own outer product and pulls back the clutter block only
when the scene has clutter, so a clutter-free scene takes the one product.
"""

from __future__ import annotations

import numpy as np

from .channel import SensingScene, pilot_entries
from .errors import DimensionError, NumericError, number
from .metrics import (
    WEIGHT_CUT, CommState, IsacObjective, SenseState, comm_state, pieces, sense_state
)

# fourth-order central stencil points in units of h, along the real
# direction, then along the imaginary one
STENCIL = np.array([2.0, 1.0, -1.0, -2.0, 2.0j, 1.0j, -1.0j, -2.0j])


def _comm_grad(state: CommState, users: list, coefs: np.ndarray) -> np.ndarray:
    """sum_g coefs[g] d value_g / d Phi^* over the users g of one ``comm_state`` group."""
    n_slots, rank, n_comp = state.b.shape
    rel = state.log_mix - state.log_omega[:, None]
    mix = np.exp(rel, where=rel > WEIGHT_CUT, out=np.zeros_like(rel))  # no subnormal weight
    mix *= coefs[:, None]  # (K_g, N_k)
    ms = mix * state.s_conj  # conj(mix_n s_n), (L, K_g, N_k)
    # conj(E) = [conj(D) | -sum_g conj(ms_g)] in the stacked array's column
    # order; E stacked^H is taken as conj(conj(E) stacked^T), so no cached
    # array is copied
    e = np.empty((n_slots, rank + 1, n_comp), dtype=complex)
    np.multiply(np.add.reduce(mix, axis=0), state.c_conj, out=e[:, :rank])
    e[:, :rank] -= np.add.reduce(ms[:, :, None] * state.bh_s, axis=1)
    np.negative(np.add.reduce(ms, axis=1), out=e[:, rank])
    grad = e.reshape(n_slots, -1) @ users[0].stacked.T
    # mean terms: v_n^(g) = Phi (m^(g) - mu_n); the mu_n part is in the product
    mixture_means = np.array([m.mixture_mean for m in users])
    grad += np.add.reduce(ms, axis=2) @ mixture_means
    return grad.conj()


def _sense_grad(state: SenseState, scene: SensingScene, formula: str) -> np.ndarray:
    """d sensing_mi / d Phi^* under ``formula``, the one ``state`` was formed
    under: the target term plus, with clutter, one pull-back
    u^T W^T conj(A_tx) of the Gram-domain coefficients W."""
    a_tx, rx_corr, powers = scene._sense_terms
    u, z = state.u, state.z

    numer = scene.geometry.n_rx * np.outer(u[0], a_tx[0].conj())
    if z.size:
        coefs = np.zeros(rx_corr.shape, dtype=complex)
        coefs[0, 1:], coefs[1:, 0] = -z, -z.conj()
        coefs[1:, 1:] = np.outer(z.conj(), z) if formula == "exact" else np.diag(np.abs(z) ** 2)
        numer += u.T @ ((coefs * rx_corr).T @ a_tx.conj())
    return (powers[0] / scene.radar_noise_std**2 / state.arg) * numer


def isac_value_and_grad(pilot, objective: IsacObjective):
    """(objective, weighted comm MI, sense MI, gradient entries) in one pass.

    Evaluates ``comm_state`` once per group of users that share a prior and a
    noise level (``IsacObjective.groups``) and ``sense_state`` once, and
    builds each gradient from the same state as its value. It is the one
    gradient routine: the optimizer calls it every iteration, and the
    ``gradcheck`` task checks it with one-user objectives at rho = 1 and
    rho = 0 for the communication and sensing gradients. The sensing metric
    and its gradient follow the objective's ``sensing_formula``. At rho = 0
    the communication states are formed without the gradient's terms. Both
    metrics are evaluated at every rho, so a scene whose approximate sensing
    log-argument is <= 0 raises ``ObjectiveDomainError`` even at rho = 1.
    """
    phi = pilot_entries(pilot)
    comm_total = 0.0
    grad = np.zeros_like(phi)
    for weights, users in objective.groups:
        state = comm_state(pilot, users, terms=objective.rho > 0.0)
        comm_total += sum(weights * state.value)
        if objective.rho > 0.0:
            grad += _comm_grad(state, users, objective.rho * weights)

    scene, formula = objective.scene, objective.sensing_formula
    s_state = sense_state(pilot, scene, formula)
    sense_val = float(np.log(s_state.arg))
    if objective.rho < 1.0:
        grad += (1.0 - objective.rho) * _sense_grad(s_state, scene, formula)
    value = objective.rho * comm_total + (1.0 - objective.rho) * sense_val
    return value, float(comm_total), sense_val, grad


def finite_diff_check(objective_fn, gradient_fn, pilot, step: float = 1e-6) -> float:
    """Max relative error between analytic and central-difference derivatives.

    Every real and imaginary pilot coordinate is perturbed; the analytic
    directional derivative along E is 2 Re <G, E>.  The numeric one is the
    fourth-order central stencil at +-h and +-2h.  Each pilot entry has
    eight stencil points (four along the real direction, then four along
    the imaginary one), in entry order, and the 8 L N_t points of a check
    are handed to ``objective_fn`` in (P, L, N_t) stacks, which it maps to
    their P values, as the metrics of ``metrics`` do.  The stacks are
    ``metrics.pieces`` of 16 L N_t bytes per point, so the stencil array,
    which would grow as (L N_t)^2 in one stack, stays bounded (the metrics
    bound their own working sets): one stack of 192 points at
    ``gradcheck_small``'s L = 3, N_t = 8.  Returns max |analytic - numeric| /
    max(1e-12, |numeric|); a stencil value or an analytic derivative that
    is not finite raises ``NumericError`` naming the first such pilot
    entry, since a NaN error would otherwise drop out of the max.
    """
    number(step, "step", "must be positive")
    phi = pilot_entries(pilot).copy()
    g_entries = np.asarray(gradient_fn(phi))

    n_points = STENCIL.size * phi.size
    entry = np.arange(n_points) // STENCIL.size  # flat index of each point's pilot entry
    h = step * (1.0 + np.abs(phi.reshape(-1)))
    shifts = h[entry] * np.tile(STENCIL, phi.size)
    values = np.empty(n_points)
    for points in pieces(n_points, 16 * phi.size):
        stack = np.repeat(phi[None], points.stop - points.start, axis=0)
        stack.reshape(len(stack), -1)[np.arange(len(stack)), entry[points]] += shifts[points]
        stacked = np.asarray(objective_fn(stack), dtype=float)
        if stacked.shape != (len(stack),):
            n = len(stack)
            raise DimensionError(f"objective_fn must map an ({n}, L, N_t) stack to {n} values")
        values[points] = stacked
    f = values.reshape(phi.size, 2, 4)  # [entry, real or imaginary, stencil point]
    bad = ~(np.isfinite(f).all(axis=(1, 2)) & np.isfinite(g_entries.reshape(-1)))
    if bad.any():
        i, j = np.unravel_index(np.argmax(bad), phi.shape)
        problem = "a stencil value or the analytic derivative is not finite"
        raise NumericError(f"pilot entry ({i}, {j}): {problem}")
    numeric = (-f[..., 0] + 8 * f[..., 1] - 8 * f[..., 2] + f[..., 3]) / (12.0 * h[:, None])
    analytic = 2.0 * np.stack((g_entries.real.reshape(-1), g_entries.imag.reshape(-1)), axis=1)
    return float(np.max(np.abs(analytic - numeric) / np.maximum(1e-12, np.abs(numeric))))
