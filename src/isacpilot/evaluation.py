"""Downstream pilot evaluation: radar detection, channel estimation, link SER.

Trials are paired: target-absent and target-present statistics share the
same clutter and noise draws, and experiment substreams depend only on the
caller's generator, never on the pilot under test, so pilots can be compared
on identical randomness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import (
    GmmUserModel,
    PilotMatrix,
    SensingScene,
    pilot_entries,
    sample_channels,
)
from .errors import (
    DimensionError,
    InvalidParameterError,
    NumericError,
    SingularMatrixError,
)
from .metrics import _detector_scalars, comm_state
from .optimizer import project_stiefel
from .streams import complex_normal

QAM_LEVELS = (2.0 * np.arange(8) - 7.0) / np.sqrt(42.0)
CONSTELLATION = (QAM_LEVELS[:, None] + 1j * QAM_LEVELS[None, :]).ravel()
# Mixture weights more than this far below a trial's largest, in the log
# domain, are set to exactly 0.  e^-700 is about 1e-304, just above the
# subnormal range (below 2.2e-308, from about e^-708): such a weight is
# hundreds of orders below the estimate's roundoff, but as a subnormal
# operand it takes a slow microcode path in every product it enters, which
# made the estimator's products up to about ten times slower.  Normalized by
# at most N_k, a kept weight stays normal for any N_k below about 4,000.
WEIGHT_CUT = -700.0


@dataclass(eq=False)
class RocCurve:
    """Empirical operating points sorted by false-alarm probability."""

    p_fa: np.ndarray
    p_d: np.ndarray
    thresholds: np.ndarray
    low_resolution: np.ndarray  # True where p_fa is below 1/n_trials


def simulate_detection_trials(
    pilot, scene: SensingScene, n_trials: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Paired detector statistics (h0, h1) for ``n_trials`` trials.

    Works on the scalar projection w^H y, whose distribution is identical to
    the frame-level statistic; standard draws are pilot-independent so equal
    seeds give paired comparisons across pilots.
    """
    if n_trials < 1:
        raise InvalidParameterError("n_trials must be >= 1")
    proj, w_norm2 = _detector_scalars(pilot, scene)
    # each draw is folded into its result as soon as it is drawn, in the
    # order clutter, noise, target, and updated in place, so only the current
    # draw and the running sum are alive at a time (same values as combining
    # all draws at the end)
    noise_scale = np.sqrt(scene.radar_noise_std**2 * w_norm2)
    if scene.n_clutter:
        clutter = complex_normal(rng, (n_trials, scene.n_clutter))
        interf = clutter @ (np.sqrt(scene.clutter_powers) * proj[1:])
        del clutter
        noise = complex_normal(rng, (n_trials,))
        noise *= noise_scale
        interf += noise
        del noise
    else:
        interf = complex_normal(rng, (n_trials,))
        interf *= noise_scale
    target = complex_normal(rng, (n_trials,))
    target *= np.sqrt(scene.target_power)
    target *= proj[0]
    t0 = np.abs(interf)
    t0 **= 2
    interf += target
    del target
    t1 = np.abs(interf)
    t1 **= 2
    return t0, t1


def roc_curve(
    pilot,
    scene: SensingScene,
    n_trials: int,
    p_fa_grid,
    rng: np.random.Generator,
) -> RocCurve:
    """Empirical ROC: thresholds from target-absent order statistics.

    Detection probabilities are estimated against those thresholds from the
    paired target-present statistics; grid points below the 1/n_trials
    resolution are flagged.
    """
    if n_trials < 1000:
        raise InvalidParameterError("at least 1e3 trials are needed for usable tails")
    p_fa = np.sort(np.asarray(p_fa_grid, dtype=float))
    if np.any((p_fa <= 0) | (p_fa > 1)):
        raise InvalidParameterError("false-alarm targets must lie in (0, 1]")
    t0, t1 = simulate_detection_trials(pilot, scene, n_trials, rng)
    thresholds = np.quantile(t0, 1.0 - p_fa)
    p_d = np.array([np.mean(t1 > thr) for thr in thresholds])
    return RocCurve(
        p_fa=p_fa,
        p_d=p_d,
        thresholds=thresholds,
        low_resolution=p_fa < 1.0 / n_trials,
    )


def gmm_mmse_batch(
    observations: np.ndarray, pilot, model: GmmUserModel
) -> tuple[np.ndarray, np.ndarray]:
    """Mixture-MMSE channel estimates for a batch of observations.

    Returns (estimates of shape (T, N_t), responsibilities of shape (T, N_k)).
    Sigma_n, log det Sigma_n and C_n = Sigma_n^{-1} B_n come from
    ``comm_state``; one batched Cholesky Sigma_n = L_n L_n^H gives the
    whitening W_n = L_n^{-1}.  Every C_n^H and then every W_n are stacked
    into one (N_k (q + L), L) matrix, so per chunk of trials one product
    gives each component's correction coefficients
    C_n^H (y - Phi mu_n) = B_n^H Sigma_n^{-1} (y - Phi mu_n) and its whitened
    residual W_n (y - Phi mu_n), whose squared norm is the quadratic form of
    the log weight.  The posterior mean mu_n + A_n (coefficients), weighted
    and summed over components, takes two more products: the stacked factor
    with the weighted coefficients and the means with the weights.
    Responsibilities are computed in the log domain and normalized; weights
    below e^WEIGHT_CUT times a trial's largest are exactly 0.  Trials are
    processed in chunks to bound the (N_k (q + L), chunk) intermediate.
    A non-finite observation raises ``NumericError`` naming its row.
    """
    phi = pilot_entries(pilot)
    obs = np.atleast_2d(np.asarray(observations, dtype=complex))
    if obs.shape[1] != phi.shape[0]:
        raise DimensionError("observation length must equal the pilot length")
    finite = np.isfinite(obs).all(axis=1)
    if not finite.all():  # checked first: it would turn every weight of its trial into NaN
        raise NumericError(f"observation row {int(np.argmin(finite))} has a NaN or infinite entry")
    state = comm_state(phi, [model])
    n_slots, n_comp = phi.shape[0], model.n_components
    whiten = np.linalg.inv(np.linalg.cholesky(state.sigma.transpose(2, 0, 1)))
    rows = (state.c.conj().transpose(2, 1, 0), whiten)  # C_n^H (N_k, q, L), W_n (N_k, L, L)
    phi_mu = (model.means @ phi.T)[:, :, None]
    stacked = np.concatenate([m.reshape(-1, n_slots) for m in rows])
    offset = np.concatenate([(m @ phi_mu).reshape(-1, 1) for m in rows])  # the rows times Phi mu_n

    n_trials = obs.shape[0]
    log_prior = model.log_weights - state.logdet
    est = np.empty((n_trials, model.n_tx), dtype=complex)
    resp = np.empty((n_trials, n_comp))
    chunk = max(1, int(2_000_000 // (n_comp * max(model.n_tx, n_slots))))
    for start in range(0, n_trials, chunk):
        trials = slice(start, start + chunk)
        est[trials], resp[trials] = _mmse_chunk(obs[trials], stacked, offset, log_prior, model)
    return est, resp


def _mmse_chunk(block, stacked, offset, log_prior, model: GmmUserModel):
    """(estimates, responsibilities) of one chunk of trials for
    ``gmm_mmse_batch``; its intermediates are freed on return."""
    n_comp, n_trials = model.n_components, block.shape[0]
    proj = stacked @ block.T
    proj -= offset
    coefs, white = np.split(proj, [model.factor.shape[1]])
    white = white.view(float).reshape(n_comp, -1, 2 * n_trials)  # real, imaginary side by side
    np.square(white, out=white)
    quad = white.sum(axis=1)
    log_w = log_prior[:, None] - (quad[:, 0::2] + quad[:, 1::2])
    log_w -= log_w.max(axis=0)
    w = np.exp(log_w, where=log_w > WEIGHT_CUT, out=np.zeros_like(log_w))
    w /= w.sum(axis=0)
    weighted = coefs.reshape(n_comp, -1, n_trials)  # a view: this scales coefs in place
    weighted *= w[:, None, :]
    return (model.factor @ coefs + model.means.T @ w).T, w.T


def nmse_experiment(
    pilot, users: list, n_trials: int, rng: np.random.Generator
) -> tuple[np.ndarray, float]:
    """Normalized channel-estimation error per user and pooled over users.

    Channel and noise substreams are spawned per user in fixed order and do
    not depend on the pilot, so different pilots see identical trials.
    """
    if n_trials < 1:
        raise InvalidParameterError("n_trials must be >= 1")
    phi = pilot_entries(pilot)
    per_user = np.empty(len(users))
    streams = rng.spawn(len(users))
    for k, (model, stream) in enumerate(zip(users, streams)):
        channels = sample_channels(model, n_trials, stream)
        noise = model.noise_std * complex_normal(stream, (n_trials, phi.shape[0]))
        obs = channels @ phi.T + noise
        est, _ = gmm_mmse_batch(obs, phi, model)
        norms = np.sum(np.abs(channels) ** 2, axis=1)
        valid = norms > 0
        errors = np.sum(np.abs(channels - est) ** 2, axis=1)
        per_user[k] = float(np.mean(errors[valid] / norms[valid]))
    return per_user, float(per_user.mean())


def _nearest_level_index(x: np.ndarray) -> np.ndarray:
    scaled = np.rint((x * np.sqrt(42.0) + 7.0) / 2.0)
    return np.clip(scaled, 0, 7).astype(int)


def zf_precode(channel_estimates: np.ndarray) -> np.ndarray:
    """Zero-forcing precoders with unit-norm columns, for one or a stack of blocks.

    Each K x N_t block H of ``channel_estimates`` (shape (..., K, N_t)) gives
    W = H^H (H H^H)^{-1}, scaled so each user's column has unit transmit
    power; H W is then diagonal with positive entries.  A block whose Gram
    is numerically rank deficient raises, naming the block.
    """
    h = np.asarray(channel_estimates, dtype=complex)
    if h.ndim < 2 or h.shape[-2] > h.shape[-1]:
        raise DimensionError("estimate matrix must be K x N_t with K <= N_t")
    gram = np.einsum("...kn,...jn->...kj", h, h.conj())
    eigvals = np.linalg.eigvalsh(gram)
    singular = eigvals[..., 0] <= 1e-12 * np.maximum(eigvals[..., -1], 1.0)
    if np.any(singular):
        block = np.unravel_index(np.argmax(singular), singular.shape)
        where = f" in block {', '.join(str(int(i)) for i in block)}" if block else ""
        raise SingularMatrixError(f"channel estimate matrix is rank deficient{where}")
    w = np.linalg.solve(gram, h).conj().swapaxes(-1, -2)
    w /= np.sqrt(np.einsum("...nk,...nk->...k", w.conj(), w).real)[..., None, :]
    return w


def ser_experiment(
    pilot,
    users: list,
    snr_grid_db,
    n_symbols: int,
    block_len: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Symbol error rate of the estimate-then-ZF-precode link per SNR point.

    Per block: draw true channels, estimate them from the pilot phase,
    precode with the estimates, send 64-QAM symbols through the true
    channels, and hard-decide after dividing by the estimated effective
    gain.  SNR sets the data-phase noise variance as 10^(-snr/10) against
    unit symbol energy and unit-norm precoder columns; ``n_symbols`` counts
    per-user symbols per SNR point.
    """
    if n_symbols < 1000:
        raise InvalidParameterError("at least 1e3 symbols are needed per SNR point")
    if block_len < 1:
        raise InvalidParameterError("block_len must be >= 1")
    snr_grid_db = np.asarray(snr_grid_db, dtype=float)
    phi = pilot_entries(pilot)
    n_users = len(users)
    n_blocks = int(np.ceil(n_symbols / block_len))

    chan_rng, data_rng = rng.spawn(2)
    h_true = np.empty((n_blocks, n_users, phi.shape[1]), dtype=complex)
    h_est = np.empty_like(h_true)
    for k, model in enumerate(users):
        channels = sample_channels(model, n_blocks, chan_rng)
        noise = model.noise_std * complex_normal(chan_rng, (n_blocks, phi.shape[0]))
        est, _ = gmm_mmse_batch(channels @ phi.T + noise, phi, model)
        h_true[:, k, :] = channels
        h_est[:, k, :] = est

    w = zf_precode(h_est)
    gains = np.einsum("bkn,bnk->bk", h_est, w).real
    effective = np.einsum("bkn,bnj->bkj", h_true, w)

    ser = np.empty(snr_grid_db.size)
    for i, snr_db in enumerate(snr_grid_db):
        noise_std = 10.0 ** (-snr_db / 20.0)
        sent = data_rng.integers(0, 64, size=(n_blocks, n_users, block_len))
        symbols = CONSTELLATION[sent]
        received = np.einsum("bkj,bjm->bkm", effective, symbols)
        received += noise_std * complex_normal(data_rng, received.shape)
        equalized = received / gains[:, :, None]
        decided = 8 * _nearest_level_index(equalized.real) + _nearest_level_index(equalized.imag)
        ser[i] = float(np.mean(decided != sent))
    return ser


def dft_pilot(n_slots: int, n_tx: int) -> PilotMatrix:
    """Pilot rows drawn from the unitary DFT matrix (benchmark design)."""
    if n_slots >= n_tx:
        raise DimensionError("pilot length must be strictly below the antenna count")
    grid = np.outer(np.arange(n_slots), np.arange(n_tx))
    return PilotMatrix(np.exp(-2j * np.pi * grid / n_tx) / np.sqrt(n_tx))


def eigen_pilot(n_slots: int, users: list, user_weights=None) -> PilotMatrix:
    """Strongest eigenvectors of the pooled channel covariance (benchmark design)."""
    n_tx = users[0].n_tx
    if n_slots >= n_tx:
        raise DimensionError("pilot length must be strictly below the antenna count")
    if user_weights is None:
        user_weights = np.full(len(users), 1.0 / len(users))
    pooled = np.zeros((n_tx, n_tx), dtype=complex)
    for weight, model in zip(user_weights, users):
        cov = np.einsum("k,knm->nm", model.weights, model.covariances)
        cov += np.einsum("k,kn,km->nm", model.weights, model.means, model.means.conj())
        mean = model.weights @ model.means
        cov -= np.outer(mean, mean.conj())
        pooled += weight * cov
    _, vecs = np.linalg.eigh(pooled)
    top = vecs[:, ::-1][:, :n_slots]
    return project_stiefel(top.conj().T)
