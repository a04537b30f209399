"""Downstream pilot evaluation: radar detection, channel estimation, link SER
and the training-aware capacity bound.

Trials are paired: standard draws and experiment substreams depend only on
the caller's generator, never on the pilot under test, so pilots can be
compared on identical randomness.  A detection trial draws its clutter and
noise as one interference normal: under h0 the whitened statistic w^H y is
CN(0, a) with a = w^H (R_cc + sigma^2 I) w = w^H mu_0, so the trial's
target-absent and target-present statistics share that one draw, and two
pilots at one seed share it too, each scaled by its own sqrt(a).

The working set is bounded by the data each table needs, not by its
temporaries: an ROC holds 16 B per trial (each trial's statistic pair in its
own interference entry), the link simulation decides its symbols in runs of
whole blocks, and the estimator keeps no (trials, components) array beyond
one chunk.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import GmmUserModel, PilotMatrix, SensingScene, pilot_entries, sample_channels
from .errors import (
    DimensionError,
    SingularMatrixError,
    count,
    finite_array,
    number,
    simplex,
)
from .metrics import WEIGHT_CUT, comm_state, sense_state
from .optimizer import project_stiefel
from .streams import complex_normal

QAM_LEVELS = (2.0 * np.arange(8) - 7.0) / np.sqrt(42.0)
CONSTELLATION = (QAM_LEVELS[:, None] + 1j * QAM_LEVELS[None, :]).ravel()
# Detection trials are drawn in blocks of this many, so the draws alive at a
# time take 256 KB whatever the trial count; only the interference, one
# complex normal scaled by sqrt(a) per trial, grows with it, 16 B per trial,
# which the paired statistics then reuse.  Consecutive draws continue one
# stream, so the statistics and the generator state do not depend on the
# block size.  The same length bounds the runs of ``roc_curve``'s swap.
DETECTION_BLOCK = 16_384
# The link simulation forms, draws noise for and decides its symbols in runs
# of whole blocks of about this many symbols (all users), so its temporaries
# take well under 1 MB at any symbol count; the noise continues one stream,
# so the error counts and the generator state do not depend on the run.
_SER_RUN = 16_384


@dataclass(eq=False)
class RocCurve:
    """Empirical operating points sorted by false-alarm probability."""

    p_fa: np.ndarray
    p_d: np.ndarray
    thresholds: np.ndarray
    low_resolution: np.ndarray  # True where p_fa is below 1/n_trials


def simulate_detection_trials(
    pilot, scene: SensingScene, n_trials: int, rng: np.random.Generator
) -> np.ndarray:
    """Paired detector statistics, shape (2, ``n_trials``): row 0 the
    target-absent (h0) and row 1 the target-present (h1) statistics, so
    ``t0, t1 = simulate_detection_trials(...)`` unpacks them.

    Works on the scalar projection w^H y of the whitened filter
    w = (R_cc + sigma^2 I)^{-1} mu_0, whose distribution is identical to the
    frame-level statistic.  Under h0 it is CN(0, a) with
    a = sigma^2 ||w||^2 + sum_i nu_i |w^H mu_i|^2 = w^H mu_0 (Swerling I),
    read from the exact sensing state, whose ``arg`` is 1 + nu_0 a, as
    (gram[0, 0] - Re b^H z) / sigma^2 with b = gram[1:, 0] and z its clutter
    weights.  So each trial draws one standard complex normal g for all its
    clutter and noise and one gamma for the target: t0 = a |g|^2 and
    t1 = |sqrt(a) g + sqrt(nu_0) a gamma|^2, the interference of all trials
    drawn before any target.  The t0 and t1 of a trial share its g.  The
    standard draws are pilot-independent, so equal seeds give paired
    comparisons across pilots: two pilots share each trial's g, each scaled
    by its own sqrt(a).  Trial i's pair (t0, t1) is written into the 16 B of
    its own complex interference entry once that entry has been read, and
    the result is a strided view of that buffer, so the statistics take
    16 B per trial and both rows keep the buffer alive.
    """
    count(n_trials, "n_trials")
    # one pilot: a stack raises here, before any draw
    _, gram, _, z = sense_state(pilot_entries(pilot), scene, "exact")
    a = (gram[0, 0].real - np.vdot(gram[1:, 0], z).real) / scene.radar_noise_std**2  # w^H mu_0
    # draws come in blocks of DETECTION_BLOCK trials, all interference, then
    # all targets; each block is scaled into the interference buffer or
    # folded into the statistics as soon as it is drawn
    blocks = [
        slice(start, min(start + DETECTION_BLOCK, n_trials))
        for start in range(0, n_trials, DETECTION_BLOCK)
    ]
    interf = np.empty(n_trials, dtype=complex)
    for block in blocks:
        np.multiply(complex_normal(rng, (block.stop - block.start,)), np.sqrt(a), out=interf[block])
    # entry i's two floats take (t0_i, t1_i), written only after the
    # block's interference has been read into |interf|^2 and interf + target
    pairs = interf.view(float).reshape(n_trials, 2)
    for block in blocks:
        target = complex_normal(rng, (block.stop - block.start,))
        target *= np.sqrt(scene.target_power)
        target *= a
        np.add(interf[block], target, out=target)
        np.square(np.abs(interf[block]), out=pairs[block, 0])
        np.square(np.abs(target), out=pairs[block, 1])
    return pairs.T


def roc_curve(
    pilot,
    scene: SensingScene,
    n_trials: int,
    p_fa_grid,
    rng: np.random.Generator,
) -> RocCurve:
    """Empirical ROC: thresholds from target-absent order statistics.

    Detection probabilities are estimated against those thresholds from the
    target-present statistics; grid points below the 1/n_trials resolution
    are flagged.  Both need only the multiset of each statistic, so the
    pairs (``simulate_detection_trials``) are regrouped in their own buffer:
    the h1 slots of its first half swap with the h0 slots of its second
    half, in runs of ``DETECTION_BLOCK`` trials, which leaves every h0
    statistic in the buffer's first ``n_trials`` floats and every h1 in the
    rest.  The thresholds (``_roc_thresholds``) then partition the h0
    statistics in place, so no copy of either is made.
    """
    count(n_trials, "n_trials", 1000)  # fewer leave the tails unusable
    p_fa = np.sort(finite_array(p_fa_grid, "false-alarm targets", 1, "must lie in (0, 1]"))
    flat = simulate_detection_trials(pilot, scene, n_trials, rng).T.reshape(-1)  # a view
    half = n_trials // 2
    h1_first = flat[1 : 2 * half : 2]  # h1 of trials 0 .. half - 1
    h0_last = flat[2 * (n_trials - half) :: 2]  # h0 of the last half trials
    for start in range(0, half, DETECTION_BLOCK):
        run = slice(start, start + DETECTION_BLOCK)
        swap = h1_first[run].copy()
        h1_first[run] = h0_last[run]
        h0_last[run] = swap
    t0, t1 = flat[:n_trials], flat[n_trials:]
    thresholds = _roc_thresholds(t0, p_fa)
    p_d = np.array([np.count_nonzero(t1 > thr) / n_trials for thr in thresholds])
    return RocCurve(
        p_fa=p_fa,
        p_d=p_d,
        thresholds=thresholds,
        low_resolution=p_fa < 1.0 / n_trials,
    )


def _roc_thresholds(t0: np.ndarray, p_fa: np.ndarray) -> np.ndarray:
    """``np.quantile(t0, 1 - p_fa)`` bit for bit, partitioning ``t0`` in place.

    The linear rule of ``np.quantile``: virtual index v = (n - 1) q, the
    order statistics at floor(v) and the next index (at most n - 1), and
    its two-sided interpolation with weight v - floor(v).  At v = n - 1
    ``np.quantile`` weighs its two equal neighbours by n instead of 0,
    which gives the same bits.  The order statistics come from successive
    partitions of t0's shrinking upper tail, lowest index first, so each
    partition scans only what lies above the last; an index the last
    partition already placed is skipped.  t0 stays a permutation of its
    input.  (``np.unique`` would import ``numpy.ma`` on its first call,
    which costs a fresh process more than the thresholds do.)
    """
    n = t0.size
    virtual = (n - 1) * (1.0 - p_fa)
    lo = np.floor(virtual).astype(np.intp)
    hi = np.minimum(lo + 1, n - 1)
    gamma = virtual - lo
    start = 0
    for k in np.sort(np.concatenate((lo, hi))).tolist():
        if k >= start:
            t0[start:].partition(k - start)
            start = k + 1
    below, above = t0[lo], t0[hi]
    diff = above - below
    thresholds = below + diff * gamma
    np.subtract(above, diff * (1.0 - gamma), out=thresholds, where=gamma >= 0.5)
    return thresholds


def gmm_mmse_batch(observations: np.ndarray, pilot, model: GmmUserModel) -> np.ndarray:
    """Mixture-MMSE channel estimates for a batch of observations.

    Returns the estimates, shape (T, N_t); the (trials x N_k) mixture
    weights (responsibilities) live only one chunk at a time.
    Everything per component comes from the one elimination of
    ``comm_state``: B_n = Phi A_n, C_n = Sigma_n^{-1} B_n, s_n =
    Sigma_n^{-1} v_n with v_n = Phi m - Phi mu_n (m the mixture mean), and
    log_mix_n = log alpha_n - beta_n - log det Sigma_n.  Each observation is
    centred on the mixture mean, y' = y - Phi m, and extended to
    z = [y'; 1].  Since y - Phi mu_n = y' + v_n, the log weight is
    log_mix_n - z^H M_n z with the Hermitian (L+1) x (L+1)
    M_n = [[Sigma_n^{-1}, s_n], [s_n^H, 0]], and B_n C_n^H =
    I - sigma^2 Sigma_n^{-1} gives Sigma_n^{-1} = (I - B_n C_n^H) / sigma^2,
    so no second factorization of Sigma_n is needed.  The estimate is
    x(y) = sum_n w_n(y) (b_n + G_n y') with the gain
    G_n = A_n C_n^H = R_n Phi^H Sigma_n^{-1} and the offset
    b_n = mu_n + G_n v_n = mu_n + A_n (B_n^H s_n).  The state's solves are
    conjugated (``CommState``): C_n^H is the transpose of its conj(C_n), a
    view, B_n^H s_n is read as stored (on the q x q elimination it is the
    solved K_n^{-1} B_n^H v_n, since B_n^H Sigma_n^{-1} = K_n^{-1} B_n^H),
    and s_n is written into M_n with the one conjugate of its conj(s_n).
    z^H M_n z is linear in
    the (L+1)^2 real features of z: |z_i|^2, and the real and imaginary
    parts of conj(z_i) z_j for i < j.  So per chunk of trials one real
    (trials x (L+1)^2) product of the features with the stacked
    coefficients of the M_n gives every quadratic form, trials-major, and
    one real product of the (trials x N_k) weights with the stacked real
    and imaginary parts of [G_n | b_n] gives each trial's mixed gain, which
    is applied to its z.  The weights are computed in the log domain and
    normalized; weights below e^WEIGHT_CUT times a trial's largest are
    exactly 0.  Trials are processed in chunks (``_chunk_trials``) to bound
    the weights and the mixed gains.  A non-finite observation raises
    ``NonFiniteError``, a ``NumericError``, naming its entry.
    """
    phi = pilot_entries(pilot)
    # a non-finite entry would turn every weight of its trial into NaN
    obs = np.atleast_2d(finite_array(observations, "observations", (1, 2), dtype=complex))
    if obs.shape[1] != phi.shape[0]:
        raise DimensionError("observation length must equal the pilot length")
    state = comm_state(pilot, [model])
    n_trials, n_slots = obs.shape
    n_comp, n_tx = model.n_components, model.n_tx
    b = state.b.transpose(2, 0, 1)  # B_n (N_k, L, q)
    c_h = state.c_conj.transpose(2, 1, 0)  # C_n^H (N_k, q, L)
    quad = np.zeros((n_comp, n_slots + 1, n_slots + 1), dtype=complex)  # M_n: diagonal and upper triangle
    sigma_inv = quad[:, :n_slots, :n_slots]  # Sigma_n^{-1}, written in place
    np.subtract(np.eye(n_slots), b @ c_h, out=sigma_inv)
    sigma_inv *= 1.0 / model.noise_std**2  # the bits of the division by sigma^2
    np.conjugate(state.s_conj[:, 0].T[:, :, None], out=quad[:, :n_slots, n_slots:])  # s_n
    # the coefficients of the features: M_ii, then 2 Re M_ij and -2 Im M_ij for i < j
    pairs = np.triu_indices(n_slots + 1, 1)  # (i, j), i < j, read by every chunk
    diagonal = np.diagonal(quad, axis1=1, axis2=2).real
    upper = 2.0 * np.ascontiguousarray(quad[:, pairs[0], pairs[1]]).conj()
    quad_coef = np.concatenate((diagonal, upper.view(float)), axis=1).T  # ((L+1)^2, N_k)
    factor = model.factor.transpose(2, 0, 1)  # A_n (N_k, N_t, q)
    gain = factor @ c_h  # G_n (N_k, N_t, L)
    bh_s = state.bh_s[0].T[:, :, None]  # B_n^H s_n (N_k, q, 1)
    offset = model.means[:, :, None] + factor @ bh_s  # b_n (N_k, N_t, 1)
    gain_rows = np.concatenate((gain, offset), axis=2).view(float).reshape(n_comp, -1)
    extended = np.ones((n_trials, n_slots + 1), dtype=complex)  # rows [y'^T, 1]
    np.subtract(obs, phi @ model.mixture_mean, out=extended[:, :n_slots])

    est = np.empty((n_trials, n_tx), dtype=complex)
    chunk = _chunk_trials(n_comp, n_tx, n_slots)
    for start in range(0, n_trials, chunk):
        trials = slice(start, start + chunk)
        est[trials] = _mmse_chunk(extended[trials], pairs, quad_coef, gain_rows, state.log_mix[0])
    return est


def _chunk_trials(n_comp: int, n_tx: int, n_slots: int) -> int:
    """Trials per chunk of ``gmm_mmse_batch``, 347 at the Monte Carlo NMSE
    shape.  The rule bounds the chunk's log weights and weights (N_k reals
    per trial) and its mixed gains (N_t (L + 1) complex entries per trial),
    about 0.5 and 0.6 MB at that shape.  Larger chunks are slower: at
    1,500 trials per chunk a call at that shape takes about 1.5 times as
    long."""
    return max(1, 1_000_000 // (max(n_comp, n_slots + 1) * max(n_tx, n_slots)))


def _mmse_chunk(extended, pairs, quad_coef, gain_rows, log_prior):
    """Estimates of one chunk of trials for ``gmm_mmse_batch``: its rows
    [y'^T, 1] times the gains mixed with the chunk's ``_mixture_weights``,
    which are freed with its other intermediates."""
    w = _mixture_weights(extended, pairs, quad_coef, log_prior)
    mixed = (w @ gain_rows).view(complex).reshape(w.shape[0], -1, extended.shape[1])
    return np.einsum("tnl,tl->tn", mixed, extended)


def _mixture_weights(extended, pairs, quad_coef, log_prior):
    """Mixture weights (responsibilities) of one chunk of trials, shape
    (trials, N_k): exp(log_prior - z^H M_n z) normalized per trial, 0 below
    e^WEIGHT_CUT times the trial's largest; ``pairs`` are the (i, j)
    feature indices, i < j."""
    # features |z_i|^2, then Re and Im of conj(z_i) z_j for i < j, interleaved
    i, j = pairs
    upper = np.take(extended, i, axis=1).conj() * np.take(extended, j, axis=1)  # C order: real view
    features = np.concatenate((extended.real**2 + extended.imag**2, upper.view(float)), axis=1)
    log_w = log_prior - features @ quad_coef  # (trials, N_k)
    log_w -= log_w.max(axis=1, keepdims=True)
    w = np.exp(log_w, where=log_w > WEIGHT_CUT, out=np.zeros_like(log_w))
    w /= w.sum(axis=1, keepdims=True)
    return w


def _user_pilot(pilot, users: list) -> np.ndarray:
    """The entries of ``pilot``, checked before any draw against ``users``,
    which must be nonempty and each take the pilot's antenna count."""
    phi = pilot_entries(pilot)
    if not users:
        raise DimensionError("users: must be nonempty")
    if any(model.n_tx != phi.shape[1] for model in users):
        raise DimensionError("pilot antenna count must match the channel model")
    return phi


def _estimate_draws(phi: np.ndarray, model: GmmUserModel, n: int, rng: np.random.Generator):
    """(channels, estimates) of ``n`` trials: channels drawn from ``model``,
    then the pilot-phase noise, both from ``rng``; each channel is observed
    through ``phi`` and estimated by ``gmm_mmse_batch``."""
    channels = sample_channels(model, n, rng)
    noise = complex_normal(rng, (n, phi.shape[0]))
    noise *= model.noise_std
    return channels, gmm_mmse_batch(channels @ phi.T + noise, phi, model)


def effective_training_snr(error_variance: float) -> float:
    """Effective data-phase SNR 2/(1 + err) - 1 under the estimation
    orthogonality identity, clipped at 0; equals 1 for perfect estimation."""
    number(error_variance, "error variance", "must be nonnegative")
    return max(2.0 / (1.0 + error_variance) - 1.0, 0.0)


def c_worst_estimate(
    pilot,
    users: list,
    block_len: int,
    trials: int,
    rng: np.random.Generator,
) -> float:
    """Monte Carlo training-aware capacity lower bound, natural-log units.

    Runs mixture-MMSE channel estimation per trial, pools the normalized
    error variance into an effective SNR 2/(1 + err) - 1 (clipped at 0), and
    averages the block-discounted log-determinant over per-trial estimates
    normalized to unit average entry power.  Trials whose estimates are all
    zero are skipped.
    """
    count(trials, "trials")
    count(block_len, "block_len")
    phi = _user_pilot(pilot, users)
    n_slots, n_tx = phi.shape
    n_users = len(users)

    estimates = np.empty((trials, n_users, n_tx), dtype=complex)
    err_power = 0.0
    ch_power = 0.0
    for k, model in enumerate(users):
        channels, est = _estimate_draws(phi, model, trials, rng)
        estimates[:, k, :] = est
        err_power += float(np.sum(np.abs(channels - est) ** 2))
        ch_power += float(np.sum(np.abs(channels) ** 2))
    eff_snr = effective_training_snr(err_power / ch_power)

    prefactor = block_len / (block_len + n_slots)
    power = np.mean(np.abs(estimates.reshape(trials, -1)) ** 2, axis=1)
    live = ~(power <= 0)  # trials whose estimates are all zero add nothing
    h_bar = estimates[live] / np.sqrt(power[live])[:, None, None]
    gram = np.eye(n_users) + eff_snr * (h_bar.conj() @ h_bar.transpose(0, 2, 1)) / n_tx
    logdet = np.linalg.slogdet(gram)[1]
    # summed one by one in trial order, as a running total would be
    total = np.cumsum(logdet)[-1] if logdet.size else 0.0
    return float(prefactor * total / trials)


def nmse_experiment(
    pilot, users: list, n_trials: int, rng: np.random.Generator
) -> tuple[np.ndarray, float]:
    """Normalized channel-estimation error per user and pooled over users.

    Channel and noise substreams are spawned per user in fixed order and do
    not depend on the pilot, so different pilots see identical trials.
    """
    count(n_trials, "n_trials")
    phi = _user_pilot(pilot, users)
    per_user = np.empty(len(users))
    streams = rng.spawn(len(users))
    for k, (model, stream) in enumerate(zip(users, streams)):
        channels, est = _estimate_draws(phi, model, n_trials, stream)
        norms = np.sum(np.abs(channels) ** 2, axis=1)
        valid = norms > 0
        errors = np.sum(np.abs(channels - est) ** 2, axis=1)
        per_user[k] = float(np.mean(errors[valid] / norms[valid]))
    return per_user, float(per_user.mean())


def _qam_labels(symbols: np.ndarray, inv_gains) -> np.ndarray:
    """Labels 8 i + q, as floats, of the ``CONSTELLATION`` points nearest
    ``symbols`` times ``inv_gains``, decided in place on the float view of
    the C-contiguous complex ``symbols``, whose entries it overwrites;
    ``inv_gains`` broadcasts against that view, one (re, im) pair per symbol.

    Each part x goes to level rint(x sqrt(42) / 2 + 3.5), clipped to
    [0, 7]: halving is exact, so these are the bits of
    rint((x sqrt(42) + 7) / 2), and x times fl(1/g) has the bits of the
    complex division by a real gain g.
    """
    levels = symbols.view(float).reshape(*symbols.shape, 2)
    levels *= inv_gains
    levels *= np.sqrt(42.0) / 2.0
    levels += 3.5
    np.rint(levels, out=levels)
    np.clip(levels, 0.0, 7.0, out=levels)
    labels = 8.0 * levels[..., 0]
    labels += levels[..., 1]
    return labels


def zf_precode(channel_estimates: np.ndarray) -> np.ndarray:
    """Zero-forcing precoders with unit-norm columns, for one or a stack of blocks.

    Each K x N_t block H of ``channel_estimates`` (shape (..., K, N_t)) gives
    W = H^H (H H^H)^{-1}, scaled so each user's column has unit transmit
    power; H W is then diagonal with positive entries.  A block whose Gram
    is numerically rank deficient raises, naming the block.
    """
    h = finite_array(channel_estimates, "channel estimates", (2, None), dtype=complex)
    if h.shape[-2] > h.shape[-1]:
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
    unit symbol energy and unit-norm precoder columns.  Each SNR point sends
    ceil(``n_symbols`` / ``block_len``) whole blocks, so the per-user symbol
    count it simulates, and divides by, is ``n_symbols`` rounded up to a
    multiple of ``block_len``.  A point's symbols are drawn in one call, then
    formed (one batched product), noised and decided in place
    (``_qam_labels``) in runs of whole blocks (``_SER_RUN``).
    """
    count(n_symbols, "n_symbols", 1000)  # per SNR point
    count(block_len, "block_len")
    snr_grid_db = finite_array(snr_grid_db, "SNR grid", 1)  # a NaN or -inf point would read SER 1.0
    phi = _user_pilot(pilot, users)
    n_users = len(users)
    n_blocks = int(np.ceil(n_symbols / block_len))

    chan_rng, data_rng = rng.spawn(2)
    h_true = np.empty((n_blocks, n_users, phi.shape[1]), dtype=complex)
    h_est = np.empty_like(h_true)
    for k, model in enumerate(users):
        h_true[:, k, :], h_est[:, k, :] = _estimate_draws(phi, model, n_blocks, chan_rng)

    w = zf_precode(h_est)
    gains = np.einsum("bkn,bnk->bk", h_est, w).real
    effective = np.einsum("bkn,bnj->bkj", h_true, w)
    inv_gains = (1.0 / gains)[:, :, None, None]  # scales each (re, im) pair

    run = max(1, _SER_RUN // (n_users * block_len))  # whole blocks per run
    ser = np.empty(snr_grid_db.size)
    for i, snr_db in enumerate(snr_grid_db):
        noise_std = 10.0 ** (-snr_db / 20.0)
        sent = data_rng.integers(0, 64, size=(n_blocks, n_users, block_len))
        errors = 0
        for start in range(0, n_blocks, run):
            blocks = slice(start, start + run)
            # the noise scaled in place, then the signal added into it (b + a has the bits of a + b)
            received = complex_normal(data_rng, sent[blocks].shape)
            received *= noise_std
            received += effective[blocks] @ CONSTELLATION[sent[blocks]]
            decided = _qam_labels(received, inv_gains[blocks])
            errors += int(np.count_nonzero(decided != sent[blocks]))
        ser[i] = errors / sent.size
    return ser


def dft_pilot(n_slots: int, n_tx: int) -> PilotMatrix:
    """Pilot rows drawn from the unitary DFT matrix (benchmark design)."""
    count(n_slots, "n_slots")
    count(n_tx, "n_tx")
    grid = np.outer(np.arange(n_slots), np.arange(n_tx))
    return PilotMatrix(np.exp(-2j * np.pi * grid / n_tx) / np.sqrt(n_tx))


def eigen_pilot(n_slots: int, users: list, user_weights) -> PilotMatrix:
    """Strongest eigenvectors of the covariance pooled over ``users`` with
    ``user_weights`` (benchmark design).

    A user's channel covariance sum_n alpha_n (R_n + mu_n mu_n^H) - m m^H
    is read from its stacked factor (``GmmUserModel.stacked``): with every
    column j N_k + n scaled by sqrt(alpha_n), X X^H = sum_n alpha_n (A_n A_n^H
    + mu_n mu_n^H).
    """
    user_weights = simplex(user_weights, "user weights", len(users))
    count(n_slots, "n_slots")
    n_tx = users[0].n_tx
    if any(model.n_tx != n_tx for model in users):
        raise DimensionError("users must share one antenna count")
    pooled = np.zeros((n_tx, n_tx), dtype=complex)
    for weight, model in zip(user_weights, users):
        x = model.stacked * np.tile(np.sqrt(model.weights), model.rank + 1)
        mean = model.mixture_mean
        pooled += weight * (x @ x.conj().T - np.outer(mean, mean.conj()))
    _, vecs = np.linalg.eigh(pooled)
    top = vecs[:, ::-1][:, :n_slots]
    return project_stiefel(top.conj().T)
