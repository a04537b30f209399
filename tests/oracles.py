"""Dense reference implementations that the tests compare the package against.

The package never forms the N_r*L-long response vectors mu_i, their
covariances or frame-level observations: it works on the Gram-domain
factorization (``metrics.sense_state``) and on scalar projections
(``evaluation.roc_curve``), and its mixture kernel works on
the low-rank covariance factor (``metrics.comm_state``).  The functions here
build those dense objects directly, so each factored kernel has an
independent check; a dense oracle takes the component covariances R_n
from the stack its test built the model from, or integrates them afresh
(``region_covariances``), never from the factor under test.  Two closed
forms that only the tests use live here too:
a single steering vector and the detection-error exponent decomposition.
So do the one-user views of the package's metric and its one gradient
routine, ``gradients.isac_value_and_grad``, that the tests check, the
multi-value trade-off sweep the tests run through ``optimize_pgd``, the
estimator's mixture weights, recorded from its own chunks, the 64-QAM
level rule the link simulation decided with before it decided in place,
the channel sampler as it wrote each component's draws before it
formed them in a component-ordered buffer, the gradient check as it
evaluated one stack of eight stencil points per pilot entry, and the
detection trials as they were drawn, every interference then every target,
before the ROC kept only the target-absent statistics.
"""

from dataclasses import replace

import numpy as np
import pytest
from scipy.special import logsumexp

import isacpilot as ip
from isacpilot.channel import _region_covariances, _steering_rows, pilot_entries
from isacpilot.config import build_geometry
from isacpilot.gradients import isac_value_and_grad
from isacpilot.metrics import comm_state, sense_state


def steering_vector(n: int, spacing_wavelengths: float, theta_deg: float) -> np.ndarray:
    """ULA response toward ``theta_deg``: entry m is exp(j*2*pi*d*m*sin(theta))."""
    if n < 1:
        raise ip.InvalidParameterError("steering vector length must be >= 1")
    return _steering_rows(n, spacing_wavelengths, theta_deg)


def sense_kl_and_g(pilot, scene) -> tuple[float, float]:
    """Detection-error exponent decomposition: (KL divergence, saturation factor g).

    g = x / (1 + x) with x the whitened target-to-interference ratio; the KL
    divergence of the whitened hypothesis pair is log(1 + x) - g.
    """
    x = np.expm1(ip.sensing_mi(pilot, scene, "exact"))
    g = x / (1.0 + x)
    return float(np.log1p(x) - g), float(g)


def sensing_mu(pilot, geometry, theta_deg: float) -> np.ndarray:
    """Response vector for angle ``theta_deg``: a_rx kron (Phi a_tx), length N_r*L.

    Column-major stacking of the L x N_r layout; norms and inner products
    match any other consistent stacking.
    """
    phi = pilot_entries(pilot)
    a_t = steering_vector(geometry.n_tx, geometry.spacing_tx, theta_deg)
    a_r = steering_vector(geometry.n_rx, geometry.spacing_rx, theta_deg)
    return np.kron(a_r, phi @ a_t)


def sensing_vectors(pilot, scene) -> list:
    """Materialized response vectors mu_i of the scene, target first."""
    angles = [scene.target_angle, *scene.clutter_angles]
    return [sensing_mu(pilot, scene.geometry, t) for t in angles]


def interference_covariance(mus, scene) -> np.ndarray:
    """Dense clutter-plus-noise covariance sigma^2 I + sum_i nu_i mu_i mu_i^H."""
    dim = mus[0].size
    cov = scene.radar_noise_std**2 * np.eye(dim, dtype=complex)
    for power, mu in zip(scene.clutter_powers, mus[1:]):
        cov += power * np.outer(mu, mu.conj())
    return cov


def sense_kl_direct(pilot, scene) -> float:
    """KL divergence evaluated from the dense whitened signal covariance.

    Forms A = W R_dd W with W the inverse square root of the clutter-plus-noise
    covariance and evaluates logdet(I + A) - tr(I - (I + A)^{-1}).  Dense
    cross-validation path for ``sense_kl_and_g``.
    """
    mus = sensing_vectors(pilot, scene)
    vals, vecs = np.linalg.eigh(interference_covariance(mus, scene))
    w_half = (vecs * (1.0 / np.sqrt(vals))) @ vecs.conj().T
    m0 = w_half @ mus[0]
    a_mat = scene.target_power * np.outer(m0, m0.conj())
    eye = np.eye(m0.size, dtype=complex)
    sign, logdet = np.linalg.slogdet(eye + a_mat)
    trace_term = np.trace(eye - np.linalg.inv(eye + a_mat)).real
    return float(sign.real * logdet - trace_term)


def comm_mi_lower_bound_gaussian(pilot, covariances, trace_mse: float) -> float:
    """Estimation-error lower bound on the communication metric (single
    Gaussian prior, whose (1, N_t, N_t) covariance stack is ``covariances``)."""
    if len(covariances) != 1:
        raise ValueError("closed-form prior entropy requires a single component")
    n_tx = covariances.shape[1]
    _, logdet = np.linalg.slogdet(covariances[0])
    return float(logdet - n_tx * np.log(trace_mse / n_tx))


def simulate_radar_frame(pilot, scene, hypothesis: str, rng: np.random.Generator) -> np.ndarray:
    """One vectorized backscatter snapshot of length N_r * L.

    Target and clutter amplitudes are complex Gaussian with the configured
    powers (Swerling-I); the target term is present only under "H1".
    """
    if hypothesis not in ("H0", "H1"):
        raise ip.InvalidParameterError("hypothesis must be 'H0' or 'H1'")
    mus = sensing_vectors(pilot, scene)
    y = np.zeros(mus[0].size, dtype=complex)
    if hypothesis == "H1":
        y += np.sqrt(scene.target_power) * ip.complex_normal(rng) * mus[0]
    for power, mu in zip(scene.clutter_powers, mus[1:]):
        y += np.sqrt(power) * ip.complex_normal(rng) * mu
    y += scene.radar_noise_std * ip.complex_normal(rng, (y.size,))
    return y


def detector_statistic(y: np.ndarray, pilot, scene) -> float:
    """Whitened matched quadratic form |mu_0^H (R_cc + sigma^2 I)^{-1} y|^2.

    Likelihood-ratio statistic for a Gaussian rank-one target in known
    colored interference; the interference covariance comes from the true
    scene (clairvoyant detector).
    """
    mus = sensing_vectors(pilot, scene)
    w = np.linalg.solve(interference_covariance(mus, scene), mus[0])
    return float(np.abs(np.vdot(w, y)) ** 2)


def all_draws_first(pilot, scene, n_trials: int, rng: np.random.Generator):
    """Paired detector statistics (t0, t1) of ``n_trials`` trials, every draw
    held at once, then combined: the statistics ``evaluation.roc_curve``
    draws in blocks, keeping only t0.  Under h0 w^H y is CN(0, a),
    a = w^H mu_0, read from the exact sensing state, so each trial's
    interference is one standard complex normal scaled by sqrt(a); the
    targets are drawn after all of them."""
    _, gram, _, z = sense_state(pilot, scene, "exact")
    a = (gram[0, 0].real - np.vdot(gram[1:, 0], z).real) / scene.radar_noise_std**2
    interf = np.sqrt(a) * ip.complex_normal(rng, (n_trials,))
    gamma_t = ip.complex_normal(rng, (n_trials,))
    target = np.sqrt(scene.target_power) * gamma_t * a
    return np.abs(interf) ** 2, np.abs(interf + target) ** 2


def nearest_level_index(x: np.ndarray) -> np.ndarray:
    """Index 0..7 of the 64-QAM amplitude level nearest each entry of ``x``:
    rint((x sqrt(42) + 7) / 2), clipped to [0, 7]."""
    scaled = np.rint((x * np.sqrt(42.0) + 7.0) / 2.0)
    return np.clip(scaled, 0, 7).astype(int)


def comm_mi_user(pilot, model):
    """Surrogate mutual information between the pilot observation and one
    user's channel; one value per pilot of a stack."""
    return comm_state(pilot, [model]).value[0]


def sweep_traces(objective, rho_values, init, config) -> list:
    """``(rho, trace)`` per trade-off value, in the order given: one
    ``optimize_pgd`` ascent from ``init`` per value, with ``objective``'s rho
    replaced by it, as the ``sweep`` task runs each of its units."""
    return [
        (float(rho), ip.optimize_pgd(init, replace(objective, rho=float(rho)), config))
        for rho in rho_values
    ]


def mmse_with_weights(observations, pilot, model) -> tuple[np.ndarray, np.ndarray]:
    """(estimates, mixture weights) of one ``gmm_mmse_batch`` call: the
    estimates it returns, shape (T, N_t), and the responsibilities it mixed
    them with, shape (T, N_k), recorded from each
    ``evaluation._mixture_weights`` call and stacked in trial order.  The
    package keeps no (T, N_k) array."""
    chunk_weights = []
    mixture_weights = ip.evaluation._mixture_weights

    def recording(*args):
        chunk_weights.append(mixture_weights(*args))
        return chunk_weights[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ip.evaluation, "_mixture_weights", recording)
        est = ip.gmm_mmse_batch(observations, pilot, model)
    return est, np.concatenate(chunk_weights)


def per_component_sampler(model, n_samples: int, rng: np.random.Generator) -> np.ndarray:
    """``sample_channels`` as it wrote each component's draws: the same
    stream and the same per-component BLAS products, each product added to
    its mean in a fresh array and assigned through the component's sample
    indices."""
    blocks = np.ascontiguousarray(model.factor.transpose(2, 0, 1))  # (N_k, N_t, q)
    indices = rng.choice(model.n_components, size=n_samples, p=model.weights)
    z = ip.complex_normal(rng, (n_samples, model.n_tx))
    order = np.argsort(indices, kind="stable")
    counts = np.bincount(indices, minlength=model.n_components)
    ends = np.cumsum(counts)
    out = np.empty((n_samples, model.n_tx), dtype=complex)
    for comp in np.flatnonzero(counts):
        rows = slice(ends[comp] - counts[comp], ends[comp])
        out[order[rows]] = model.means[comp] + z[rows, -model.rank :] @ blocks[comp].T
    return out


def per_entry_finite_diff_check(objective_fn, gradient_fn, pilot, step: float = 1e-6) -> float:
    """``finite_diff_check`` as it evaluated its stencil: one (8, L, N_t)
    stack of the eight stencil points of each pilot entry per
    ``objective_fn`` call, the entries in row-major order."""
    phi = pilot_entries(pilot).copy()
    g_entries = np.asarray(gradient_fn(phi))
    stencil = ip.gradients.STENCIL
    worst = 0.0
    n_slots, n_tx = phi.shape
    for i in range(n_slots):
        for j in range(n_tx):
            h = step * (1.0 + abs(phi[i, j]))
            stack = np.repeat(phi[None], stencil.size, axis=0)
            stack[:, i, j] += h * stencil
            values = np.asarray(objective_fn(stack), dtype=float)
            for f, analytic in (
                (values[:4].tolist(), 2.0 * g_entries[i, j].real),
                (values[4:].tolist(), 2.0 * g_entries[i, j].imag),
            ):
                numeric = (-f[0] + 8 * f[1] - 8 * f[2] + f[3]) / (12.0 * h)
                err = abs(analytic - numeric) / max(1e-12, abs(numeric))
                worst = max(worst, err)
    return worst


def comm_grad(pilot, model) -> np.ndarray:
    """d comm_mi_user / d Phi^* from ``isac_value_and_grad``: the user alone at
    rho = 1, beside a clutter-free scene, whose approximate sensing
    log-argument is at least 1, so the sensing value it also evaluates stays
    in its domain."""
    geometry = ip.ArrayGeometry(n_tx=model.n_tx, n_rx=1)
    scene = ip.SensingScene(0.0, 1.0, (), 1.0, geometry)
    return isac_value_and_grad(pilot, ip.IsacObjective(1.0, [1.0], [model], scene))[3]


def sense_grad(pilot, scene, formula="approx") -> np.ndarray:
    """d sensing_mi / d Phi^* under ``formula`` from ``isac_value_and_grad``:
    rho = 0 with one stand-in user (one zero-mean, identity-covariance
    component)."""
    n_tx = scene.geometry.n_tx
    model = ip.GmmUserModel([1.0], np.zeros((1, n_tx)), np.eye(n_tx)[None], 1.0)
    objective = ip.IsacObjective(0.0, [1.0], [model], scene, formula)
    return isac_value_and_grad(pilot, objective)[3]


def region_covariances(geometry, n_components: int, quadrature_points: int = 8) -> np.ndarray:
    """The R_n stack of a ``build_user_models`` prior, integrated afresh over
    the equal partition of [-90, 90] degrees."""
    edges = np.linspace(-90.0, 90.0, n_components + 1)
    return _region_covariances(geometry, edges[:-1], edges[1:], quadrature_points)


def scenario_covariances(scenario) -> np.ndarray:
    """The R_n stack of the prior ``config.build_users`` builds for ``scenario``."""
    n_comp, points = scenario["n_components"], scenario["quadrature_points"]
    return region_covariances(build_geometry(scenario), n_comp, points)


def pooled_covariance(users, user_weights, covariances) -> np.ndarray:
    """The channel covariance pooled over ``users`` with ``user_weights``,
    each user's sum_n alpha_n (R_n + mu_n mu_n^H) - m m^H formed densely
    from the R_n stack ``covariances`` its prior was built from."""
    pooled = 0.0
    for weight, model in zip(user_weights, users, strict=True):
        cov = np.einsum("k,knm->nm", model.weights, covariances)
        cov += np.einsum("k,kn,km->nm", model.weights, model.means, model.means.conj())
        mean = model.weights @ model.means
        pooled = pooled + weight * (cov - np.outer(mean, mean.conj()))
    return pooled


def dense_comm(phi, model, covariances):
    """(value, gradient) from the full covariances R_n (``covariances``, the
    stack ``model`` was built from): einsum for Phi R_n, two solves."""
    n_slots = phi.shape[0]
    sigma2 = model.noise_std**2
    mu_bar = (model.weights @ model.means)[None, :] - model.means
    phi_r = np.einsum("ln,knm->klm", phi, covariances)
    sigma = phi_r @ phi.conj().T
    sigma = 0.5 * (sigma + sigma.conj().transpose(0, 2, 1)) + sigma2 * np.eye(n_slots)
    logdet = np.linalg.slogdet(sigma)[1]
    v = mu_bar @ phi.T
    s = np.linalg.solve(sigma, v[..., None])[..., 0]
    beta = np.einsum("kl,kl->k", v.conj(), s).real
    with np.errstate(divide="ignore"):  # zero weights
        log_mix = np.log(model.weights) - beta - logdet
    log_omega = logsumexp(log_mix)
    value = -log_omega - n_slots * (2.0 * np.log(model.noise_std) + 1.0)
    mix = np.exp(log_mix - log_omega)
    x = np.linalg.solve(sigma, phi_r)
    y = np.einsum("kl,klm->km", s.conj(), phi_r)
    term = x + s[:, :, None] * (mu_bar.conj() - y)[:, None, :]
    return float(value), np.einsum("k,klm->lm", mix, term)
