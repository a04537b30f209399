"""Array geometry, steering vectors, GMM channel priors and channel sampling.

Angles are degrees at every public boundary; angular integrals are carried
out in radians.  The complex Gaussian convention is CN(mu, R) with variance
R/2 on the real and imaginary parts, so a unit-variance complex scalar has
variance 1/2 per component.
"""

from __future__ import annotations

import copy
from dataclasses import InitVar, dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import DimensionError, InvalidParameterError
from .errors import count, finite_array, number, one_of, simplex
from .streams import complex_normal

ORTHONORMALITY_TOL = 1e-8
MEAN_POLICIES = ("steering", "zero")
# Covariance eigenvalues at or below this fraction of a model's largest one are
# roundoff; the low-rank factor drops their eigenvectors.
FACTOR_RANK_CUT = 1e-15


@dataclass(frozen=True)
class ArrayGeometry:
    """Uniform linear transmit/receive arrays; spacings in wavelengths."""

    n_tx: int
    n_rx: int
    spacing_tx: float = 0.5
    spacing_rx: float = 0.5

    def __post_init__(self):
        count(self.n_tx, "n_tx")
        count(self.n_rx, "n_rx")
        number(self.spacing_tx, "spacing_tx", "must be positive")
        number(self.spacing_rx, "spacing_rx", "must be positive")


def _steering_rows(n: int, spacing_wavelengths: float, angles_deg) -> np.ndarray:
    """Steering vectors toward every angle of ``angles_deg``, stacked on a new last axis."""
    m = np.arange(n)
    phase = 2.0 * np.pi * spacing_wavelengths * m * np.sin(np.deg2rad(angles_deg))[..., None]
    return np.exp(1j * phase)


def laplacian_weights(mean_aoa_deg: float, spread_deg: float, grid_deg: np.ndarray) -> np.ndarray:
    """Laplacian angular profile sampled on ``grid_deg``, renormalized to sum 1."""
    number(mean_aoa_deg, "mean angle")
    number(spread_deg, "azimuth spread", "must be positive")
    grid = finite_array(grid_deg, "angle grid", 1)
    # the density's 1 / (sqrt(2) spread) factor cancels in the renormalization
    w = np.exp(-np.sqrt(2.0) * np.abs(grid - mean_aoa_deg) / spread_deg)
    total = w.sum()
    if not total > 0.0:  # e.g. a spread far narrower than the grid's distance to the mean
        raise InvalidParameterError(
            f"azimuth spread: {spread_deg:g} leaves every weight 0 on the angle grid"
        )
    return w / total


def _region_covariances(
    geometry: ArrayGeometry, lo_deg: np.ndarray, hi_deg: np.ndarray, quadrature_points: int
) -> np.ndarray:
    """Midpoint-rule integrals of the transmit steering outer product over every
    region [lo_deg[k], hi_deg[k]], in one batched product.

    Integration is in radians, so every diagonal entry equals the region
    width in radians (steering entries have unit modulus).
    """
    count(quadrature_points, "quadrature_points")
    step = (hi_deg - lo_deg) / quadrature_points
    centers = lo_deg[:, None] + (np.arange(quadrature_points) + 0.5) * step[:, None]
    a = _steering_rows(geometry.n_tx, geometry.spacing_tx, centers)  # (K, q, N_t)
    # in place: N_k-sized temporaries would raise the process's peak memory
    cov = a.transpose(0, 2, 1) @ a.conj()
    cov *= np.deg2rad(step)[:, None, None]
    cov += cov.conj().transpose(0, 2, 1)
    cov *= 0.5
    return cov


@dataclass(eq=False)
class GmmUserModel:
    """Per-user Gaussian-mixture channel prior plus its pilot-phase noise level.

    One batched eigendecomposition of the covariances, taken at construction,
    validates them and yields the low-rank square roots A_n, with
    A_n A_n^H = R_n up to the dropped roundoff eigenvalues
    (``FACTOR_RANK_CUT``); q (``rank``) is the largest numerical rank over
    the components (at least 1, at most N_t).  They are kept q-major, with
    the component means after them, as the (N_t, (q + 1) N_k) array
    ``stacked``: column j*N_k + n holds column j of A_n for j < q, and
    column q*N_k + n holds mu_n.  So one product Phi @ stacked, reshaped to
    (L, q + 1, N_k), gives every B_n = Phi A_n and every Phi mu_n
    (``metrics.comm_state``).  The covariances are a constructor input
    only: once checked and factored they are dropped, so a model holds
    ``means`` and ``stacked``, read-only copies that every model on one
    prior in a process can share (``build_user_models``); only the weights
    and the noise level are the user's own, with the terms derived from
    them: ``mixture_mean`` (N_t,) and ``log_weights`` (-inf for a zero
    weight).
    """

    weights: np.ndarray
    means: np.ndarray
    covariances: InitVar[np.ndarray]
    noise_std: float

    def __post_init__(self, covariances):
        self.means = finite_array(self.means, "means", 2, dtype=complex).copy("K")
        covs = finite_array(covariances, "covariances", 3, dtype=complex)  # not kept, so not copied
        if covs.shape != (self.n_components, self.n_tx, self.n_tx):
            raise DimensionError("covariances: expected one N_t x N_t matrix per component mean")
        scale = max(1.0, float(np.abs(covs).max(initial=0.0)))
        herm_gap = float(np.abs(covs - covs.conj().transpose(0, 2, 1)).max(initial=0.0))
        if herm_gap > 1e-12 * scale:
            raise InvalidParameterError("covariances must be Hermitian")
        vals, vecs = np.linalg.eigh(covs)  # eigenvalues ascending
        if vals.min() < -1e-10 * scale:
            raise InvalidParameterError("covariances must be positive semidefinite")
        self.rank = max(1, int(np.count_nonzero(vals > FACTOR_RANK_CUT * vals.max(), axis=1).max()))
        roots = vecs[:, :, -self.rank :] * np.sqrt(np.clip(vals[:, None, -self.rank :], 0.0, None))
        stacked = np.concatenate((roots.transpose(1, 2, 0), self.means.T[:, None]), axis=1)
        self.stacked = stacked.reshape(self.n_tx, -1)  # (N_t, (q + 1) N_k)
        self._freeze_components()
        self._set_user_terms()

    def _freeze_components(self):
        for array in (self.means, self.stacked):
            array.setflags(write=False)

    def __setstate__(self, state):
        # an unpickled array is writable again; pickling keeps shared ones shared
        self.__dict__.update(state)
        self._freeze_components()

    def _set_user_terms(self):
        """Validate the weights and noise level and derive the user's own terms."""
        self.weights = simplex(self.weights, "weights", self.n_components)
        number(self.noise_std, "noise_std", "must be positive")
        self.mixture_mean = self.weights @ self.means
        with np.errstate(divide="ignore"):
            self.log_weights = np.log(self.weights)

    def _for_user(self, weights, noise_std) -> GmmUserModel:
        """Another user's model on the same components: it shares this model's
        read-only means and stacked factor, so no second eigendecomposition."""
        user = copy.copy(self)
        user.weights, user.noise_std = weights, noise_std
        user._set_user_terms()
        return user

    @property
    def n_components(self) -> int:
        return self.means.shape[0]

    @property
    def n_tx(self) -> int:
        return self.means.shape[1]

    @property
    def factor(self) -> np.ndarray:
        """The square roots as (N_t, q, N_k) blocks: [:, :, n] is A_n (a view of ``stacked``)."""
        return self.stacked[:, : self.rank * self.n_components].reshape(self.n_tx, self.rank, -1)


@dataclass(frozen=True)
class SensingScene:
    """Target plus clutter geometry for the monostatic radar subsystem."""

    target_angle: float
    target_power: float
    clutter: tuple
    radar_noise_std: float
    geometry: ArrayGeometry

    def __post_init__(self):
        object.__setattr__(self, "clutter", tuple((float(a), float(p)) for a, p in self.clutter))
        angles = (self.target_angle, *(a for a, _ in self.clutter))
        finite_array(angles, "target and clutter angles", 1)
        powers = (self.target_power, *(p for _, p in self.clutter))
        finite_array(powers, "target and clutter powers", 1, "must be nonnegative")
        number(self.radar_noise_std, "radar noise std", "must be positive")

    @cached_property
    def _sense_terms(self) -> tuple:
        """The scene terms of the sensing metrics, the detector and the sensing
        gradient, built once per scene: transmit steering rows (Q+1, N_t),
        receive-steering correlations a_rx,i^H a_rx,j (Q+1, Q+1) and powers
        (Q+1,), target first."""
        geom = self.geometry
        angles = np.concatenate(([self.target_angle], self.clutter_angles))
        a_tx = _steering_rows(geom.n_tx, geom.spacing_tx, angles)
        a_rx = _steering_rows(geom.n_rx, geom.spacing_rx, angles)
        powers = np.concatenate(([self.target_power], self.clutter_powers))
        terms = (a_tx, a_rx.conj() @ a_rx.T, powers)
        for array in terms:  # shared by every evaluation on this scene
            array.setflags(write=False)
        return terms

    @property
    def clutter_angles(self) -> np.ndarray:
        return np.array([a for a, _ in self.clutter], dtype=float)

    @property
    def clutter_powers(self) -> np.ndarray:
        return np.array([p for _, p in self.clutter], dtype=float)


@dataclass(eq=False)
class PilotMatrix:
    """L x N_t pilot with orthonormal rows (unit power budget per slot),
    checked at construction by ``check_pilots``, which also gives
    ``residual``, the Frobenius distance of the row Gram from the identity."""

    entries: np.ndarray

    def __post_init__(self):
        self.entries, self.residual = check_pilots(self.entries)

    @property
    def n_slots(self) -> int:
        return self.entries.shape[0]

    @property
    def n_tx(self) -> int:
        return self.entries.shape[1]


def check_pilots(entries, ndim=2) -> tuple:
    """(entries, residual): ``entries`` checked against the pilot rule, the
    one place that rule is kept.

    ``entries`` is one pilot (L, N_t), or with ``ndim`` (2, 3) possibly a
    stack (P, L, N_t).  Its entries must be finite (checked first: an
    infinite entry would make the row Gram NaN through inf * 0), L must lie
    strictly below N_t, and each pilot's residual, the Frobenius distance of
    its row Gram from the identity, must be at most ``ORTHONORMALITY_TOL``.
    Returns the entries as a complex array and the residual, a float for
    one pilot and a (P,) array for a stack.  A stack takes one batched Gram
    product; each pilot's norm is its own ``np.linalg.norm`` call, so its
    residual has the bits of the pilot's ``PilotMatrix``.
    """
    entries = finite_array(entries, "pilot", ndim, dtype=complex)
    n_slots, n_tx = entries.shape[-2:]
    if n_slots >= n_tx:
        raise DimensionError("pilot length must be strictly below the antenna count")
    gram = entries @ entries.conj().swapaxes(-1, -2)
    gram -= np.eye(n_slots)
    residual = [np.linalg.norm(dev) for dev in gram.reshape(-1, n_slots, n_slots)]
    if not all(r <= ORTHONORMALITY_TOL for r in residual):
        raise InvalidParameterError("pilot rows are not orthonormal")
    return entries, float(residual[0]) if entries.ndim == 2 else np.array(residual)


def pilot_entries(pilot, ndim=2, name: str = "pilot") -> np.ndarray:
    """The entries of a pilot argument, the package's one reader of it.

    A ``PilotMatrix`` gives its entries, which were checked when it was
    built.  Any other value, such as an off-manifold iterate, is checked as
    a finite complex array of ``ndim`` axes (2 for one pilot (L, N_t),
    (2, 3) for one pilot or a stack (P, L, N_t)) before any product, where
    an infinite entry would warn through inf * 0.
    """
    if isinstance(pilot, PilotMatrix):
        return pilot.entries
    return finite_array(pilot, name, ndim, dtype=complex)


def build_user_models(
    geometry: ArrayGeometry,
    users,
    n_components: int,
    mean_policy: str = "steering",
    mean_scale: float = 1.0,
    quadrature_points: int = 8,
) -> list:
    """One model per (mean_aoa_deg, spread_deg, noise_std) of ``users``, on an
    equal partition of [-90, 90] degrees into angular mixture components.

    Each user's mixture weights follow its Laplacian profile at the region
    centers, and each covariance integrates the steering outer product over
    its region.  ``mean_policy`` fills the component means: "zero" or
    "steering" (a scaled steering vector at the region center, which keeps
    the cross-mean terms of the communication objective alive).  The
    components depend on these five values alone: ``geometry``,
    ``n_components``, ``mean_policy``, ``mean_scale`` and
    ``quadrature_points``.  So they are built and factored at most once per
    process, cached under exactly those values; the cache keeps the last 4
    priors, about 0.32 MB each at N_t = 16, N_k = 180.  Every returned model
    shares its prior's read-only means and stacked factor, and has its own
    weights and noise level, validated on every call.
    """
    count(n_components, "n_components")
    number(mean_scale, "mean_scale")
    one_of(mean_policy, "mean_policy", MEAN_POLICIES)
    edges = np.linspace(-90.0, 90.0, n_components + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    weights = [laplacian_weights(aoa, spread, centers) for aoa, spread, _ in users]
    prior = _shared_prior(geometry, n_components, mean_policy, mean_scale, quadrature_points)
    return [prior._for_user(w, noise_std) for w, (_, _, noise_std) in zip(weights, users)]


# means and stacked factor of one prior: 0.32 MB at N_t = 16, N_k = 180, q = 5
@lru_cache(maxsize=4)
def _shared_prior(
    geometry: ArrayGeometry,
    n_components: int,
    mean_policy: str,
    mean_scale: float,
    quadrature_points: int,
) -> GmmUserModel:
    """A model on the prior's components, with uniform weights and unit
    noise; ``build_user_models`` hands out only ``_for_user`` copies of it."""
    edges = np.linspace(-90.0, 90.0, n_components + 1)
    covs = _region_covariances(geometry, edges[:-1], edges[1:], quadrature_points)
    if mean_policy == "zero":
        means = np.zeros((n_components, geometry.n_tx), dtype=complex)
    else:
        centers = 0.5 * (edges[:-1] + edges[1:])
        means = mean_scale * _steering_rows(geometry.n_tx, geometry.spacing_tx, centers)
    return GmmUserModel(np.full(n_components, 1.0 / n_components), means, covs, 1.0)


def sample_channels(model: GmmUserModel, n_samples: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``n_samples`` channels: pick a component by weight, then CN(mu_n, R_n).

    Each channel takes N_t standard normals; the component's q factor
    columns, the top eigenvectors in ascending ``eigh`` order, multiply the
    last q of them, so the stream advances alike whatever the factor's rank.
    The normals come in one draw, in component order: the first rows go to
    component 0's samples, in sample order, and so on, which one stable
    argsort of the component indices lays out.  Each component's channels
    are formed in the same rows of a component-ordered buffer, its product
    written there by ``np.matmul(..., out=)`` and its mean added in place,
    and one scatter through that argsort puts the buffer in sample order,
    into the normals' own array, which is no longer read.  The factor is
    copied out of ``stacked`` into contiguous (N_t, q) blocks A_n, so each
    product is a BLAS call: on a strided view of ``stacked`` NumPy takes
    its non-BLAS loop, whose last bits differ, and the draws would change.
    One product over all components would not do either, since each
    component has its own A_n.
    """
    count(n_samples, "n_samples")
    blocks = np.ascontiguousarray(model.factor.transpose(2, 0, 1))  # (N_k, N_t, q)
    indices = rng.choice(model.n_components, size=n_samples, p=model.weights)
    z = complex_normal(rng, (n_samples, model.n_tx))
    order = np.argsort(indices, kind="stable")
    counts = np.bincount(indices, minlength=model.n_components)
    ends = np.cumsum(counts)
    by_component = np.empty((n_samples, model.n_tx), dtype=complex)
    for comp in np.flatnonzero(counts):
        rows = slice(ends[comp] - counts[comp], ends[comp])
        np.matmul(z[rows, -model.rank :], blocks[comp].T, out=by_component[rows])
        by_component[rows] += model.means[comp]
    z[order] = by_component
    return z
