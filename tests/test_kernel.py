"""Factor-form mixture kernel: the cached low-rank factor, comm_state against
the dense formula, the grouped kernel over users that share one prior, the
shared value/gradient pass, the mixture-MMSE estimator and the batched
capacity bound against per-trial oracles, a golden short sweep, and
the single implementations the link simulation and the sampler share
(batched zero-forcing, factor-form channel draws).

The golden file ``golden/sweep_short.json`` is fixed data: it holds
``short_sweep()`` as computed at commit b1b7444, with the dense kernel
(Sigma_n from the full covariances, two solves per call) that the factor
form replaced.
"""

import importlib
import json
import pickle
import pkgutil
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.special import logsumexp

import isacpilot as ip
from isacpilot.config import build_geometry, build_objective, build_users, parse_config
from isacpilot import gradients
from isacpilot.gradients import _comm_grad, isac_value_and_grad
from isacpilot.channel import FACTOR_RANK_CUT, _shared_prior, build_user_models
from isacpilot.errors import finite_array
from isacpilot.evaluation import WEIGHT_CUT, effective_training_snr
from isacpilot.metrics import comm_state, sense_state
from isacpilot.streams import complex_normal
from oracles import (
    comm_grad,
    comm_mi_user,
    dense_comm,
    mmse_with_weights,
    per_component_sampler,
    region_covariances,
    scenario_covariances,
    sense_grad,
    steering_vector,
)
from test_acceptance import gradient_instance

ROOT = Path(__file__).resolve().parents[1]
SWEEP_CONFIG = ROOT / "configs" / "sweep_tradeoff.yaml"
SER_CONFIG = ROOT / "configs" / "ser_multiuser.yaml"
DIAG_CONFIG = ROOT / "configs" / "diagnostics_cworst.yaml"
NMSE_CONFIG = ROOT / "configs" / "nmse_baselines.yaml"
GOLDEN = Path(__file__).resolve().parent / "golden" / "sweep_short.json"
SHIPPED = sorted(path.stem for path in (ROOT / "configs").glob("*.yaml"))
CLUTTER = ((0.0, 0.5), (35.0, 0.3))
GOLDEN_RHOS = (0.0, 0.5, 1.0)
GOLDEN_ITERS = 50


def sweep_users():
    return build_objective(parse_config(str(SWEEP_CONFIG)).scenario, 0.5).users


def config_priors(*configs):
    """(model, R_n stack) of every user ``build_users`` builds for ``configs``."""
    pairs = []
    for config in configs:
        scenario = parse_config(str(config)).scenario
        covs = scenario_covariances(scenario)
        pairs += [(model, covs) for model in build_users(scenario)[0]]
    return pairs


def factor_blocks(model):
    """The stacked factor as (N_k, N_t, q) blocks A_n."""
    q, n_comp = model.rank, model.n_components
    return model.stacked[:, : q * n_comp].reshape(model.n_tx, q, n_comp).transpose(2, 0, 1)


def reconstruction_error(model, covariances):
    a = factor_blocks(model)
    return float(np.abs(a @ a.conj().transpose(0, 2, 1) - covariances).max())


def dense_mmse(obs, phi, model, covariances):
    """Mixture-MMSE estimates with R_n Phi^H formed explicitly from the
    covariances ``model`` was built from."""
    phi_r = np.einsum("ln,knm->klm", phi, covariances)
    sigma = phi_r @ phi.conj().T
    sigma = 0.5 * (sigma + sigma.conj().transpose(0, 2, 1)) + model.noise_std**2 * np.eye(len(phi))
    resid = obs[None, :, :] - (model.means @ phi.T)[:, None, :]
    z = np.linalg.solve(sigma, resid.transpose(0, 2, 1))
    log_prior = np.log(model.weights) - np.linalg.slogdet(sigma)[1]
    log_w = log_prior[:, None] - np.einsum("kcl,klc->kc", resid.conj(), z).real
    w = np.exp(log_w - logsumexp(log_w, axis=0))
    posterior = phi_r.conj().transpose(0, 2, 1) @ z + model.means[:, :, None]
    return np.einsum("kc,knc->cn", w, posterior)


def kernel_cases():
    """(pilot, model, R_n stack) triples: the shipped sweep models and
    full-rank random models."""
    cases = []
    rng = ip.substream(7, "kernel")
    for model, covs in config_priors(SWEEP_CONFIG):
        cases += [(ip.random_stiefel(4, 16, rng), model, covs) for _ in range(3)]
    for seed in range(4):
        pilot, objective, _, stacks = gradient_instance(seed)
        cases += [(pilot, model, c) for model, c in zip(objective.users, stacks)]
    return cases


class TestFactor:
    def test_reconstructs_built_model(self):
        for model, covs in config_priors(SWEEP_CONFIG):
            assert reconstruction_error(model, covs) <= 1e-13
            # rank of a region covariance is at most quadrature_points (8)
            assert factor_blocks(model).shape[2] <= 8

    def test_full_rank_random_models_keep_every_column(self):
        for seed in range(5):
            _, objective, _, stacks = gradient_instance(seed)
            for model, covs in zip(objective.users, stacks, strict=True):
                assert factor_blocks(model).shape[2] == model.n_tx
                assert reconstruction_error(model, covs) <= 1e-13

    def test_stacked_array_holds_factor_then_means(self):
        _, objective, _, stacks = gradient_instance(0)
        for model, dense in config_priors(SWEEP_CONFIG) + list(zip(objective.users, stacks)):
            q, n_comp = model.rank, model.n_components
            assert model.stacked.shape == (model.n_tx, (q + 1) * n_comp)
            assert not model.stacked.flags.writeable
            blocks = model.stacked.reshape(model.n_tx, q + 1, n_comp)
            # column j * N_k + n is column j of A_n, column q * N_k + n is mu_n
            a = blocks[:, :q].transpose(2, 0, 1)
            covs = a @ a.conj().transpose(0, 2, 1)
            assert np.abs(covs - dense).max() <= 1e-13
            assert np.array_equal(blocks[:, q].T, model.means)
            assert np.array_equal(model.factor, blocks[:, :q])

    def test_batched_build_matches_per_region_formula(self):
        geom = ip.ArrayGeometry(n_tx=16, n_rx=8)
        model = build_user_models(geom, [(-40.0, 6.0, 0.2)], 180, quadrature_points=8)[0]
        edges = np.linspace(-90.0, 90.0, 181)
        covs, means = [], []
        for lo, hi in zip(edges[:-1], edges[1:]):
            step = (hi - lo) / 8
            centers = lo + (np.arange(8) + 0.5) * step
            a = np.stack([steering_vector(16, 0.5, t) for t in centers])
            cov = a.T @ a.conj() * np.deg2rad(step)
            covs.append(0.5 * (cov + cov.conj().T))
            means.append(steering_vector(16, 0.5, 0.5 * (lo + hi)))
        # the prior factors exactly these covariances and means
        assert np.array_equal(region_covariances(geom, 180), np.stack(covs))
        assert np.array_equal(model.means, np.stack(means))
        fresh = ip.GmmUserModel(model.weights, np.stack(means), np.stack(covs), model.noise_std)
        assert np.array_equal(fresh.stacked, model.stacked)


LOW_RANK = 3


def elimination_case(n_slots, prior):
    """(pilot, model, R_n stack) at N_t = 12, with zero weights on some components.

    "region": shipped-style region covariances, low rank (q = 7 < N_t);
    "low-rank": random covariances of rank ``LOW_RANK`` (q = 3);
    "full-rank": random covariances, so the factor keeps q = N_t columns.
    """
    rng = ip.substream(n_slots, "elimination", prior)
    n_tx = 12
    if prior == "region":
        covs = region_covariances(ip.ArrayGeometry(n_tx, 4), 36)
    else:
        cols = LOW_RANK if prior == "low-rank" else n_tx
        a = rng.standard_normal((6, n_tx, cols)) + 1j * rng.standard_normal((6, n_tx, cols))
        covs = a @ a.conj().transpose(0, 2, 1) / (2 * n_tx)
    n_comp = covs.shape[0]
    weights = rng.uniform(0.2, 1.0, n_comp)
    weights[::3] = 0.0
    means = rng.standard_normal((n_comp, n_tx)) + 1j * rng.standard_normal((n_comp, n_tx))
    model = ip.GmmUserModel(weights / weights.sum(), means / 2, covs, noise_std=0.4)
    return ip.random_stiefel(n_slots, n_tx, rng), model, covs


# the low-rank prior's pilot lengths: the L = q boundary, then q < L
ELIMINATION_PARAMS = [(n, p) for p in ("region", "full-rank") for n in (1, 4, 6, 9)] + [
    (n, "low-rank") for n in (LOW_RANK, 4, 6, 9)
]
ELIMINATION_CASES = pytest.mark.parametrize("n_slots,prior", ELIMINATION_PARAMS)
EXPECTED_RANK = {"region": 7, "low-rank": LOW_RANK, "full-rank": 12}


class TestCommState:
    def test_cases_reach_both_eliminations(self, monkeypatch):
        """The elimination cases cover q < L (the q x q capacitance), L < q
        and the L = q boundary (the L x L Sigma_n), and ``comm_state`` picks
        the system by that shape rule alone."""
        calls = []
        for name in ("_observation_solve", "_capacitance_solve"):

            def recorded(*args, name=name, solve=getattr(ip.metrics, name)):
                calls.append(name)
                return solve(*args)

            monkeypatch.setattr(ip.metrics, name, recorded)
        expected, shapes = [], set()
        for n_slots, prior in ELIMINATION_PARAMS:
            pilot, model, _ = elimination_case(n_slots, prior)
            comm_state(pilot, [model])
            expected.append("_capacitance_solve" if model.rank < n_slots else "_observation_solve")
            shapes.add(np.sign(model.rank - n_slots))
        assert calls == expected
        assert shapes == {-1, 0, 1}

    @ELIMINATION_CASES
    def test_elimination_matches_lapack(self, n_slots, prior):
        pilot, model, covs = elimination_case(n_slots, prior)
        phi = pilot.entries
        rank = factor_blocks(model).shape[2]
        assert rank == EXPECTED_RANK[prior]
        state = comm_state(pilot, [model])
        # Sigma_n from the full covariances, independent of the factor
        sigma = phi @ covs @ phi.conj().T + model.noise_std**2 * np.eye(n_slots)
        # the precision the estimator reads: B_n C_n^H = I - sigma^2 Sigma_n^{-1}
        bc = state.b.transpose(2, 0, 1) @ state.c_conj.transpose(2, 1, 0)  # C_n^H = conj(C_n)^T
        precision = (np.eye(n_slots) - bc) / model.noise_std**2
        inverse = np.linalg.inv(sigma)
        assert np.abs(precision - inverse).max() <= 1e-12 * np.abs(inverse).max()
        mu_bar = model.weights @ model.means - model.means
        rhs = np.concatenate(((mu_bar @ phi.T)[:, :, None], state.b.transpose(2, 0, 1)), axis=2)
        expected = np.linalg.solve(sigma, rhs)
        solves = (state.s_conj[:, 0].T[:, :, None], state.c_conj.transpose(2, 0, 1))
        got = np.concatenate(solves, axis=2).conj()
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()
        # B_n^H Sigma_n^{-1} v_n (on the q x q path the solved K_n^{-1} B_n^H v_n)
        bh_s = (state.b.transpose(2, 1, 0).conj() @ expected[:, :, :1])[:, :, 0]
        assert np.abs(state.bh_s[0].T - bh_s).max() <= 1e-12 * np.abs(bh_s).max()
        # log det Sigma_n, component by component, through
        # log_mix_n = log alpha_n - beta_n - log det Sigma_n, beta_n = Re v_n^H s_n
        zero = model.weights == 0.0
        beta = np.einsum("nl,ln->n", mu_bar @ phi.T, state.s_conj[:, 0]).real
        got = np.log(model.weights[~zero]) - beta[~zero] - state.log_mix[0, ~zero]
        logdet = np.linalg.slogdet(sigma)[1][~zero]
        assert np.abs(got - logdet).max() <= 1e-12 * np.abs(logdet).max()
        assert zero.any() and np.all(state.log_mix[0, zero] == -np.inf)

    @ELIMINATION_CASES
    def test_value_and_gradient_match_dense_formula(self, n_slots, prior):
        pilot, model, covs = elimination_case(n_slots, prior)
        value, grad = dense_comm(pilot.entries, model, covs)
        assert abs(comm_state(pilot, [model]).value[0] - value) <= 1e-12 * abs(value)
        got = comm_grad(pilot, model)
        assert np.abs(got - grad).max() <= 1e-12 * np.abs(grad).max()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_pilot_raises(self, bad):
        model = sweep_users()[0]
        phi = ip.random_stiefel(4, 16, ip.substream(9, "kernel-nan")).entries
        phi[1, 3] = bad
        with np.errstate(invalid="ignore"), pytest.raises(ip.NumericError):
            comm_state(phi, [model])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_pilot_raises_without_warning(self, bad):
        model = sweep_users()[0]
        phi = ip.random_stiefel(4, 16, ip.substream(9, "kernel-nan")).entries
        phi[1, 3] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ip.NumericError, match=r"^pilot\[1, 3\]: expected a finite number$"):
                comm_state(phi, [model])

    def test_matches_dense_formula(self):
        for pilot, model, covs in kernel_cases():
            value, grad = dense_comm(pilot.entries, model, covs)
            state = comm_state(pilot, [model])
            assert abs(state.value[0] - value) <= 1e-12 * abs(value)
            got = comm_grad(pilot, model)
            assert np.abs(got - grad).max() <= 1e-12 * np.abs(grad).max()

    def test_estimator_matches_dense_formula(self):
        rng = ip.substream(8, "kernel-mmse")
        for pilot, model, covs in kernel_cases()[::2]:
            channels = ip.sample_channels(model, 500, rng)
            noise = model.noise_std * ip.complex_normal(rng, (500, pilot.n_slots))
            obs = channels @ pilot.entries.T + noise
            est = ip.gmm_mmse_batch(obs, pilot, model)
            expected = dense_mmse(obs, pilot.entries, model, covs)
            assert np.abs(est - expected).max() <= 1e-13 * np.abs(expected).max()


class TestValueAndGrad:
    @pytest.mark.parametrize("rho", [0.0, 0.35, 1.0])
    def test_agrees_with_separate_evaluations(self, rho):
        for seed in range(3):
            pilot, objective, scene, _ = gradient_instance(seed)
            objective.rho = rho
            value, comm, sense, grad = isac_value_and_grad(pilot, objective)
            assert value == pytest.approx(ip.isac_objective(pilot, objective), rel=1e-14)
            assert comm == pytest.approx(ip.comm_mi_weighted(pilot, objective), rel=1e-14)
            assert sense == pytest.approx(ip.sensing_mi(pilot, scene, "approx"), rel=1e-14)
            weighted_users = zip(objective.user_weights, objective.users)
            comm_part = sum(w * comm_grad(pilot, user) for w, user in weighted_users)
            expected = rho * comm_part + (1.0 - rho) * sense_grad(pilot, scene)
            assert np.abs(grad - expected).max() <= 1e-14 * np.abs(expected).max()


class TestCheckedPilot:
    """``channel.pilot_entries`` is the one reader of a pilot argument: a
    ``PilotMatrix``, checked when it was built, is not checked again, and a
    bare array is checked where it enters."""

    @staticmethod
    def count_finite_checks(monkeypatch):
        """The names of the arrays checked from here on, through the
        ``finite_array`` binding of every package module that binds it."""
        names = []

        def counted(value, name, *args, **kwargs):
            names.append(name)
            return finite_array(value, name, *args, **kwargs)

        patched = []
        for info in pkgutil.iter_modules(ip.__path__):
            module = importlib.import_module(f"isacpilot.{info.name}")
            if getattr(module, "finite_array", None) is finite_array:
                monkeypatch.setattr(module, "finite_array", counted)
                patched.append(info.name)
        assert {"channel", "errors", "evaluation", "optimizer"} <= set(patched)
        return names

    def test_a_pilot_matrix_is_not_checked_again(self, monkeypatch):
        objective, pilot, _ = invariance_case("sweep_tradeoff")
        names = self.count_finite_checks(monkeypatch)
        isac_value_and_grad(pilot, objective)
        assert names == []
        isac_value_and_grad(pilot.entries, objective)  # a bare array is checked
        assert names and set(names) == {"pilot"}

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("call", ["isac_value_and_grad", "comm_state", "sense_state"])
    def test_a_bare_array_with_a_nan_entry_raises(self, call):
        objective, pilot, _ = invariance_case("sweep_tradeoff")
        phi = pilot.entries.copy()
        phi[1, 2] = np.nan
        calls = {
            "isac_value_and_grad": lambda: isac_value_and_grad(phi, objective),
            "comm_state": lambda: comm_state(phi, objective.groups[0][1]),
            "sense_state": lambda: sense_state(phi, objective.scene),
        }
        with pytest.raises(ip.NonFiniteError, match=r"pilot\[1, 2\]: expected a finite number"):
            calls[call]()


def invariance_case(case):
    """(objective at rho = 0.5, pilot, random L x L unitary U) of a shipped
    scenario; "roc_compare+clutter" is ``roc_compare`` with clutter at 0 and
    35 degrees."""
    stem, _, clutter = case.partition("+")
    scenario = parse_config(str(ROOT / "configs" / f"{stem}.yaml")).scenario
    objective = build_objective(scenario, 0.5)
    if clutter:
        objective = replace(objective, scene=replace(objective.scene, clutter=CLUTTER))
    rng = ip.substream(13, "invariance", case)
    pilot = ip.random_stiefel(scenario["pilot_len"], scenario["n_tx"], rng)
    unitary = np.linalg.qr(complex_normal(rng, (pilot.n_slots, pilot.n_slots)))[0]
    return objective, pilot, unitary


class TestUnitaryInvariance:
    """Every metric depends on the pilot only through its row space: Phi ->
    U Phi for a unitary U leaves each value unchanged and rotates the
    gradient, and with the observations rotated alike, y -> U y, it leaves
    the estimates unchanged.  No oracle is needed."""

    @pytest.mark.parametrize("case", SHIPPED + ["roc_compare+clutter"])
    def test_values_are_invariant(self, case):
        objective, pilot, unitary = invariance_case(case)

        def values(p):
            comm = [comm_mi_user(p, model) for model in objective.users]
            sense = [ip.sensing_mi(p, objective.scene, f) for f in ("approx", "exact")]
            return comm + sense + [ip.isac_objective(p, objective)]

        rotated = values(ip.PilotMatrix(unitary @ pilot.entries))
        for got, expected in zip(rotated, values(pilot), strict=True):
            assert abs(got - expected) <= 1e-12 * abs(expected)

    @pytest.mark.parametrize("case", SHIPPED + ["roc_compare+clutter"])
    def test_gradient_is_equivariant(self, case):
        objective, pilot, unitary = invariance_case(case)
        grad = isac_value_and_grad(pilot, objective)[3]
        got = isac_value_and_grad(ip.PilotMatrix(unitary @ pilot.entries), objective)[3]
        assert np.linalg.norm(got - unitary @ grad) <= 1e-12 * np.linalg.norm(grad)

    # the estimator reads no scene, so the clutter case would repeat roc_compare
    @pytest.mark.parametrize("case", SHIPPED)
    def test_estimator_is_invariant(self, case):
        objective, pilot, unitary = invariance_case(case)
        model = objective.users[0]
        obs = far_row_observations(pilot, model, ip.substream(14, "invariance", case))
        est, resp = mmse_with_weights(obs, pilot, model)
        rotated = ip.PilotMatrix(unitary @ pilot.entries)
        got, got_resp = mmse_with_weights(obs @ unitary.T, rotated, model)
        error = np.linalg.norm(got - est, axis=1)
        assert np.all(error <= 1e-12 * np.linalg.norm(est, axis=1))
        # only on the sampled rows: a weight's relative error is its log
        # weight's absolute roundoff, which grows with the quadratic form, so
        # on the far rows (25 times away) two correct computations of one
        # weight already differ by 1e-12 and more
        sampled = np.arange(len(obs)) % 3 != 0
        assert np.abs(got_resp - resp)[sampled].max() <= 1e-12


def stack_case(case, n_pilots=5):
    """(objective, (P, L, N_t) stack of random pilots) of ``invariance_case``'s
    scenarios; the pilots are off the manifold by a small perturbation."""
    objective, pilot, _ = invariance_case(case)
    rng = ip.substream(15, "stack", case)
    pilots = [ip.random_stiefel(pilot.n_slots, pilot.n_tx, rng).entries for _ in range(n_pilots)]
    stack = np.array(pilots)
    return objective, stack + 0.01 * complex_normal(rng, stack.shape)


class TestPilotStack:
    """A (P, L, N_t) stack of pilots gives each pilot the values of its own
    call, bit for bit: the pilots' products are batched products of the same
    shape as one pilot's, and every later step of ``comm_state`` and
    ``sense_state`` works component by component (or pilot by pilot), so no
    sum changes its order."""

    @staticmethod
    def assert_comm_state_equals_per_pilot_calls(stack, users):
        state = comm_state(stack, users)
        n_comp = users[0].n_components
        assert state.value.shape == state.log_omega.shape == (len(users), len(stack))
        for p, phi in enumerate(stack):
            one = comm_state(phi, users)
            cols = slice(p * n_comp, (p + 1) * n_comp)
            assert np.array_equal(state.value[:, p], one.value)
            assert np.array_equal(state.log_omega[:, p], one.log_omega)
            assert np.array_equal(state.log_mix[:, cols], one.log_mix)
            for got, expected in zip(state[3:], one[3:], strict=True):  # b, s_conj, c_conj, bh_s
                assert np.array_equal(got[..., cols], expected)

    @pytest.mark.parametrize("case", SHIPPED + ["roc_compare+clutter"])
    def test_comm_state_equals_per_pilot_calls(self, case):
        objective, stack = stack_case(case)
        for _, users in objective.groups:
            self.assert_comm_state_equals_per_pilot_calls(stack, users)

    @pytest.mark.parametrize("n_slots", [LOW_RANK, 6, 9])
    def test_low_rank_group_equals_per_pilot_calls(self, n_slots):
        # two users on a q = 3 prior: the L = q boundary, then q < L
        pilot, model, _ = elimination_case(n_slots, "low-rank")
        users = [model, model._for_user(model.weights[::-1], model.noise_std)]
        rng = ip.substream(n_slots, "stack", "low-rank")
        stack = pilot.entries + 0.01 * complex_normal(rng, (4, *pilot.entries.shape))
        self.assert_comm_state_equals_per_pilot_calls(stack, users)

    @pytest.mark.parametrize("case", SHIPPED + ["roc_compare+clutter"])
    def test_sense_state_equals_per_pilot_calls(self, case):
        objective, stack = stack_case(case)
        for formula in ("approx", "exact"):
            state = sense_state(stack, objective.scene, formula)
            assert state.arg.shape == (len(stack),)
            for p, phi in enumerate(stack):
                one = sense_state(phi, objective.scene, formula)
                assert state.arg[p] == one.arg
                for field in ("u", "gram", "z"):
                    assert np.array_equal(getattr(state, field)[p], getattr(one, field))

    @pytest.mark.parametrize("case", ["sweep_tradeoff", "gradcheck_small", "roc_compare+clutter"])
    def test_metrics_return_one_value_per_pilot(self, case):
        objective, stack = stack_case(case)
        model, scene = objective.users[0], objective.scene
        for metric in (
            lambda p: comm_mi_user(p, model),
            lambda p: ip.comm_mi_weighted(p, objective),
            lambda p: ip.sensing_mi(p, scene, "approx"),
            lambda p: ip.sensing_mi(p, scene, "exact"),
            lambda p: ip.isac_objective(p, objective),
        ):
            values = metric(stack)
            assert values.shape == (len(stack),)
            assert values.tolist() == [metric(phi) for phi in stack]

    def test_single_pilot_keeps_its_shapes(self):
        objective = build_objective(parse_config(str(SWEEP_CONFIG)).scenario, 0.5)
        users = objective.users
        pilot = ip.random_stiefel(4, 16, ip.substream(16, "stack"))
        state = comm_state(pilot, users)
        n_users, rank, n_comp = len(users), users[0].rank, users[0].n_components
        assert state.value.shape == state.log_omega.shape == (n_users,)
        assert state.log_mix.shape == (n_users, n_comp)
        assert state.b.shape == state.c_conj.shape == (4, rank, n_comp)
        assert state.s_conj.shape == (4, n_users, n_comp)
        assert state.bh_s.shape == (n_users, rank, n_comp)
        assert isinstance(comm_mi_user(pilot, users[0]), float)
        assert isinstance(sense_state(pilot, objective.scene).arg, float)

    def test_domain_error_names_the_failing_pilot(self):
        # clutter on the target drives the approximate log argument below
        # zero for a unit-power pilot; a pilot scaled by 1e-3 stays above it
        scene = ip.SensingScene(
            target_angle=20.0, target_power=50.0, clutter=((20.0, 200.0), (20.0, 200.0)),
            radar_noise_std=0.5, geometry=ip.ArrayGeometry(n_tx=8, n_rx=4),
        )
        phi = ip.random_stiefel(3, 8, ip.substream(17, "stack")).entries
        stack = np.array([1e-3 * phi, 1e-3 * phi, phi, 1e-3 * phi])
        assert sense_state(stack[:2], scene).arg.min() > 0.0
        with pytest.raises(ip.ObjectiveDomainError, match="of pilot 2 ") as excinfo:
            ip.sensing_mi(stack, scene, "approx")
        with pytest.raises(ip.ObjectiveDomainError) as single:
            sense_state(phi, scene)
        assert excinfo.value.value == single.value.value <= 0.0
        assert single.value.index is None
        assert excinfo.value.index == 2

    def test_single_pilot_functions_reject_a_stack(self):
        objective, stack = stack_case("roc_compare+clutter")
        scene, rng = objective.scene, ip.substream(18, "stack")
        users = objective.users
        observations = np.zeros((2, stack.shape[1]), dtype=complex)
        for call in (
            lambda: ip.simulate_detection_trials(stack, scene, 1000, rng),
            lambda: ip.roc_curve(stack, scene, 1000, [0.1], rng),
            lambda: sense_grad(stack, scene),
            lambda: comm_grad(stack, objective.users[0]),
            lambda: isac_value_and_grad(stack, objective),
            lambda: ip.nmse_experiment(stack, users, 10, rng),
            lambda: ip.ser_experiment(stack, users, [10.0], 1000, 10, rng),
            lambda: ip.c_worst_estimate(stack, users, 10, 10, rng),
            lambda: ip.gmm_mmse_batch(observations, stack, users[0]),
            lambda: ip.finite_diff_check(np.sum, np.zeros_like, stack),
        ):
            with pytest.raises(ip.DimensionError):
                call()
        # the detector and the Monte Carlo routines check their pilot before they draw anything
        assert rng.bit_generator.state == ip.substream(18, "stack").bit_generator.state
        assert rng.bit_generator.seed_seq.n_children_spawned == 0
        with pytest.raises(ip.DimensionError):
            comm_state(stack[None], objective.users[:1])


CONV_CONFIG = ROOT / "configs" / "convergence_stepsize.yaml"


class TestValueOnlyState:
    """``comm_state(..., terms=False)`` drops C_n and s_n^H B_n and keeps
    every value bit; the callers that read values alone ask for it, the
    gradient at rho > 0 and the estimator do not."""

    @staticmethod
    def config_case(config, n_pilots):
        scenario = parse_config(str(config)).scenario
        objective = build_objective(scenario, 0.5)
        rng = ip.substream(n_pilots or 1, "value-only", config.stem)
        shape = (scenario["pilot_len"], scenario["n_tx"])
        pilots = [ip.random_stiefel(*shape, rng).entries for _ in range(n_pilots or 1)]
        return objective, pilots[0] if n_pilots is None else np.array(pilots)

    # the sweep shape takes the L x L system (L = 4 <= q = 5), the
    # convergence_stepsize shape the capacitance one (L = 9 > q = 5)
    @pytest.mark.parametrize("config", [SWEEP_CONFIG, CONV_CONFIG], ids=lambda p: p.stem)
    @pytest.mark.parametrize("n_pilots", [None, 8])
    def test_values_keep_their_bits(self, config, n_pilots):
        objective, pilot = self.config_case(config, n_pilots)
        rank, n_slots = objective.users[0].rank, pilot.shape[-2]
        assert rank == 5 and (n_slots <= rank) == (config == SWEEP_CONFIG)
        for _, users in objective.groups:
            full = comm_state(pilot, users)
            values = comm_state(pilot, users, terms=False)
            assert values.c_conj is None and values.bh_s is None
            assert full.c_conj is not None and full.bh_s is not None
            for field in ("value", "log_mix", "log_omega", "b", "s_conj"):
                got, expected = getattr(values, field), getattr(full, field)
                assert got.shape == expected.shape
                assert got.tobytes() == expected.tobytes(), field

    @pytest.mark.parametrize("rho", [0.0, 0.5, 1.0])
    def test_callers_ask_for_the_terms_they_read(self, monkeypatch, rho):
        objective, pilot = self.config_case(SWEEP_CONFIG, None)
        objective = replace(objective, rho=rho)
        asked, graded = [], []

        def recording(*args, **kwargs):
            state = comm_state(*args, **kwargs)
            asked.append(state.c_conj is not None and state.bh_s is not None)
            return state

        def checked_grad(state, users, coefs):
            graded.append(state.c_conj is not None and state.bh_s is not None)
            return _comm_grad(state, users, coefs)

        for module in (ip.metrics, gradients, ip.evaluation):
            monkeypatch.setattr(module, "comm_state", recording)
        monkeypatch.setattr(gradients, "_comm_grad", checked_grad)
        n_groups = len(objective.groups)
        ip.comm_mi_weighted(pilot, objective)
        ip.isac_objective(pilot, objective)
        assert asked == [False] * 2 * n_groups
        asked.clear()
        isac_value_and_grad(pilot, objective)
        assert asked == [rho > 0.0] * n_groups
        assert graded == [True] * n_groups * (rho > 0.0)
        asked.clear()
        observations = np.zeros((3, pilot.shape[0]), dtype=complex)
        ip.gmm_mmse_batch(observations, pilot, objective.users[0])
        assert asked == [True]


CLOUD_CONFIG = ROOT / "configs" / "pareto_cloud.yaml"
GRADCHECK_CONFIG = ROOT / "configs" / "gradcheck_small.yaml"


class TestBoundedStack:
    """``comm_mi_weighted`` hands a stack to ``comm_state`` in pieces sized
    from the group's shape, so its working set does not grow with the stack,
    and each pilot keeps the bits of its own call."""

    @staticmethod
    def objective_and_stack(config, n_pilots):
        scenario = parse_config(str(config)).scenario
        rng = ip.substream(19, "bounded-stack", config.stem)
        shape = (scenario["pilot_len"], scenario["n_tx"])
        pilots = [ip.random_stiefel(*shape, rng).entries for _ in range(n_pilots)]
        return build_objective(scenario, 0.0), np.array(pilots)

    @staticmethod
    def recorded_sizes(monkeypatch):
        """The pilot count of each ``comm_state`` call ``metrics`` makes from here on."""
        sizes = []

        def recording(pilot, users, terms=True):
            sizes.append(len(pilot))
            return comm_state(pilot, users, terms)

        monkeypatch.setattr(ip.metrics, "comm_state", recording)
        return sizes

    @pytest.mark.parametrize(
        "config, piece",
        [(CLOUD_CONFIG, 8), (DIAG_CONFIG, 16), (NMSE_CONFIG, 4), (CONV_CONFIG, 2)],
        ids=lambda v: getattr(v, "stem", v),
    )
    def test_pieces_keep_the_bits_and_bound_the_peak(self, monkeypatch, config, piece):
        objective, stack = self.objective_and_stack(config, 200)
        expected = [ip.comm_mi_weighted(phi, objective) for phi in stack]
        sizes = self.recorded_sizes(monkeypatch)
        assert ip.comm_mi_weighted(stack, objective).tolist() == expected
        assert sizes == [piece] * (200 // piece) + [200 % piece] * (200 % piece > 0)
        monkeypatch.undo()
        tracemalloc.start()
        try:
            ip.comm_mi_weighted(stack, objective)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # about 3.6 MB at the cloud's shape and 3.4 MB at the diagnostic's,
        # where one 200-pilot elimination traced 90 and 43 MB
        assert peak <= 5_000_000

    def test_gradient_check_stencils_take_one_call_per_group(self, monkeypatch):
        # the 8 L N_t = 192 stencil points of a check, one stack (333 pilots per piece)
        objective, stack = self.objective_and_stack(GRADCHECK_CONFIG, 192)
        sizes = self.recorded_sizes(monkeypatch)
        ip.comm_mi_weighted(stack, objective)
        assert sizes == [192] * len(objective.groups)


def shared_users(prior, noises):
    """(pilot, users, R_n stack) on the components of one ``elimination_case``
    model: one user per noise level, each with its own weights, a third of
    them zero."""
    pilot, model, covs = elimination_case(4, prior)
    rng = ip.substream(len(noises), "shared-users", prior)
    users = []
    for i, noise in enumerate(noises):
        weights = rng.uniform(0.2, 1.0, model.n_components)
        weights[i % 3 :: 3] = 0.0
        users.append(model._for_user(weights / weights.sum(), noise))
    return pilot, users, covs


def grouped_objective(users, rho=1.0):
    weights = np.arange(1.0, len(users) + 1.0)
    scene = ip.SensingScene(-20.0, 1.0, ((10.0, 0.5),), 1.0, ip.ArrayGeometry(12, 4))
    return ip.IsacObjective(rho, weights / weights.sum(), users, scene)


class TestGroupedKernel:
    # at L = 4, "low-rank" (q = 3) takes the capacitance elimination
    @pytest.mark.parametrize("prior", ["region", "low-rank", "full-rank"])
    @pytest.mark.parametrize("n_users", [1, 2, 4])
    def test_group_matches_dense_formula_per_user(self, n_users, prior):
        pilot, users, covs = shared_users(prior, [0.4] * n_users)
        state = comm_state(pilot, users)
        coefs = np.linspace(0.3, 1.0, n_users)
        expected = 0.0
        for g, model in enumerate(users):
            value, grad = dense_comm(pilot.entries, model, covs)
            assert abs(state.value[g] - value) <= 1e-12 * abs(value)
            assert np.all(state.log_mix[g, model.weights == 0.0] == -np.inf)
            expected = expected + coefs[g] * grad
        got = _comm_grad(state, users, coefs)
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_subnormal_weight_flushed_with_the_gradient_bits_kept(self, monkeypatch):
        # one weight set near e^-720, below the smallest normal double
        pilot, users, _ = shared_users("region", [0.4, 0.4])
        state = comm_state(pilot, users)
        log_mix = state.log_mix.copy()
        log_mix[0, np.flatnonzero(users[0].weights)[0]] = state.log_omega[0] - 720.0
        state = state._replace(log_mix=log_mix)
        coefs = np.array([0.3, 0.7])
        exp, mixes = np.exp, []

        def recording_exp(*args, **kwargs):  # _comm_grad's one exp forms its weights
            mixes.append(exp(*args, **kwargs))
            return mixes[-1]

        monkeypatch.setattr(np, "exp", recording_exp)
        got = _comm_grad(state, users, coefs)
        monkeypatch.setattr(gradients, "WEIGHT_CUT", -np.inf)  # every weight kept
        unmasked = _comm_grad(state, users, coefs)
        tiny = np.finfo(float).tiny
        masked_mix, unmasked_mix = mixes
        assert np.any((unmasked_mix > 0.0) & (unmasked_mix < tiny))
        assert not np.any((masked_mix > 0.0) & (masked_mix < tiny))
        assert got.tobytes() == unmasked.tobytes()

    @pytest.mark.parametrize("noises", [(0.8, 0.6), (0.4, 0.4, 0.3, 0.4)])
    def test_objective_groups_by_noise(self, noises):
        pilot, users, covs = shared_users("region", list(noises))
        objective = grouped_objective(users)
        groups = objective.groups
        assert len(groups) == len(set(noises))
        assert sum(len(members) for _, members in groups) == len(users)
        _, comm, _, grad = isac_value_and_grad(pilot, objective)
        dense = [dense_comm(pilot.entries, model, covs) for model in users]
        value = sum(w * v for w, (v, _) in zip(objective.user_weights, dense))
        expected = sum(w * g for w, (_, g) in zip(objective.user_weights, dense))
        assert abs(comm - value) <= 1e-12 * abs(value)
        assert abs(ip.comm_mi_weighted(pilot, objective) - value) <= 1e-12 * abs(value)
        assert np.abs(grad - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_replace_rebuilds_the_groups(self):
        _, users, _ = shared_users("region", [0.4, 0.4, 0.3])
        objective = grouped_objective(users)
        assert [len(members) for _, members in objective.groups] == [2, 1]
        moved = replace(objective, rho=0.5)
        assert moved.groups is not objective.groups
        for (w, members), (w0, members0) in zip(moved.groups, objective.groups, strict=True):
            assert np.array_equal(w, w0)
            assert all(m is m0 for m, m0 in zip(members, members0, strict=True))
        single = replace(objective, users=users[:1], user_weights=[1.0])
        assert [len(members) for _, members in single.groups] == [1]

    def test_group_rejects_a_second_noise_level_or_factor(self):
        pilot, users, _ = shared_users("region", [0.4, 0.5])
        with pytest.raises(ip.InvalidParameterError, match="share one factor"):
            comm_state(pilot, users)
        _, other, _ = elimination_case(4, "full-rank")
        with pytest.raises(ip.InvalidParameterError, match="share one factor"):
            comm_state(pilot, [users[0], other])

    @pytest.mark.parametrize("config", [SWEEP_CONFIG, SER_CONFIG])
    def test_build_users_share_one_read_only_prior(self, config):
        scenario = parse_config(str(config)).scenario
        users, _ = build_users(scenario)
        first = users[0]
        # a second build of the scenario in this process shares the prior too
        for model in users + build_users(scenario)[0]:
            for name in ("stacked", "means"):
                assert getattr(model, name) is getattr(first, name)
                assert not getattr(model, name).flags.writeable
        assert not np.array_equal(users[1].weights, first.weights)
        # the shared arrays are those of a model built from scratch, bit for bit
        geom = build_geometry(scenario)
        covs = scenario_covariances(scenario)
        edges = np.linspace(-90.0, 90.0, scenario["n_components"] + 1)
        centers = 0.5 * (edges[:-1] + edges[1:])
        means = scenario["mean_scale"] * steering_vector(geom.n_tx, geom.spacing_tx, centers)
        fresh = ip.GmmUserModel(first.weights, means, covs, first.noise_std)
        assert fresh.rank == first.rank
        for name in ("stacked", "means"):
            assert np.array_equal(getattr(fresh, name), getattr(first, name))

    @pytest.mark.parametrize("config", [SWEEP_CONFIG, SER_CONFIG])
    def test_a_prior_keeps_no_dense_covariances(self, config):
        scenario = parse_config(str(config)).scenario
        users, _ = build_users(scenario)
        keys = ("n_components", "mean_policy", "mean_scale", "quadrature_points")
        prior = _shared_prior(build_geometry(scenario), *(scenario[key] for key in keys))
        assert prior.stacked is users[0].stacked  # the cached prior itself
        for model in [prior, *users]:
            arrays = {name for name, value in vars(model).items() if isinstance(value, np.ndarray)}
            assert arrays == {"weights", "means", "stacked", "mixture_mean", "log_weights"}
            assert not hasattr(model, "covariances")

    def test_pickled_sweep_objective_is_small(self):
        # the prior's means and stacked factor pickle to about 0.33 MB; the
        # (N_k, N_t, N_t) covariance stack alone would add 0.74 MB
        objective = build_objective(parse_config(str(SWEEP_CONFIG)).scenario, 0.5)
        assert len(pickle.dumps(objective)) < 0.4e6

    PRIOR_KEY = {
        "geometry": ip.ArrayGeometry(8, 4),
        "n_components": 12,
        "mean_policy": "steering",
        "mean_scale": 1.0,
        "quadrature_points": 8,
    }

    def prior_user(self, users=((30.0, 6.0, 0.2),), **changes):
        """The first user model of ``users`` on the prior ``PRIOR_KEY`` with ``changes``."""
        key = {**self.PRIOR_KEY, **changes}
        return build_user_models(key.pop("geometry"), users, key.pop("n_components"), **key)[0]

    @pytest.mark.parametrize(
        "key, value",
        [
            ("geometry", ip.ArrayGeometry(8, 4, spacing_tx=0.4)),
            ("n_components", 13),
            ("mean_policy", "zero"),
            ("mean_scale", 2.0),
            ("quadrature_points", 4),
        ],
    )
    def test_each_key_value_names_its_own_prior(self, key, value):
        model = self.prior_user()
        other = self.prior_user(**{key: value})
        assert other.stacked is not model.stacked
        assert other.stacked.shape != model.stacked.shape or not np.array_equal(
            other.stacked, model.stacked
        )
        assert self.prior_user().stacked is model.stacked

    def test_a_cached_prior_still_checks_every_user(self):
        model = self.prior_user()
        # a NaN angle gives NaN weights; the noise level must be positive
        for bad in [(np.nan, 6.0, 0.2), (30.0, 6.0, 0.0), (30.0, 6.0, np.nan)]:
            with pytest.raises(ip.InvalidParameterError):
                self.prior_user(users=[(30.0, 6.0, 0.2), bad])
        assert self.prior_user().stacked is model.stacked

    def test_prior_cache_is_bounded(self):
        bound = _shared_prior.cache_info().maxsize
        counts = range(2, bound + 4)
        models = [self.prior_user(n_components=n) for n in counts]
        assert 0 < bound == _shared_prior.cache_info().currsize < len(counts)
        # the oldest prior was dropped: building it again gives new, equal arrays
        again = self.prior_user(n_components=counts[0])
        assert again.stacked is not models[0].stacked
        assert np.array_equal(again.stacked, models[0].stacked)
        assert self.prior_user(n_components=counts[-1]).stacked is models[-1].stacked

    def test_pickled_shared_prior_objective_is_bit_identical(self):
        objective = build_objective(parse_config(str(SER_CONFIG)).scenario, 0.6)
        clone = pickle.loads(pickle.dumps(objective))
        assert all(m.stacked is clone.users[0].stacked for m in clone.users)
        assert not clone.users[0].stacked.flags.writeable
        assert len(clone.groups) == 1
        assert all(m is u for m, u in zip(clone.groups[0][1], clone.users, strict=True))
        pilot = ip.random_stiefel(6, 16, ip.substream(5, "kernel-pickle"))
        got, expected = isac_value_and_grad(pilot, clone), isac_value_and_grad(pilot, objective)
        assert got[:3] == expected[:3]
        assert np.array_equal(got[3], expected[3])


def per_trial_mmse(obs, phi, model, covariances):
    """(estimates, responsibilities), one trial at a time, from the full
    covariances ``model`` was built from: per-component solves, log-sum-exp
    and the posterior mean."""
    phi_r = np.einsum("ln,knm->klm", phi, covariances)
    sigma = phi_r @ phi.conj().T + model.noise_std**2 * np.eye(len(phi))
    with np.errstate(divide="ignore"):  # zero weights
        log_prior = np.log(model.weights) - np.linalg.slogdet(sigma)[1]
    est = np.empty((len(obs), model.n_tx), dtype=complex)
    resp = np.empty((len(obs), model.n_components))
    for t, y in enumerate(obs):
        resid = y - model.means @ phi.T
        z = np.linalg.solve(sigma, resid[:, :, None])[:, :, 0]
        log_w = log_prior - np.einsum("kl,kl->k", resid.conj(), z).real
        resp[t] = np.exp(log_w - logsumexp(log_w))
        posterior = model.means + np.einsum("klm,kl->km", phi_r.conj(), z)
        est[t] = resp[t] @ posterior
    return est, resp


def far_row_observations(pilot, model, rng, far=25.0):
    """200 observations drawn from the model, every third of them replaced
    by a draw ``far`` times the unit scale, far from every component."""
    noise = model.noise_std * ip.complex_normal(rng, (200, pilot.n_slots))
    obs = ip.sample_channels(model, 200, rng) @ pilot.entries.T + noise
    obs[::3] = far * ip.complex_normal(rng, obs[::3].shape)
    return obs


def chunk_sizes(observations, pilot, model) -> list:
    """The trial count of each chunk that ``gmm_mmse_batch`` estimates
    ``observations`` in."""
    sizes = []
    mmse_chunk = ip.evaluation._mmse_chunk

    def recording(extended, *args):
        sizes.append(len(extended))
        return mmse_chunk(extended, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ip.evaluation, "_mmse_chunk", recording)
        ip.gmm_mmse_batch(observations, pilot, model)
    return sizes


def estimator_case(prior):
    """(pilot, model, R_n stack, observations): sampled observations plus a
    third of rows far from every component, where most weights fall below
    the cut.

    "montecarlo": the NMSE workload's shape (N_t = 16, L = 6, 180 region
    components); "mean-scale-10" and "mean-scale-100": the same with the
    component means scaled up, so ||W_n Phi mu_n||^2 is 10^2 and 10^4 times
    larger, and the far rows scaled to match; "full-rank": random
    covariances with zero-weight components.
    """
    rng = ip.substream(11, "estimator", prior)
    if prior == "full-rank":
        pilot, model, covs = elimination_case(6, "full-rank")
        return pilot, model, covs, far_row_observations(pilot, model, rng)
    scale = float(prior.rpartition("-")[2]) if prior.startswith("mean-scale") else 1.0
    scenario = {**parse_config(str(NMSE_CONFIG)).scenario, "mean_scale": scale}
    model = build_users(scenario)[0][0]
    pilot = ip.random_stiefel(6, 16, rng)
    covs = scenario_covariances(scenario)
    return pilot, model, covs, far_row_observations(pilot, model, rng, 25.0 * scale)


class TestMixtureEstimator:
    @pytest.mark.parametrize(
        "prior", ["montecarlo", "full-rank", "mean-scale-10", "mean-scale-100"]
    )
    def test_matches_per_trial_oracle(self, prior):
        pilot, model, covs, obs = estimator_case(prior)
        est, resp = mmse_with_weights(obs, pilot, model)
        expected, expected_resp = per_trial_mmse(obs, pilot.entries, model, covs)
        error = np.linalg.norm(est - expected, axis=1)
        assert np.all(error <= 1e-12 * np.linalg.norm(expected, axis=1))
        assert np.abs(resp.sum(axis=1) - 1.0).max() <= 1e-12
        # weights clearly above the cut agree with the oracle, those clearly
        # below it are exactly 0, and on the far rows most weights are
        log_top = np.log(expected_resp.max(axis=1, keepdims=True))
        above = expected_resp > np.exp(log_top + WEIGHT_CUT + 1.0)
        assert np.abs(resp - expected_resp)[above].max() <= 1e-12
        assert np.all(resp[expected_resp < np.exp(log_top + WEIGHT_CUT - 1.0)] == 0.0)
        assert np.mean(resp[::3] == 0.0) > 0.5
        # no subnormal weight survives to slow the products down
        tiny = np.finfo(float).tiny
        assert not np.any((resp > 0.0) & (resp < tiny))
        assert np.all(resp[:, model.weights == 0.0] == 0.0)

    @pytest.mark.parametrize(
        "config, n_trials, sizes",
        [(NMSE_CONFIG, 3000, [314] * 9 + [174]), (DIAG_CONFIG, 600, [600])],
        ids=lambda v: getattr(v, "stem", None),
    )
    def test_chunks_at_the_shipped_shapes(self, config, n_trials, sizes):
        # the Monte Carlo NMSE and SER runs' shape (N_t = 16, L = 6, 180
        # components), and the capacity diagnostic's, whose trials stay one chunk
        scenario = parse_config(str(config)).scenario
        model = build_users(scenario)[0][0]
        pilot = ip.random_stiefel(scenario["pilot_len"], scenario["n_tx"], ip.substream(13, "chunks"))
        assert chunk_sizes(np.zeros((n_trials, pilot.n_slots), complex), pilot, model) == sizes

    def test_chunks_equal_single_chunk_calls(self):
        # 1,156 rows at the NMSE shape, three full chunks and a remainder,
        # against calls of 340 rows, whose boundaries do not line up with them
        pilot, model, _, _ = estimator_case("montecarlo")
        n_rows, rows = 1156, 340
        chunks = chunk_sizes(np.zeros((n_rows, pilot.n_slots), complex), pilot, model)
        assert len(chunks) == 4 and rows % chunks[0] and chunks[3] < chunks[0]
        rng = ip.substream(12, "estimator", "chunks")
        noise = model.noise_std * ip.complex_normal(rng, (n_rows, pilot.n_slots))
        obs = ip.sample_channels(model, n_rows, rng) @ pilot.entries.T + noise
        obs[::5] = 25.0 * ip.complex_normal(rng, obs[::5].shape)
        est, resp = mmse_with_weights(obs, pilot, model)
        pieces = [
            mmse_with_weights(obs[start : start + rows], pilot, model)
            for start in range(0, n_rows, rows)
        ]
        expected = np.concatenate([p[0] for p in pieces])
        expected_resp = np.concatenate([p[1] for p in pieces])
        error = np.linalg.norm(est - expected, axis=1)
        assert np.all(error <= 1e-14 * np.linalg.norm(expected, axis=1))
        # relative to a row's total of 1: a weight's own relative error is its
        # log weight's absolute roundoff, which grows with the quadratic form
        assert np.abs(resp - expected_resp).max() <= 1e-14

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_observation_names_its_row(self, bad):
        pilot, model, _, obs = estimator_case("full-rank")
        obs[7, 2] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ip.NumericError, match=r"^observations\[7, 2\]: expected a finite number$"):
                ip.gmm_mmse_batch(obs, pilot, model)


def per_trial_c_worst(pilot, users, block_len, trials, rng):
    """The capacity bound with its per-trial log-determinant loop."""
    phi = pilot.entries
    n_slots, n_tx = phi.shape
    estimates = np.empty((trials, len(users), n_tx), dtype=complex)
    err_power = ch_power = 0.0
    for k, model in enumerate(users):
        channels = ip.sample_channels(model, trials, rng)
        obs = channels @ phi.T + model.noise_std * ip.complex_normal(rng, (trials, n_slots))
        est = ip.evaluation.gmm_mmse_batch(obs, phi, model)
        estimates[:, k, :] = est
        err_power += float(np.sum(np.abs(channels - est) ** 2))
        ch_power += float(np.sum(np.abs(channels) ** 2))
    eff_snr = effective_training_snr(err_power / ch_power)
    total = 0.0
    eye = np.eye(len(users))
    for h_hat in estimates:
        power = np.mean(np.abs(h_hat) ** 2)
        if power <= 0:
            continue
        h_bar = h_hat / np.sqrt(power)
        total += np.linalg.slogdet(eye + eff_snr * (h_bar.conj() @ h_bar.T) / n_tx)[1]
    return float(block_len / (block_len + n_slots) * total / trials)


class TestCapacityBound:
    @pytest.mark.parametrize("zeroed", [None, 4, 1])
    @pytest.mark.parametrize("config", [DIAG_CONFIG, SWEEP_CONFIG])
    def test_batched_equals_per_trial_loop(self, config, zeroed, monkeypatch):
        scenario = parse_config(str(config)).scenario
        users = build_users(scenario)[0]
        estimator = ip.evaluation.gmm_mmse_batch

        def zeroing(obs, pilot, model):
            est = estimator(obs, pilot, model)
            if zeroed:
                est[::zeroed] = 0.0  # trials with zero estimate power
            return est

        monkeypatch.setattr(ip.evaluation, "gmm_mmse_batch", zeroing)
        rng = ip.substream(3, "cworst")
        pilot = ip.random_stiefel(scenario["pilot_len"], scenario["n_tx"], rng)
        got = ip.c_worst_estimate(pilot, users, 100, 150, ip.substream(4, "cworst"))
        expected = per_trial_c_worst(pilot, users, 100, 150, ip.substream(4, "cworst"))
        assert got == expected
        assert (got == 0.0) == (zeroed == 1)


def dense_root_sampler(model, covariances, n_samples, rng):
    """Channel draws from full eigen square roots of the covariances
    ``model`` was built from, one per component; also returns each draw's
    standard normals."""
    vals, vecs = np.linalg.eigh(covariances)
    roots = vecs * np.sqrt(np.clip(vals, 0.0, None))[:, None, :]
    indices = rng.choice(model.n_components, size=n_samples, p=model.weights)
    out = np.empty((n_samples, model.n_tx), dtype=complex)
    normals = np.empty_like(out)
    for comp in np.unique(indices):
        mask = indices == comp
        z = complex_normal(rng, (int(mask.sum()), model.n_tx))
        out[mask] = model.means[comp] + z @ roots[comp].T
        normals[mask] = z
    return out, normals


def old_layout_sampler(model, n_samples, rng):
    """``sample_channels`` as it read the factor stacked component-major:
    (N_t, N_k q), column n*q + j holding column j of A_n."""
    old = np.ascontiguousarray(model.factor.transpose(0, 2, 1)).reshape(model.n_tx, -1)
    blocks = old.reshape(model.n_tx, model.n_components, -1)
    rank = blocks.shape[2]
    indices = rng.choice(model.n_components, size=n_samples, p=model.weights)
    out = np.empty((n_samples, model.n_tx), dtype=complex)
    for comp in np.unique(indices):
        mask = indices == comp
        z = complex_normal(rng, (int(mask.sum()), model.n_tx))
        out[mask] = model.means[comp] + z[:, -rank:] @ blocks[:, comp].T
    return out


class TestFactorSampler:
    def test_bit_identical_to_old_layout_sampler(self):
        diag_users = build_objective(parse_config(str(DIAG_CONFIG)).scenario, 0.0).users
        models = sweep_users() + diag_users + gradient_instance(0)[1].users
        models.append(elimination_case(4, "region")[1])
        for i, model in enumerate(models):
            rng, old_rng = ip.substream(i, "layout"), ip.substream(i, "layout")
            got = ip.sample_channels(model, 2000, rng)
            assert np.array_equal(got, old_layout_sampler(model, 2000, old_rng))
            assert rng.bit_generator.state == old_rng.bit_generator.state

    @pytest.mark.parametrize(
        "config, n_samples, zero_weights",
        [
            (NMSE_CONFIG, 3000, False),
            (NMSE_CONFIG, 400, False),
            (DIAG_CONFIG, 600, False),
            (NMSE_CONFIG, 1, False),
            (NMSE_CONFIG, 400, True),
        ],
        ids=["nmse-3000", "ser-400", "diag-zero-means-600", "one-draw", "zero-weight-components"],
    )
    def test_bit_identical_to_per_component_sampler(self, config, n_samples, zero_weights):
        # the Monte Carlo NMSE, SER and capacity-diagnostic draws, one draw,
        # and a prior whose zero-weight components draw nothing
        model = build_users(parse_config(str(config)).scenario)[0][0]
        if zero_weights:
            weights = model.weights.copy()
            weights[::2] = 0.0
            model = model._for_user(weights / weights.sum(), model.noise_std)
        rng, ref_rng = ip.substream(n_samples, "by-component"), ip.substream(n_samples, "by-component")
        got = ip.sample_channels(model, n_samples, rng)
        expected = per_component_sampler(model, n_samples, ref_rng)
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_matches_dense_root_sampler_on_one_stream(self):
        _, objective, _, stacks = gradient_instance(0)
        cases = config_priors(SWEEP_CONFIG, DIAG_CONFIG) + list(zip(objective.users, stacks))
        for i, (model, covs) in enumerate(cases):
            lam_max = np.linalg.eigvalsh(covs).max()
            # the factor drops only eigenvalues <= FACTOR_RANK_CUT * lam_max,
            # so per draw |h - h_dense| <= sqrt(cut * lam_max) |z|; the factor 2
            # covers roundoff, which is about 1e-7 of that term
            scale = 2.0 * np.sqrt(FACTOR_RANK_CUT * lam_max)
            rng, dense_rng = ip.substream(i, "sampler"), ip.substream(i, "sampler")
            got = ip.sample_channels(model, 2000, rng)
            expected, normals = dense_root_sampler(model, covs, 2000, dense_rng)
            deviation = np.linalg.norm(got - expected, axis=1)
            assert np.all(deviation <= scale * np.linalg.norm(normals, axis=1))
            assert rng.bit_generator.state == dense_rng.bit_generator.state


class TestZeroForcing:
    def test_batched_equals_per_block_calls(self):
        rng = ip.substream(3, "zf-stack")
        for shape in ((40, 4, 16), (3, 5, 2, 9)):
            h = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            w = ip.zf_precode(h)
            for block in np.ndindex(shape[:-2]):
                assert np.array_equal(w[block], ip.zf_precode(h[block]))

    def test_link_simulation_names_the_rank_deficient_block(self):
        # two users with the same deterministic channel: every estimate Gram
        # is rank one, so the first block already fails
        mean = steering_vector(8, 0.5, 20.0)[None, :]
        user = ip.GmmUserModel(
            weights=[1.0], means=mean, covariances=np.zeros((1, 8, 8)), noise_std=0.3
        )
        pilot = ip.random_stiefel(3, 8, ip.substream(4, "zf-link"))
        with pytest.raises(ip.SingularMatrixError, match="rank deficient in block 0$"):
            ip.ser_experiment(pilot, [user, user], [10.0], 1000, 100, ip.substream(5, "zf-link"))


def short_sweep():
    """Shipped sweep scenario and initializer, three trade-off values, 50 iterations."""
    config = parse_config(str(SWEEP_CONFIG))
    scenario = config.scenario
    init = ip.random_stiefel(
        scenario["pilot_len"], scenario["n_tx"], ip.substream(config.seed, "init")
    )
    settings = ip.OptimizerConfig(config.optimizer.step_size, GOLDEN_ITERS, config.optimizer.rel_tol)
    points = []
    for rho in GOLDEN_RHOS:
        trace = ip.optimize_pgd(init, build_objective(scenario, rho), settings)
        points.append(
            {
                "rho": rho,
                "iters": trace.n_iterations,
                "objective": trace.objective.tolist(),
                "comm_mi": trace.comm_mi.tolist(),
                "sense_mi": trace.sense_mi.tolist(),
            }
        )
    return points


def test_golden_short_sweep():
    golden = json.loads(GOLDEN.read_text())
    points = short_sweep()
    assert [p["rho"] for p in points] == [p["rho"] for p in golden]
    for got, ref in zip(points, golden):
        assert got["iters"] == ref["iters"]
        for key in ("objective", "comm_mi", "sense_mi"):
            np.testing.assert_allclose(got[key], ref[key], rtol=1e-10, atol=0)
