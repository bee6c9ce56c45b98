"""Tests for the MCMC machinery: distribution samplers, conjugate updates,
Metropolis moves, latent-field updates, clustering, and the chain driver."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammaln

from spiox.config import RunConfig
from spiox.errors import NumericalError, ValidationError
from spiox.geom import LocationSet
from spiox.inference import (JointAdaptive, McmcState, Priors, Sampler, SiteSweep,
                             _new_counts, _two_stage_accept, collapsed_loglik,
                             default_priors, draw_inverse_wishart, pcg_solve,
                             run_chain, sweep_w_sites,
                             update_beta_latent, update_beta_response,
                             update_cluster_assignments, update_delta,
                             update_sigma, update_theta_joint,
                             update_w_single_outcome, update_w_single_site)
from spiox.ioxcore import (IoxModel, OutcomeMatrix, conditional_loglik,
                           whiten_columns)
from spiox.kernels import KernelParams, corr_matrix
from spiox.predict import simulate_prior_reference

from conftest import dense_iox_cov, mvn_condition, rand_locations, rand_spd


class SeqRng:
    """Deterministic stand-in for a Generator: standard_normal pops from a
    queue (default zeros), random() returns a fixed value."""

    def __init__(self, normals=None, uniform=0.0):
        self.normals = list(normals or [])
        self.uniform = uniform

    def standard_normal(self, size=None):
        if self.normals:
            out = np.asarray(self.normals.pop(0), dtype=float)
            return out if size is not None else float(out)
        if size is None:
            return 0.0
        return np.zeros(size)

    def random(self):
        return self.uniform

    def chisquare(self, df):
        raise NotImplementedError

    def gamma(self, *a, **kw):
        raise NotImplementedError


def small_problem(n=12, q=2, seed=0, m=None, tau2=1e-3, latent=False,
                  delta=0.3):
    rng = np.random.default_rng(seed)
    S = rand_locations(n, seed=seed)
    thetas = [KernelParams(rng.uniform(6, 18), rng.uniform(0.5, 1.6), tau2)
              for _ in range(q)]
    Sigma = rand_spd(q, seed=seed + 1, diag_boost=1.0)
    m = n - 1 if m is None else m
    model = IoxModel(S, thetas, Sigma, m=m, order_scheme=np.arange(n))
    Y = simulate_prior_reference(model, rng) + 0.05 * rng.standard_normal((n, q))
    data = OutcomeMatrix(Y)
    state = McmcState(model, data, B=np.zeros((1, q)),
                      Delta=(np.full(q, delta) if latent else None),
                      W=(Y.copy() if latent else None))
    return model, data, state, S, thetas, Sigma


class TestInverseWishart:
    def test_symmetric(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            S = draw_inverse_wishart(8, rand_spd(3, seed=1), rng)
            assert np.abs(S - S.T).max() <= 1e-12

    def test_q1_inverse_gamma_reduction(self):
        rng = np.random.default_rng(1)
        d = np.array([draw_inverse_wishart(9.0, [[4.0]], rng)[0, 0]
                      for _ in range(40000)])
        # IG(9/2, 2): mean 2/(4.5-1), var mean^2/(a-2)
        mean = 2.0 / 3.5
        se = d.std() / np.sqrt(len(d))
        assert abs(d.mean() - mean) <= 4 * se

    def test_mc_mean(self):
        rng = np.random.default_rng(2)
        q, nu = 3, 10.0
        draws = np.array([draw_inverse_wishart(nu, np.eye(q), rng)
                          for _ in range(100000)])
        target = np.eye(q) / (nu - q - 1)
        se = draws.std(axis=0) / np.sqrt(draws.shape[0])
        assert np.all(np.abs(draws.mean(axis=0) - target) <= 3 * se + 1e-12)

    def test_df_guard(self):
        with pytest.raises(ValidationError):
            draw_inverse_wishart(1.5, np.eye(3), np.random.default_rng(0))

    def test_indefinite_scale_is_numerical_error(self):
        with pytest.raises(NumericalError, match="inverse-Wishart scale"):
            draw_inverse_wishart(5.0, [[1.0, 2.0], [2.0, 1.0]], np.random.default_rng(0))


class TestSigmaUpdate:
    def test_empty_v_prior_draw(self):
        model, data, state, *_ = small_problem()
        pr = Priors(sigma_df=6.0).validate(2)
        rng = np.random.default_rng(3)
        state.V = np.empty((0, 2))
        draws = np.array([update_sigma(state, pr, rng) for _ in range(30000)])
        target = pr.sigma_scale / (6.0 - 2 - 1)
        se = draws.std(axis=0) / np.sqrt(len(draws))
        assert np.all(np.abs(draws.mean(axis=0) - target) <= 4 * se)

    def test_posterior_mean_identity(self):
        model, data, state, *_ = small_problem(n=10, q=2, seed=4)
        V = np.random.default_rng(4).standard_normal((10, 2))
        pr = Priors(sigma_df=7.0).validate(2)
        rng = np.random.default_rng(5)
        state.V = V
        draws = np.array([update_sigma(state, pr, rng) for _ in range(100000)])
        target = (pr.sigma_scale + V.T @ V) / (7.0 + 10 - 2 - 1)
        se = draws.std(axis=0) / np.sqrt(len(draws))
        assert np.all(np.abs(draws.mean(axis=0) - target) <= 4 * se)

    def test_orthogonal_columns_concentrate_diagonal(self):
        n, q = 40, 2
        model, data, state, *_ = small_problem(n=n, q=q, seed=6)
        V = np.zeros((n, q))
        V[:n // 2, 0] = np.sqrt(float(n))
        V[n // 2:, 1] = np.sqrt(float(n))
        pr = Priors(sigma_df=q + 2.0).validate(q)
        rng = np.random.default_rng(6)
        state.V = V
        draws = np.array([update_sigma(state, pr, rng) for _ in range(3000)])
        m = draws.mean(axis=0)
        assert abs(m[0, 1]) < m[0, 0] and abs(m[0, 1]) < m[1, 1]


class TestBetaUpdates:
    def _dense_beta_oracle(self, data, S, thetas, Sigma, priors):
        n, q, p = data.n, data.q, data.p
        C = dense_iox_cov(S, thetas, Sigma)
        Xq = np.kron(np.eye(q), data.X)
        Ci = np.linalg.inv(C)
        P = np.eye(p * q) / priors.beta_var + Xq.T @ Ci @ Xq
        rhs = np.full(p * q, priors.beta_mean) / priors.beta_var \
            + Xq.T @ Ci @ data.Y.T.ravel()
        mean = np.linalg.solve(P, rhs)
        return mean, np.linalg.inv(P)

    def test_posterior_moments_match_dense_oracle(self):
        n, q = 15, 2
        rng = np.random.default_rng(7)
        S = rand_locations(n, seed=7)
        thetas = [KernelParams(8.0, 0.7, 1e-2), KernelParams(14.0, 1.3, 1e-2)]
        Sigma = rand_spd(q, seed=8, diag_boost=1.0)
        X = np.column_stack([np.ones(n), rng.uniform(-1, 1, n)])
        model = IoxModel(S, thetas, Sigma, m=n - 1, order_scheme=np.arange(n))
        Y = rng.standard_normal((n, q)) + X @ np.array([[1.0, -2.0], [0.5, 0.3]])
        data = OutcomeMatrix(Y, X)
        state = McmcState(model, data, B=np.zeros((2, q)))
        pr = Priors(beta_mean=0.0, beta_var=25.0).validate(q)
        mean_o, cov_o = self._dense_beta_oracle(data, S, thetas, Sigma, pr)
        # zero-noise draw returns the posterior mean
        B = update_beta_response(state, pr, SeqRng())
        assert np.abs(B.T.ravel() - mean_o).max() <= 1e-8
        # unit-vector draws expose the Cholesky factor: columns of R^{-T}
        pq = 2 * q
        cols = []
        for k in range(pq):
            z = np.zeros(pq)
            z[k] = 1.0
            Bk = update_beta_response(state, pr, SeqRng([z]))
            cols.append(Bk.T.ravel() - mean_o)
        F = np.column_stack(cols)
        assert np.abs(F @ F.T - cov_o).max() <= 1e-8

    def test_gls_limit(self):
        n, q = 20, 1
        rng = np.random.default_rng(8)
        S = rand_locations(n, seed=9)
        thetas = [KernelParams(10.0, 1.0, 1e-2)]
        model = IoxModel(S, thetas, np.array([[2.0]]), m=n - 1,
                         order_scheme=np.arange(n))
        X = np.column_stack([np.ones(n), rng.uniform(0, 1, n)])
        Y = (X @ np.array([2.0, -1.0]) + 0.1 * rng.standard_normal(n))[:, None]
        data = OutcomeMatrix(Y, X)
        state = McmcState(model, data, B=np.zeros((2, 1)))
        pr = Priors(beta_var=1e8).validate(q)
        B = update_beta_response(state, pr, SeqRng())
        from conftest import dense_iox_cov as dc
        C = dc(S, thetas, np.array([[2.0]]))
        gls = np.linalg.solve(X.T @ np.linalg.solve(C, X),
                              X.T @ np.linalg.solve(C, Y[:, 0]))
        assert np.abs(B[:, 0] - gls).max() <= 1e-6

    def test_zero_design_returns_prior(self):
        n, q = 10, 2
        S = rand_locations(n, seed=10)
        thetas = [KernelParams(9.0, 0.9, 1e-2)] * 2
        model = IoxModel(S, thetas, np.eye(2), m=0)
        data = OutcomeMatrix(np.random.default_rng(9).standard_normal((n, q)),
                             X=np.zeros((n, 1)))
        state = McmcState(model, data, B=np.zeros((1, q)))
        pr = Priors(beta_mean=3.0, beta_var=4.0).validate(q)
        B = update_beta_response(state, pr, SeqRng())
        assert np.abs(B - 3.0).max() <= 1e-10
        z = np.array([1.0, 0.0])
        B1 = update_beta_response(state, pr, SeqRng([z]))
        assert B1.T.ravel()[0] - 3.0 == pytest.approx(2.0, rel=1e-9)

    def test_latent_beta_conjugacy(self):
        n, q = 25, 2
        rng = np.random.default_rng(10)
        model, data, state, S, thetas, Sigma = small_problem(
            n=n, q=q, seed=11, latent=True)
        pr = Priors(beta_mean=0.0, beta_var=9.0).validate(q)
        B = update_beta_latent(state, pr, SeqRng())
        for j in range(q):
            prec = 1.0 / 9.0 + float(data.X[:, 0] @ data.X[:, 0]) / state.Delta[j]
            rhs = float(data.X[:, 0] @ (data.Y[:, j] - state.W[:, j])) / state.Delta[j]
            assert B[0, j] == pytest.approx(rhs / prec, rel=1e-10)


class TestThetaUpdates:
    def test_identity_proposal_accepts(self):
        model, data, state, *_ = small_problem(seed=12)
        pr = default_priors(model.S, 2)
        theta_before = list(model.theta)
        # zero-step proposals keep theta (up to log/exp round-trip), ratio 1
        acc, th = update_theta_joint(state, pr, SeqRng(uniform=0.0))
        assert acc == 2
        for before, after in zip(theta_before, th):
            assert after.phi == pytest.approx(before.phi, rel=1e-15)
            assert after.nu == pytest.approx(before.nu, rel=1e-15)
            assert after.tau2 == pytest.approx(before.tau2, rel=1e-15)

    def test_out_of_support_rejects(self, monkeypatch):
        model, data, state, *_ = small_problem(seed=13)
        pr = default_priors(model.S, 2)
        model.surrogate_factors  # the current surrogates, built before the move

        def no_build(p):
            raise AssertionError("an out-of-box proposal built a factor")
        monkeypatch.setattr(model, "_build_factor", no_build)
        monkeypatch.setattr(model.surrogate_workspace, "build", no_build)
        counts = _new_counts()
        big = [np.array(50.0)] * 2
        acc, th = update_theta_joint(state, pr, SeqRng(normals=big, uniform=0.0),
                                     counts=counts)
        assert acc == 0
        assert counts == {"theta_proposals": 2, "theta_accepts": 0,
                          "theta_stage2_runs": 0, "theta_build_failures": 0}

    def test_block_rebuilds_factor_on_accept(self):
        model, data, state, *_ = small_problem(seed=14)
        pr = default_priors(model.S, 2)
        f_before = model.factors
        acc, th = update_theta_joint(state, pr, np.random.default_rng(3))
        # an accepted component installs a new factor, a rejected one keeps its own
        assert acc == sum(model.factors[c] is not f_before[c] for c in range(2))
        for c in range(2):
            assert model.factors[c].params == th[c]
        assert state.check_V(1e-10)

    def test_joint_accept_updates_all(self):
        # uniform 0 accepts every proposal with a positive acceptance
        # probability: small steps move every component, and each installs
        # the factor and the surrogate of its new params
        model, data, state, *_ = small_problem(seed=15)
        pr = default_priors(model.S, 2)
        before = list(model.theta)
        counts = _new_counts()
        acc, th = update_theta_joint(state, pr, SeqRng([np.full(3, 0.05)] * 2, uniform=0.0),
                                     counts=counts)
        assert acc == 2 and counts["theta_accepts"] == 2
        assert counts["theta_stage2_runs"] == 2
        G = state.gp_matrix()
        for c in range(2):
            assert th[c] != before[c]
            assert model.factors[c].params == th[c]
            fresh = model.surrogate_workspace.build(th[c])
            assert np.array_equal(model.surrogate_factors[c].whiten(G[:, c]),
                                  fresh.whiten(G[:, c]))
        assert state.check_V(1e-10)

    def test_mh_log_ratio_antisymmetric(self):
        model, data, state, *_ = small_problem(n=10, seed=16)
        pr = default_priors(model.S, 2)
        G = state.gp_matrix()

        def target(p0):
            old = model.theta[0]
            model.set_theta(0, p0)
            V = whiten_columns(G, model)
            val = conditional_loglik(0, V, model)
            model.set_theta(0, old)
            return val

        pa = KernelParams(8.0, 0.9, 1e-3)
        pb = KernelParams(12.0, 1.1, 2e-3)
        r_ab = target(pb) - target(pa)
        r_ba = target(pa) - target(pb)
        assert abs(r_ab + r_ba) <= 1e-10

    def test_adaptive_scale_freeze(self):
        sc = JointAdaptive(1, target=0.3)
        s0 = sc.log_s
        sc.update(1.0, np.zeros(1))
        assert sc.log_s > s0
        sc.frozen = True
        s1, count = sc.log_s, sc.count
        sc.update(1.0, np.ones(1))
        assert sc.log_s == s1 and sc.count == count

    def test_block_acceptance_window_after_adaptation(self):
        rng = np.random.default_rng(20)
        n, q = 150, 2
        S = rand_locations(n, seed=21)
        truth = [KernelParams(20.0, 0.6, 1e-3), KernelParams(15.0, 1.2, 1e-3)]
        Sigma = np.array([[1.0, -0.6], [-0.6, 1.0]])
        gen = IoxModel(S, truth, Sigma, m=0)
        Y = simulate_prior_reference(gen, rng)
        data = OutcomeMatrix(Y)
        model = IoxModel(S, [KernelParams(10.0, 1.0, 1e-3)] * q, Sigma, m=12,
                         order_seed=0)
        state = McmcState(model, data, B=np.zeros((1, q)))
        pr = default_priors(S, q)
        scales = [JointAdaptive(3, target=0.3) for _ in range(q)]
        total = accepted = 0
        for it in range(400):
            a, _ = update_theta_joint(state, pr, rng, scales=scales)
            if it >= 200:
                accepted += a
                total += q
        rate = accepted / total
        assert 0.1 <= rate <= 0.5


def _log_marginal_by_quadrature(y, R, nu0, psi):
    """log of the integral over sigma2 of N(y | 0, sigma2 R) IG(sigma2; nu0/2,
    psi/2), the q = 1 inverse-Wishart prior, by quadrature over log sigma2."""
    n = len(y)
    logdet = np.linalg.slogdet(R)[1]
    quadform = float(y @ np.linalg.solve(R, y))
    a, b = nu0 / 2, psi / 2

    def log_f(u):  # integrand in u = log sigma2, Jacobian included
        return (-0.5 * n * (math.log(2 * math.pi) + u) - 0.5 * logdet
                - 0.5 * quadform * math.exp(-u)
                + a * math.log(b) - gammaln(a) - a * u - b * math.exp(-u))
    # the mode of log_f, where the integrand peaks
    u0 = math.log((quadform / 2 + b) / (n / 2 + a))
    top = log_f(u0)
    val, _ = quad(lambda u: math.exp(log_f(u) - top), u0 - 40, u0 + 40,
                  epsabs=0.0, epsrel=1e-13, limit=400, points=[u0])
    return top + math.log(val)


class TestCollapsedTarget:
    """The Sigma-collapsed theta target against an independent integration
    over sigma2 at q = 1, where the inverse-Wishart prior is an inverse
    gamma, and the law of a long exact-path chain driven by it."""

    def test_q1_matches_quadrature_over_sigma2(self):
        n = 14
        S = rand_locations(n, seed=40)
        y = np.random.default_rng(40).standard_normal(n)
        pr = Priors(sigma_df=3.0, sigma_scale=np.array([[0.7]])).validate(1)
        thetas = [KernelParams(6.0, 0.8, 1e-2), KernelParams(15.0, 1.4, 3e-2),
                  KernelParams(25.0, 0.5, 1e-3)]
        ours, oracle = [], []
        for p in thetas:
            for m in (0, n - 1):
                model = IoxModel(S, [p], np.eye(1), m=m, order_scheme=np.arange(n))
                f = model.factor_for(0)
                ours.append(collapsed_loglik(f.sum_log_diag(), f.whiten(y)[:, None], pr))
            oracle.append(_log_marginal_by_quadrature(y, corr_matrix(S, S, p), 3.0, 0.7))
        # the collapsed target drops a constant free of theta: compare ratios
        for i in range(len(thetas)):
            for m in range(2):
                want = oracle[i] - oracle[0]
                assert abs((ours[2 * i + m] - ours[0]) - want) <= 1e-8

    def test_exact_chain_matches_quadrature_posterior(self):
        # m = 0 (single stage), n = 12, q = 1, only phi free: the chain's mean
        # and variance of log phi against the posterior on a grid of log phi,
        # each grid value integrated over sigma2 by quadrature
        n = 12
        S = rand_locations(n, seed=41)
        nu, tau2 = 0.9, 1e-2
        gen = IoxModel(S, [KernelParams(8.0, nu, tau2)], np.array([[1.5]]), m=0)
        y = simulate_prior_reference(gen, np.random.default_rng(41))
        pr = Priors(sigma_df=3.0, phi_bounds=(1.0, 60.0), nu_bounds=(nu, nu),
                    tau2_bounds=(tau2, tau2)).validate(1)
        u = np.linspace(math.log(1.0), math.log(60.0), 801)
        logpost = np.array([_log_marginal_by_quadrature(
            y[:, 0], corr_matrix(S, S, KernelParams(math.exp(v), nu, tau2)), 3.0, 1.0) + v
            for v in u])
        w = np.exp(logpost - logpost.max())
        w /= np.trapezoid(w, u)
        mean = np.trapezoid(u * w, u)
        var = np.trapezoid((u - mean) ** 2 * w, u)

        model = IoxModel(S, [KernelParams(8.0, nu, tau2)], np.eye(1), m=0)
        state = McmcState(model, OutcomeMatrix(y), B=np.zeros((1, 1)))
        rng = np.random.default_rng(42)
        scales = [JointAdaptive(1, target=0.3)]
        burn, keep = 1000, 20000
        xs = np.empty(keep)
        for it in range(burn + keep):
            if it == burn:
                scales[0].frozen = True
            update_theta_joint(state, pr, rng, scales=scales)
            if it >= burn:
                xs[it - burn] = math.log(model.theta[0].phi)
        assert TestTwoStageAccept.within_4se(xs, mean)
        assert TestTwoStageAccept.within_4se((xs - mean) ** 2, var)


class TestTwoStageAccept:
    """The delayed-acceptance decision on a 1-D random walk: a biased
    surrogate changes which proposals reach stage 2, not the stationary law."""

    @staticmethod
    def walk(log_target, log_surrogate, steps, seed, step=2.0):
        rng = np.random.default_rng(seed)
        counts = {"theta_stage2_runs": 0, "theta_build_failures": 0}
        xs = np.empty(steps)
        x, accepted = 0.0, 0
        for i in range(steps):
            y = x + step * rng.standard_normal()
            ok, _ = _two_stage_accept(
                rng, None if log_surrogate is None
                else (lambda: log_surrogate(y) - log_surrogate(x)),
                lambda: log_target(y) - log_target(x), counts)
            if ok:
                x, accepted = y, accepted + 1
            xs[i] = x
        return xs, accepted, counts

    @staticmethod
    def within_4se(values, want, batches=50):
        """The mean of a chain's values against ``want``, with the Monte
        Carlo standard error from batch means."""
        means = values.reshape(batches, -1).mean(axis=1)
        se = means.std(ddof=1) / np.sqrt(batches)
        return abs(values.mean() - want) <= 4 * se

    def test_biased_surrogate_keeps_target_moments(self):
        # target N(1, 0.5^2); surrogate N(1.6, 0.8^2): shifted and too wide
        def log_target(x):
            return -0.5 * ((x - 1.0) / 0.5) ** 2

        def log_surrogate(x):
            return -0.5 * ((x - 1.6) / 0.8) ** 2

        xs, accepted, counts = self.walk(log_target, log_surrogate, 100000, seed=5,
                                         step=1.2)
        assert self.within_4se(xs, 1.0)
        assert self.within_4se((xs - 1.0) ** 2, 0.25)
        # stage 1 screened out some proposals, stage 2 rejected some survivors
        assert accepted < counts["theta_stage2_runs"] < 100000
        assert counts["theta_build_failures"] == 0

    def test_exact_surrogate_never_rejects_at_stage_2(self):
        def log_target(x):
            return -0.5 * x * x

        xs, accepted, counts = self.walk(log_target, log_target, 5000, seed=6)
        assert counts["theta_stage2_runs"] == accepted
        assert 0 < accepted < 5000

    def test_single_stage_counts_every_proposal(self):
        xs, accepted, counts = self.walk(lambda x: -0.5 * x * x, None, 2000, seed=7)
        assert counts["theta_stage2_runs"] == 2000
        assert 0 < accepted < 2000

    def test_failed_build_rejects_and_counts(self):
        counts = {"theta_stage2_runs": 0, "theta_build_failures": 0}

        def fails():
            raise NumericalError("factor failed")
        for stage1, stage2 in ((fails, lambda: 0.0), (lambda: 0.0, fails)):
            assert _two_stage_accept(SeqRng(uniform=0.0), stage1, stage2,
                                     counts) == (False, 0.0)
        assert counts == {"theta_stage2_runs": 1, "theta_build_failures": 2}


class TestLatentUpdates:
    def test_w_outcome_mean_matches_dense_conditional(self):
        n, q, j = 12, 2, 0
        model, data, state, S, thetas, Sigma = small_problem(
            n=n, q=q, seed=17, latent=True, delta=0.2)
        # oracle: joint Gaussian of (w stacked, y_j) conditioned on w_{j^c}, y_j
        C = dense_iox_cov(S, thetas, Sigma)
        nq = n * q
        joint = np.zeros((nq + n, nq + n))
        joint[:nq, :nq] = C
        jm = np.arange(j * n, (j + 1) * n)
        joint[nq:, :nq] = C[jm, :]
        joint[:nq, nq:] = C[:, jm]
        joint[nq:, nq:] = C[np.ix_(jm, jm)] + state.Delta[j] * np.eye(n)
        obs_idx = np.concatenate([np.setdiff1d(np.arange(nq), jm), nq + np.arange(n)])
        wvec = state.W.T.ravel()
        yj = data.Y[:, j] - data.X @ state.B[:, j]
        obs_val = np.concatenate([wvec[np.setdiff1d(np.arange(nq), jm)], yj])
        mis, cmean, ccov = mvn_condition(np.zeros(nq + n), joint, obs_idx, obs_val)
        w_draw = update_w_single_outcome(j, state, SeqRng())
        assert np.abs(w_draw - cmean).max() <= 1e-6
        assert state.check_V(1e-9)

    def test_w_outcome_interpolation_limits(self):
        model, data, state, *_ = small_problem(n=10, q=2, seed=18, latent=True)
        state.Delta = np.array([1e-12, 1e-12])
        w = update_w_single_outcome(0, state, SeqRng())
        resid = data.Y[:, 0] - data.X @ state.B[:, 0]
        assert np.abs(w - resid).max() <= 1e-4
        # delta -> infinity reverts to the prior conditional mean
        state.Delta = np.array([1e12, 1e12])
        w_inf = update_w_single_outcome(0, state, SeqRng())
        Q = model.Q
        s = state.V @ Q[:, 0] - Q[0, 0] * state.V[:, 0]
        f = model.factor_for(0)
        # prior conditional mean m_j = -L_j (sum_{r != j} Q_jr v_r) / Q_jj
        m_prior = -f.unwhiten(s) / Q[0, 0]
        assert np.abs(w_inf - m_prior).max() <= 1e-4

    def test_w_site_independent_reduction(self):
        # a site isolated from all others: full conditional is the
        # precision-weighted blend of prior and data
        coords = np.vstack([np.array([[0.0, 0.0]]),
                            100.0 + rand_locations(6, seed=19).coords])
        S = LocationSet(coords)
        p = KernelParams(5.0, 0.5, 0.0)
        sigma11 = 1.8
        model = IoxModel(S, [p], np.array([[sigma11]]), m=3,
                         order_scheme=np.arange(7))
        rng = np.random.default_rng(20)
        Y = rng.standard_normal((7, 1))
        data = OutcomeMatrix(Y)
        delta = 0.4
        state = McmcState(model, data, B=np.zeros((1, 1)),
                          Delta=np.array([delta]), W=Y.copy())
        w = update_w_single_site(0, state, SeqRng())
        prec = 1.0 / sigma11 + 1.0 / delta
        expect = (Y[0, 0] / delta) / prec
        assert w[0] == pytest.approx(expect, abs=1e-10)

    def test_w_site_sweep_tracks_v(self):
        model, data, state, *_ = small_problem(n=15, q=2, seed=21, latent=True,
                                               m=5)
        sweep = SiteSweep(model)
        sweep_w_sites(state, np.random.default_rng(4), sweep)
        assert state.check_V(1e-9)

    @pytest.mark.parametrize("m", [5, 15])
    def test_site_colouring_partitions_disjoint_supports(self, m):
        model, *_ = small_problem(n=80, q=2, seed=24, latent=True, m=m)
        sweep = SiteSweep(model)
        n = model.n
        # support of column i, from the DAG itself: node i and its children
        support = [{i} for i in range(n)]
        for c, par in enumerate(model.dag.parents):
            for i in par:
                support[int(i)].add(c)
        sites = np.concatenate([cls[0] for cls in sweep.classes])
        assert np.array_equal(np.sort(sites), np.arange(n))
        assert len(sweep.classes) > 1
        for cls in sweep.classes:
            rows = [r for i in cls[0] for r in support[i]]
            assert len(rows) == len(set(rows))
            assert sorted(cls[2].tolist()) == sorted(rows)

    def test_site_classes_match_sequential_site_updates(self):
        model, data, state, *_ = small_problem(n=60, q=3, seed=25, latent=True,
                                               m=5)
        sweep = SiteSweep(model)
        assert max(len(cls[0]) for cls in sweep.classes) > 1
        rng = np.random.default_rng(6)
        Z = [rng.standard_normal((len(cls[0]), 3)) for cls in sweep.classes]
        W0, V0 = state.W.copy(), state.V.copy()
        sweep_w_sites(state, SeqRng(Z), sweep)
        W_class, V_class = state.W.copy(), state.V.copy()

        state.W, state.V = W0.copy(), V0.copy()
        Up = state.V[sweep.order]
        E = (data.Y - data.X @ state.B)[sweep.order]
        for cls, z in zip(sweep.classes, Z):
            for i, zi in zip(cls[0], z):
                update_w_single_site(int(i), state, SeqRng([zi]),
                                     sweep=sweep, Up=Up, E=E)
        state.V[sweep.order] = Up
        assert np.abs(W_class - state.W).max() <= 1e-12
        assert np.abs(V_class - state.V).max() <= 1e-12
        assert np.abs(W_class - W0).min() > 0  # every site moved
        assert state.check_V(1e-9)

    def test_site_refresh_matches_per_site_products(self):
        model, *_ = small_problem(n=50, q=3, seed=26, latent=True, m=8)
        sweep = SiteSweep(model)
        model.set_theta(1, KernelParams(4.0, 1.1, 1e-2))
        sweep.refresh(model)
        indptr = model.factor_for(0).column_blocks()[0]
        data = [model.factor_for(j).column_blocks()[2] for j in range(3)]
        for i in range(model.n):
            M = np.vstack([d[indptr[i]:indptr[i + 1]] for d in data])
            mmt = M @ M.T  # entries up to about 50: 1e-14 relative
            assert np.abs(sweep.mmt[i] - mmt).max() <= 1e-14 * np.abs(mmt).max()

    def test_delta_updates(self):
        model, data, state, *_ = small_problem(n=30, q=2, seed=22, latent=True)
        pr = Priors(delta_a=2.0, delta_b=1.0).validate(2)
        state.W = data.Y.copy()  # residual exactly zero
        rng = np.random.default_rng(5)
        draws = np.array([update_delta(state, pr, rng) for _ in range(100000)])
        mean = 1.0 / (2.0 + 15.0 - 1.0)
        se = draws.std(axis=0) / np.sqrt(len(draws))
        assert np.all(np.abs(draws.mean(axis=0) - mean) <= 4 * se)

    def test_delta_residual_scaling(self):
        model, data, state, *_ = small_problem(n=20, q=1, seed=23, latent=True)
        pr = Priors(delta_a=3.0, delta_b=0.5).validate(1)
        rng1, rng2 = np.random.default_rng(6), np.random.default_rng(6)
        resid = np.random.default_rng(7).standard_normal(20)
        state.W = data.Y - resid[:, None]
        a_post = 3.0 + 10.0
        d1 = np.array([update_delta(state, pr, rng1)[0] for _ in range(60000)])
        state.W = data.Y - 2.0 * resid[:, None]
        d2 = np.array([update_delta(state, pr, rng2)[0] for _ in range(60000)])
        b1 = d1.mean() * (a_post - 1) - 0.5
        b2 = d2.mean() * (a_post - 1) - 0.5
        assert b2 / b1 == pytest.approx(4.0, rel=0.05)

    def test_pcg_convergence_error(self):
        # severely ill-conditioned dense system, too few iterations allowed
        n = 60
        U = np.linalg.qr(np.random.default_rng(13).standard_normal((n, n)))[0]
        A = U @ np.diag(np.geomspace(1.0, 1e-12, n)) @ U.T
        with pytest.raises(Exception, match="residual"):
            pcg_solve(lambda x: A @ x, np.ones(n), np.ones(n), tol=1e-12,
                      maxiter=5)

    def test_pcg_solves(self):
        n = 40
        rng = np.random.default_rng(14)
        M = rng.standard_normal((n, n))
        A = M @ M.T + n * np.eye(n)
        b = rng.standard_normal(n)
        x = pcg_solve(lambda v: A @ v, b, np.diag(A), tol=1e-10)
        assert np.linalg.norm(A @ x - b) <= 1e-9 * np.linalg.norm(b)


class TestClusterUpdates:
    def test_k1_unchanged(self):
        n, q = 15, 3
        S = rand_locations(n, seed=24)
        model = IoxModel(S, [KernelParams(10.0, 1.0, 1e-3)],
                         rand_spd(q, seed=25), m=0,
                         assignments=np.zeros(q, dtype=int))
        data = OutcomeMatrix(np.random.default_rng(8).standard_normal((n, q)))
        state = McmcState(model, data, B=np.zeros((1, q)))
        pi = update_cluster_assignments(state, Priors().validate(q),
                                        np.random.default_rng(9))
        assert np.all(pi == 0)

    def test_identical_candidates_uniform(self):
        n, q = 10, 1
        S = rand_locations(n, seed=26)
        p = KernelParams(10.0, 1.0, 1e-3)
        model = IoxModel(S, [p, p, p], np.eye(1), m=0,
                         assignments=np.zeros(1, dtype=int))
        data = OutcomeMatrix(np.random.default_rng(10).standard_normal((n, 1)))
        state = McmcState(model, data, B=np.zeros((1, 1)))
        rng = np.random.default_rng(11)
        pr = Priors().validate(1)
        counts = np.zeros(3)
        reps = 3000
        for _ in range(reps):
            pi = update_cluster_assignments(state, pr, rng)
            counts[pi[0]] += 1
        freq = counts / reps
        assert np.abs(freq - 1 / 3).max() <= 4 * np.sqrt((1 / 3) * (2 / 3) / reps)

    def test_smoothness_group_recovery_small(self):
        rng = np.random.default_rng(12)
        n, q = 220, 4
        S = rand_locations(n, seed=27)
        cands = [KernelParams(25.0, 0.5, 1e-3), KernelParams(25.0, 2.5, 1e-3)]
        truth = np.array([0, 0, 1, 1])
        Sigma = rand_spd(q, seed=28, diag_boost=2.0)
        d = np.sqrt(np.diag(Sigma))
        Sigma = Sigma / np.outer(d, d)
        gen = IoxModel(S, cands, Sigma, m=0, assignments=truth)
        Y = simulate_prior_reference(gen, rng)
        data = OutcomeMatrix(Y)
        model = IoxModel(S, cands, Sigma, m=20, assignments=np.array([0, 1, 0, 1]),
                         order_seed=1)
        state = McmcState(model, data, B=np.zeros((1, q)))
        pr = default_priors(S, q)
        tallies = np.zeros((q, 2))
        for it in range(60):
            pi = update_cluster_assignments(state, pr, rng)
            update_sigma(state, pr, rng)
            if it >= 20:
                for j in range(q):
                    tallies[j, pi[j]] += 1
        assert np.array_equal(tallies.argmax(axis=1), truth)

    def test_collapsed_law_matches_quadrature(self):
        # q = 1 and two kernels: P(pi = 1) from each candidate's likelihood
        # with sigma2 integrated out by quadrature under the IG(nu0/2, psi/2)
        # prior, against the frequency of independent Gibbs draws
        n = 12
        S = rand_locations(n, seed=60)
        y = np.random.default_rng(60).standard_normal(n)
        cands = [KernelParams(6.0, 0.5, 1e-2), KernelParams(15.0, 1.0, 3e-2)]
        lm = [_log_marginal_by_quadrature(y, corr_matrix(S, S, p), 3.0, 0.7) for p in cands]
        want = 1.0 / (1.0 + math.exp(lm[0] - lm[1]))
        assert 0.2 < want < 0.8
        model = IoxModel(S, cands, np.eye(1), m=0, assignments=np.zeros(1, dtype=int))
        state = McmcState(model, OutcomeMatrix(y[:, None]), B=np.zeros((1, 1)))
        pr = Priors(sigma_df=3.0, sigma_scale=np.array([[0.7]])).validate(1)
        rng = np.random.default_rng(61)
        reps = 3000
        hits = sum(int(update_cluster_assignments(state, pr, rng)[0]) for _ in range(reps))
        assert abs(hits / reps - want) <= 4 * math.sqrt(want * (1 - want) / reps)


class TestRunChain:
    def _data(self, n=40, q=2, seed=30):
        rng = np.random.default_rng(seed)
        S = rand_locations(n, seed=seed)
        gen = IoxModel(S, [KernelParams(15.0, 0.6, 1e-3),
                           KernelParams(15.0, 1.4, 1e-3)],
                       np.array([[1.0, 0.5], [0.5, 1.0]]), m=0)
        Y = simulate_prior_reference(gen, rng)
        return OutcomeMatrix(Y), S

    def test_iters_equal_burn_empty(self):
        data, S = self._data()
        cfg = RunConfig(iters=10, burn=10, vecchia_m=5, seed=1).validate()
        ch = run_chain(cfg, data, S)
        assert ch.meta["n_draws"] == 0

    def test_bitwise_determinism(self):
        data, S = self._data()
        cfg = RunConfig(iters=40, burn=20, vecchia_m=5, seed=2,
                        zero_corr_draws=4).validate()
        a = run_chain(cfg, data, S)
        b = run_chain(cfg, data, S)
        for k in a.draws:
            assert np.array_equal(a.draws[k], b.draws[k]), k
        # the chain actually moves: stored log-likelihoods are not degenerate
        assert a.draws["loglik"].var() > 0

    def test_latent_chain_runs_both_w_modes(self):
        data, S = self._data(n=30)
        for mode in ("outcome", "site"):
            cfg = RunConfig(model="latent", iters=30, burn=15, vecchia_m=6,
                            seed=3, w_update=mode, store_w=5,
                            zero_corr_draws=0).validate()
            ch = run_chain(cfg, data, S)
            assert ch.meta["n_draws"] == 15
            assert ch.w_draws is not None
            assert np.all(ch.draws["delta"] > 0)

    def test_grid_mode_precomputes_and_runs(self):
        data, S = self._data(n=35, seed=31)
        cfg = RunConfig(theta_mode="grid", grid_nu_values=[0.5, 1.5],
                        grid_phi=15.0, grid_tau2=1e-3, iters=30, burn=10,
                        vecchia_m=6, seed=4, zero_corr_draws=0).validate()
        ch = run_chain(cfg, data, S)
        assert ch.meta["n_draws"] == 20
        assert set(np.unique(ch.draws["pi"])) <= {0, 1}

    def test_cluster_mode_runs(self):
        data, S = self._data(n=35, seed=32)
        cfg = RunConfig(theta_mode="cluster", cluster_k1=2, iters=30, burn=10,
                        vecchia_m=6, seed=5, zero_corr_draws=0).validate()
        ch = run_chain(cfg, data, S)
        assert ch.meta["n_draws"] == 20

    def test_scan_order_draws_sigma_right_after_theta(self):
        # the theta step integrates Sigma out, so Sigma must be drawn next
        data, S = self._data(n=20)
        modes = {"full": ({}, []), "cluster": ({"cluster_k1": 2}, ["pi"]),
                 "grid": ({"grid_nu_values": [0.5]}, ["pi"])}
        for mode, (extra, head) in modes.items():
            for model, tail in (("response", []), ("latent", ["w", "delta"])):
                cfg = RunConfig(theta_mode=mode, model=model, vecchia_m=5, iters=1,
                                burn=0, **extra).validate()
                theta = [] if mode == "grid" else ["theta"]
                assert [nm for nm, _ in Sampler(cfg, data, S).steps] == \
                    head + theta + ["sigma", "beta"] + tail + ["store"]

    def test_sigma_start_value_is_never_read(self):
        # pi and theta integrate Sigma out and come before the Sigma step, so
        # another start value changes no draw
        data, S = self._data(n=30)
        modes = {"full": {}, "cluster": {"cluster_k1": 2},
                 "grid": {"grid_nu_values": [0.9, 1.0]}}
        for mode, extra in modes.items():
            for model in ("response", "latent"):
                cfg = RunConfig(theta_mode=mode, model=model, vecchia_m=5, iters=12,
                                burn=0, seed=3, zero_corr_draws=0, **extra).validate()
                moved = Sampler(cfg, data, S)
                moved.model.set_sigma(50.0 * np.array([[1.0, 0.5], [0.5, 1.0]]))
                a, b = Sampler(cfg, data, S).run(), moved.run()
                for k in a.draws:
                    assert np.array_equal(a.draws[k], b.draws[k]), (mode, model, k)

    def test_sigma_always_spd(self):
        data, S = self._data(n=25, seed=33)
        cfg = RunConfig(iters=50, burn=0, vecchia_m=5, seed=6,
                        zero_corr_draws=0).validate()
        ch = run_chain(cfg, data, S)
        for Sg in ch.draws["sigma"]:
            np.linalg.cholesky(Sg)


class TestPriors:
    def test_validation(self):
        with pytest.raises(ValidationError):
            Priors(sigma_df=1.0).validate(3)
        with pytest.raises(ValidationError):
            Priors(delta_a=0.0).validate(2)
        with pytest.raises(ValidationError):
            Priors(phi_bounds=(2.0, 1.0)).validate(2)
        with pytest.raises(ValidationError):
            Priors(nu_bounds=(0.25, 40.0)).validate(2)
        for scale in (0.0, -1.0):
            with pytest.raises(ValidationError, match="sigma_scale"):
                Priors(sigma_scale=scale * np.eye(2)).validate(2)

    def test_domain_scaled_phi(self):
        S = rand_locations(20, seed=34)
        pr = default_priors(S, 3)
        lo, hi = pr.phi_bounds
        assert lo < 30.0 < hi
