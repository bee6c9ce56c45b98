"""Tests for posterior prediction, co-kriging, and prior simulation."""

import numpy as np
import pytest

from spiox.errors import NumericalError, ValidationError
from spiox.geom import LocationSet
from spiox.ioxcore import IoxModel, OutcomeMatrix, cross_cov_set
from spiox.kernels import KernelParams, corr_matrix
from spiox.predict import (PosteriorDraw, predict_full, predict_partial,
                           simulate_prior_nonreference,
                           simulate_prior_reference, _site_moments)

from conftest import dense_iox_cov, mvn_condition, rand_locations, rand_spd


class ZeroRng:
    def standard_normal(self, size=None):
        return np.zeros(size) if size is not None else 0.0


def setup(n=15, q=2, seed=0, m=0, tau2=0.0):
    rng = np.random.default_rng(seed)
    S = rand_locations(n, seed=seed)
    thetas = [KernelParams(rng.uniform(6, 20), rng.uniform(0.5, 1.8), tau2)
              for _ in range(q)]
    Sigma = rand_spd(q, seed=seed + 1, diag_boost=1.0)
    order = np.arange(n) if m else "random"
    model = IoxModel(S, thetas, Sigma, m=m, order_scheme=order)
    Y = rng.standard_normal((n, q))
    data = OutcomeMatrix(Y)
    draw = PosteriorDraw(B=np.zeros((1, q)), Sigma=Sigma, theta=thetas)
    return model, data, draw, S, thetas, Sigma


def oracle_joint_cov(S, t, thetas, Sigma):
    """Joint covariance of (y(S) outcome-major, y(t)) built directly from the
    defining formula with numpy primitives."""
    n = S.n
    q = Sigma.shape[0]
    Ls, hs, rs = [], [], []
    for p in thetas:
        R = corr_matrix(S, S, p)
        Ls.append(np.linalg.cholesky(R))
        rho_ts = np.array([float(corr_matrix(LocationSet(t[None]), S, p)[0, k])
                           for k in range(n)])
        h = np.linalg.solve(R, rho_ts)
        hs.append(h)
        rs.append(max((1.0 + p.tau2) - h @ rho_ts, 0.0))
    a = [hs[i] @ Ls[i] for i in range(q)]
    C = np.zeros((n * q + q, n * q + q))
    C[:n * q, :n * q] = dense_iox_cov(S, thetas, Sigma)
    for i in range(q):
        for j in range(q):
            C[i * n:(i + 1) * n, n * q + j] = Sigma[i, j] * (Ls[i] @ a[j])
            C[n * q + j, i * n:(i + 1) * n] = C[i * n:(i + 1) * n, n * q + j]
            C[n * q + i, n * q + j] = Sigma[i, j] * (a[i] @ a[j]
                                                     + np.sqrt(rs[i] * rs[j]))
    return C


class TestPredictFull:
    def test_reference_site_exact(self):
        model, data, draw, S, _, _ = setup(n=10, q=2, seed=1)
        y = predict_full(S.coords[4], draw, data, model, ZeroRng())
        assert np.abs(y - data.Y[4]).max() <= 1e-10
        mean, dvec = _site_moments(S.coords[4][None], np.ones((1, 1)), draw,
                                   data, model)
        assert np.all(dvec == 0.0)

    def test_far_site_limits(self):
        model, data, draw, S, _, Sigma = setup(n=12, q=2, seed=2)
        t = np.array([900.0, 900.0])
        mean, dvec = _site_moments(t[None], np.ones((1, 1)), draw, data, model)
        assert np.abs(mean).max() <= 1e-8  # trend is zero here
        assert np.abs(dvec ** 2 - 1.0).max() <= 1e-8  # r -> 1, cov -> Sigma

    @pytest.mark.parametrize("m", [0, 14])
    def test_dense_conditional_oracle(self, m):
        model, data, draw, S, thetas, Sigma = setup(n=15, q=2, seed=3, m=m)
        rng = np.random.default_rng(10)
        for t in rng.uniform(0, 1, (4, 2)):
            C = oracle_joint_cov(S, t, thetas, Sigma)
            nq = 15 * 2
            mis, cmean, ccov = mvn_condition(
                np.zeros(nq + 2), C, np.arange(nq), data.Y.T.ravel())
            mean, dvec = _site_moments(t[None], np.ones((1, 1)), draw, data, model)
            got_cov = np.outer(dvec[0], dvec[0]) * Sigma
            assert np.abs(mean[0] - cmean).max() <= 1e-6
            assert np.abs(got_cov - ccov).max() <= 1e-6

    def test_marginal_depends_only_on_own_kernel(self):
        # with diagonal Sigma, perturbing theta_j leaves outcome i's
        # predictive law untouched
        n, q = 12, 2
        S = rand_locations(n, seed=4)
        base = [KernelParams(9.0, 0.8, 0.0), KernelParams(14.0, 1.2, 0.0)]
        pert = [base[0], KernelParams(5.0, 2.0, 0.1)]
        Sigma = np.diag([1.5, 0.7])
        Y = np.random.default_rng(5).standard_normal((n, q))
        data = OutcomeMatrix(Y)
        t = np.array([0.42, 0.13])
        out = []
        for th in (base, pert):
            model = IoxModel(S, th, Sigma, m=0)
            draw = PosteriorDraw(B=np.zeros((1, q)), Sigma=Sigma, theta=th)
            mean, dvec = _site_moments(t[None], np.ones((1, 1)), draw, data, model)
            out.append((mean[0, 0], dvec[0, 0]))
        assert out[0][0] == pytest.approx(out[1][0], abs=1e-10)
        assert out[0][1] == pytest.approx(out[1][1], abs=1e-10)

    def test_conditional_independence_across_sites(self):
        model, data, draw, S, _, Sigma = setup(n=10, q=2, seed=6)
        t1, t2 = np.array([0.3, 0.3]), np.array([0.8, 0.6])
        rng = np.random.default_rng(7)
        reps = 4000
        d1 = np.empty((reps, 2))
        d2 = np.empty((reps, 2))
        for r in range(reps):
            d1[r] = predict_full(t1, draw, data, model, rng)
            d2[r] = predict_full(t2, draw, data, model, rng)
        cc = np.cov(np.column_stack([d1, d2]), rowvar=False)[:2, 2:]
        scale = np.sqrt(np.outer(np.diag(np.cov(d1, rowvar=False)),
                                 np.diag(np.cov(d2, rowvar=False))))
        se = scale / np.sqrt(reps)
        assert np.all(np.abs(cc) <= 4 * se)


class TestPredictPartial:
    def test_single_missing_variance(self):
        model, data, draw, S, thetas, Sigma = setup(n=12, q=3, seed=8)
        t = np.array([0.37, 0.71])
        Q = np.linalg.inv(Sigma)
        j = 1
        _, dvec = _site_moments(t[None], np.ones((1, 1)), draw, data, model)
        r_j = dvec[0, j] ** 2
        # distribution check via many draws
        rng = np.random.default_rng(8)
        y_obs = np.array([0.5, np.nan, -0.2])
        reps = np.array([predict_partial(t, y_obs, draw, data, model, rng)[0]
                         for _ in range(20000)])
        target_var = r_j / Q[j, j]
        assert reps.var() == pytest.approx(target_var, rel=0.1)

    def test_diagonal_sigma_equals_marginal(self):
        n, q = 10, 2
        S = rand_locations(n, seed=9)
        thetas = [KernelParams(8.0, 0.9, 0.0), KernelParams(12.0, 1.1, 0.0)]
        Sigma = np.diag([2.0, 0.5])
        model = IoxModel(S, thetas, Sigma, m=0)
        Y = np.random.default_rng(10).standard_normal((n, q))
        data = OutcomeMatrix(Y)
        draw = PosteriorDraw(B=np.zeros((1, q)), Sigma=Sigma, theta=thetas)
        t = np.array([0.25, 0.66])
        y_obs = np.array([np.nan, 1.234])
        got = predict_partial(t, y_obs, draw, data, model, ZeroRng())
        mean, _ = _site_moments(t[None], np.ones((1, 1)), draw, data, model)
        assert got[0] == pytest.approx(mean[0, 0], abs=1e-12)

    def test_dense_oracle_single_missing(self):
        n, q = 12, 3
        model, data, draw, S, thetas, Sigma = setup(n=n, q=q, seed=11)
        t = np.array([0.55, 0.44])
        j = 2
        y_t = np.array([0.3, -0.6, np.nan])
        C = oracle_joint_cov(S, t, thetas, Sigma)
        nq = n * q
        obs_idx = np.concatenate([np.arange(nq), [nq, nq + 1]])
        obs_val = np.concatenate([data.Y.T.ravel(), y_t[:2]])
        mis, cmean, ccov = mvn_condition(np.zeros(nq + q), C, obs_idx, obs_val)
        got_mean = predict_partial(t, y_t, draw, data, model, ZeroRng())
        assert got_mean[0] == pytest.approx(cmean[0], abs=1e-6)
        rng = np.random.default_rng(12)
        reps = np.array([predict_partial(t, y_t, draw, data, model, rng)[0]
                         for _ in range(20000)])
        assert reps.var() == pytest.approx(ccov[0, 0], rel=0.1)

    def test_reference_site_fallback(self):
        model, data, draw, S, _, _ = setup(n=9, q=3, seed=12)
        k = 5
        y_obs = np.array([data.Y[k, 0], np.nan, np.nan])
        got = predict_partial(S.coords[k], y_obs, draw, data, model, ZeroRng())
        assert np.abs(got - data.Y[k, 1:]).max() <= 1e-12

    @pytest.mark.parametrize("m", [0, 6])
    def test_near_reference_site_general_formula(self, m):
        # nu = 2.5 and no nugget: r_j(t) is below 1e-12 at 1e-7 from S
        n, q = 20, 2
        S = rand_locations(n, seed=30)
        thetas = [KernelParams(5.0, 2.5, 0.0)] * q
        Sigma = np.array([[1.0, 0.7], [0.7, 1.0]])
        model = IoxModel(S, thetas, Sigma, m=m)
        data = OutcomeMatrix(np.random.default_rng(31).standard_normal((n, q)))
        draw = PosteriorDraw(B=np.zeros((1, q)), Sigma=Sigma, theta=thetas)
        k = 4
        y_obs = np.array([data.Y[k, 0] + 0.1, np.nan])
        got = [predict_partial(S.coords[k] + off, y_obs, draw, data, model, ZeroRng())[0]
               for off in (1e-5, 1e-6, 1e-7)]
        _, dvec = _site_moments((S.coords[k] + 1e-7)[None], np.ones((1, 1)), draw, data, model)
        assert 0.0 < dvec[0, 0] ** 2 <= 1e-12
        assert np.all(np.isfinite(got))
        assert abs(got[2] - got[1]) <= abs(got[1] - got[0])

    def test_zero_residual_variance_off_reference_raises(self, monkeypatch):
        model, data, draw, S, _, _ = setup(n=9, q=2, seed=14)
        h_r = model.h_r_compact

        def zero_r(T, j):
            idx, vals, r = h_r(T, j)
            return idx, vals, np.zeros_like(r)
        monkeypatch.setattr(model, "h_r_compact", zero_r)
        t = S.coords[2] + 1e-3
        with pytest.raises(NumericalError, match="site"):
            predict_partial(t, np.array([0.1, np.nan]), draw, data, model, ZeroRng())

    def test_negative_zero_coordinate_is_the_reference_site(self):
        # -0.0 == 0.0: the site is pinned like its positive-zero twin
        n, q = 12, 2
        coords = rand_locations(n, seed=40).coords.copy()
        coords[3] = [0.0, 0.5]
        S = LocationSet(coords)
        thetas = [KernelParams(9.0, 0.8, 1e-3), KernelParams(12.0, 1.3, 1e-3)]
        Sigma = rand_spd(q, seed=41, diag_boost=1.0)
        data = OutcomeMatrix(np.random.default_rng(42).standard_normal((n, q)))
        draw = PosteriorDraw(B=np.zeros((1, q)), Sigma=Sigma, theta=thetas)
        for m in (0, 6):
            model = IoxModel(S, thetas, Sigma, m=m)
            assert model.coincidence(np.array([[-0.0, 0.5], [0.0, -0.0]])).tolist() == [3, -1]
            got = predict_partial(np.array([-0.0, 0.5]), np.array([0.1, np.nan]),
                                  draw, data, model, ZeroRng())
            assert got[0] == data.Y[3, 1]
            with pytest.raises(ValidationError, match="reference"):
                simulate_prior_nonreference(np.array([[-0.0, 0.5]]), model,
                                            np.random.default_rng(0))

    @pytest.mark.parametrize("m, latent", [(0, False), (6, False), (6, True)])
    def test_stack_equals_single_site_calls(self, m, latent):
        model, data, draw, S, _, _ = setup(n=16, q=3, seed=43, m=m, tau2=1e-2)
        if latent:
            rng = np.random.default_rng(44)
            draw = PosteriorDraw(B=draw.B, Sigma=draw.Sigma, theta=draw.theta,
                                 Delta=rng.uniform(0.1, 0.3, 3),
                                 W=data.Y + 0.1 * rng.standard_normal(data.Y.shape))
        # partly observed rows, two of them on S, then a fully missing and a
        # fully observed row
        T = np.vstack([np.random.default_rng(45).uniform(0, 1, (5, 2)), S.coords[[2, 9]],
                       np.random.default_rng(47).uniform(0, 1, (2, 2))])
        y_obs = np.random.default_rng(46).standard_normal((9, 3))
        for i, pat in enumerate([[1, 0, 0], [0, 1, 1], [1, 0, 0], [0, 0, 1],
                                 [1, 1, 0], [0, 1, 0], [1, 0, 1], [1, 1, 1], [0, 0, 0]]):
            y_obs[i, np.array(pat, bool)] = np.nan
        stack = predict_partial(T, y_obs, draw, data, model, np.random.default_rng(7))
        assert np.array_equal(stack[8], y_obs[8])
        rng = np.random.default_rng(7)
        for i in range(9):
            miss = np.isnan(y_obs[i])
            if miss.all():
                one = predict_full(T[i], draw, data, model, rng)
            else:
                one = predict_partial(T[i], y_obs[i], draw, data, model, rng)
            np.testing.assert_allclose(stack[i, miss], one, rtol=1e-12, atol=1e-12)
            assert np.array_equal(stack[i, ~miss], y_obs[i, ~miss])
        full = predict_full(T, draw, data, model, np.random.default_rng(8))
        rng = np.random.default_rng(8)
        for i in range(9):
            np.testing.assert_allclose(full[i], predict_full(T[i], draw, data, model, rng),
                                       rtol=1e-12, atol=1e-12)


class TestPriorSimulation:
    def test_independent_outcomes_uncorrelated(self):
        n, q = 6, 2
        S = rand_locations(n, seed=14)
        thetas = [KernelParams(10.0, 0.7, 0.0), KernelParams(10.0, 1.4, 0.0)]
        model = IoxModel(S, thetas, np.eye(q), m=0)
        rng = np.random.default_rng(15)
        reps = 10000
        acc = np.zeros(reps)
        for r in range(reps):
            Y = simulate_prior_reference(model, rng)
            acc[r] = Y[2, 0] * Y[2, 1]
        se = acc.std() / np.sqrt(reps)
        assert abs(acc.mean()) <= 4 * se

    def test_empirical_covariance_matches_cov_set(self):
        n, q = 5, 2
        S = rand_locations(n, seed=16)
        thetas = [KernelParams(9.0, 0.6, 1e-2), KernelParams(13.0, 1.3, 1e-2)]
        Sigma = rand_spd(q, seed=17, diag_boost=1.0)
        model = IoxModel(S, thetas, Sigma, m=0)
        C = cross_cov_set(S.coords, model)
        rng = np.random.default_rng(18)
        reps = 100000
        draws = np.empty((reps, n * q))
        for r in range(reps):
            draws[r] = simulate_prior_reference(model, rng).T.ravel()
        emp = draws.T @ draws / reps
        se = np.sqrt((np.outer(np.diag(C), np.diag(C)) + C ** 2) / reps)
        assert np.all(np.abs(emp - C) <= 4 * se)

    def test_equal_margins_colocated_correlation(self):
        n = 12
        S = rand_locations(n, seed=19)
        p = KernelParams(11.0, 1.0, 0.0)
        Sigma = np.array([[1.0, -0.8], [-0.8, 1.0]])
        model = IoxModel(S, [p, p], Sigma, m=0)
        rng = np.random.default_rng(20)
        reps = 40000
        pair = np.empty((reps, 2))
        for r in range(reps):
            Y = simulate_prior_reference(model, rng)
            pair[r] = Y[7]
        corr = np.corrcoef(pair, rowvar=False)[0, 1]
        assert corr == pytest.approx(-0.8, abs=0.02)

    def test_loglik_entropy_identity(self):
        from spiox.ioxcore import loglik
        n, q = 8, 2
        S = rand_locations(n, seed=21)
        thetas = [KernelParams(7.0, 0.8, 1e-2), KernelParams(12.0, 1.5, 1e-2)]
        Sigma = rand_spd(q, seed=22, diag_boost=1.0)
        model = IoxModel(S, thetas, Sigma, m=0)
        C = cross_cov_set(S.coords, model)
        rng = np.random.default_rng(23)
        reps = 4000
        lls = np.array([loglik(simulate_prior_reference(model, rng), model)
                        for _ in range(reps)])
        entropy = 0.5 * n * q * (1 + np.log(2 * np.pi)) \
            + 0.5 * np.linalg.slogdet(C)[1]
        se = lls.std() / np.sqrt(reps)
        assert abs(lls.mean() + entropy) <= 4 * se


class TestNonReference:
    def test_overlap_rejected(self):
        model, data, draw, S, _, _ = setup(n=10, q=2, seed=24)
        with pytest.raises(ValidationError, match="reference"):
            simulate_prior_nonreference(S.coords[3][None], model,
                                        np.random.default_rng(0))

    def test_far_marginal_variance(self):
        model, data, draw, S, thetas, Sigma = setup(n=10, q=2, seed=25)
        T = np.array([[500.0, 500.0], [600.0, 400.0]])
        rng = np.random.default_rng(26)
        reps = 30000
        acc = np.empty((reps, 2))
        for r in range(reps):
            acc[r] = simulate_prior_nonreference(T, model, rng)[0]
        v = acc.var(axis=0)
        se = v * np.sqrt(2.0 / reps)
        assert np.all(np.abs(v - np.diag(Sigma)) <= 5 * se)

    def test_continuity_near_reference(self):
        # tau2 = 0: a draw at distance 1e-6 from a reference site stays within
        # 1e-2 RMS of the simulated value there
        n = 10
        S = rand_locations(n, seed=27)
        thetas = [KernelParams(8.0, 1.0, 0.0), KernelParams(12.0, 1.5, 0.0)]
        Sigma = rand_spd(2, seed=28, diag_boost=1.0)
        model = IoxModel(S, thetas, Sigma, m=0)
        t = (S.coords[4] + 1e-6)[None, :]
        Lsig = np.linalg.cholesky(Sigma)
        rng = np.random.default_rng(29)
        reps = 300
        diffs = np.empty((reps, 2))
        for rep in range(reps):
            Ys = simulate_prior_reference(model, rng)
            mean = np.empty(2)
            rvals = np.empty(2)
            for j in range(2):
                idx, vals, rj = model.h_r_compact(t, j)
                mean[j] = float(vals[0] @ Ys[idx[0], j])
                rvals[j] = rj[0]
            yt = mean + np.sqrt(rvals) * (Lsig @ rng.standard_normal(2))
            diffs[rep] = yt - Ys[4]
        rms = np.sqrt((diffs ** 2).mean(axis=0))
        assert np.all(rms <= 1e-2)


class TestFactorFree:
    @pytest.mark.parametrize("m", [0, 6])
    def test_loglik_after_apply_draw_equals_fresh_model(self, m):
        from spiox.ioxcore import loglik
        from spiox.predict import apply_draw
        model, data, draw, S, thetas, Sigma = setup(n=20, q=2, seed=48, m=m)
        new = PosteriorDraw(B=draw.B, Sigma=2.0 * Sigma,
                            theta=[KernelParams(5.0, 0.7, 1e-2), thetas[1]])
        loglik(data.Y, model)  # the old factors exist before the draw is applied
        apply_draw(model, new)
        fresh = IoxModel(S, new.theta, new.Sigma, m=m,
                         order_scheme=np.arange(20) if m else "random")
        assert loglik(data.Y, model) == loglik(data.Y, fresh)


class TestPredictionRequest:
    def test_wraps_sites_and_mask(self):
        from spiox.predict import PredictionRequest, posterior_predictive
        model, data, draw, S, _, _ = setup(n=10, q=2, seed=30)
        T = np.array([[0.5, 0.5], [0.1, 0.9]])
        y_obs = np.array([[np.nan, 0.4], [np.nan, np.nan]])
        req = PredictionRequest(T, y_obs=y_obs, q=2)
        out = posterior_predictive(req, [draw], data, model, np.random.default_rng(0))
        assert out.shape == (1, 2, 2)
        assert out[0, 0, 1] == 0.4  # observed value carried through

    def test_row_mismatch_rejected(self):
        from spiox.predict import PredictionRequest
        with pytest.raises(ValidationError):
            PredictionRequest(np.zeros((3, 2)), X_T=np.ones((2, 1)))
