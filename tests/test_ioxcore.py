"""Tests for the IOX cross-covariance core: pointwise and set evaluation,
likelihoods, conditional densities, and cross-correlation summaries."""

import math

import numpy as np
import pytest

from spiox.errors import ValidationError
from spiox.geom import LocationSet
from spiox.ioxcore import (IoxModel, OutcomeMatrix, _pair_trace, avg_cross_corr,
                           conditional_loglik, cross_cov_point, cross_cov_set,
                           h_and_r, loglik, matern_zero_cross_corr,
                           whiten_columns, zero_distance_cross_corr)
from spiox.kernels import KernelParams, corr_matrix, matern

from conftest import dense_iox_cov, mvn_logpdf, rand_corr, rand_locations, rand_spd


def make_model(n=15, q=3, seed=0, m=0, tau2=0.0, thetas=None, Sigma=None):
    S = rand_locations(n, seed=seed)
    if thetas is None:
        rng = np.random.default_rng(seed + 100)
        thetas = [KernelParams(rng.uniform(5, 25), rng.uniform(0.4, 2.0), tau2)
                  for _ in range(q)]
    if Sigma is None:
        Sigma = rand_spd(q, seed=seed + 1)
    order = np.arange(n) if m else "random"
    return IoxModel(S, thetas, Sigma, m=m, order_scheme=order), S, thetas, Sigma


class TestHandR:
    def test_reference_site_unit_vector(self):
        model, S, _, _ = make_model(10, 2, seed=3)
        h, r = h_and_r(S.coords[3], 0, model)
        assert np.array_equal(h, np.eye(10)[3])
        assert r == 0.0

    def test_reference_site_with_nugget(self):
        model, S, _, _ = make_model(8, 2, seed=4, tau2=0.05)
        h, r = h_and_r(S.coords[5], 1, model)
        assert np.array_equal(h, np.eye(8)[5])
        assert r == 0.0

    def test_far_point_limits(self):
        model, S, _, _ = make_model(10, 2, seed=5)
        h, r = h_and_r(np.array([500.0, 500.0]), 0, model)
        assert np.abs(h).max() < 1e-10
        assert r == pytest.approx(1.0, abs=1e-10)

    def test_two_point_hand_solve(self):
        S = LocationSet([[0.0, 0.0], [0.5, 0.0]])
        p = KernelParams(4.0, 0.5, 0.0)
        model = IoxModel(S, [p], np.eye(1), m=0)
        t = np.array([0.2, 0.1])
        h, r = h_and_r(t, 0, model)
        R = corr_matrix(S, S, p)
        rho_ts = np.array([matern(np.linalg.norm(t - S.coords[k]), p) for k in range(2)])
        h0 = np.linalg.solve(R, rho_ts)
        assert np.abs(h - h0).max() < 1e-12
        assert r == pytest.approx(1.0 - h0 @ rho_ts, abs=1e-12)

    def test_twin_sites_vecchia_matches_exact(self):
        # two sites whose squared distance underflows: with tau2 = 0 their
        # correlation is 1, so every parent block holding both is exactly
        # singular and the Vecchia weights go through the jitter retries
        coords = np.random.default_rng(0).uniform(size=(60, 2))
        coords[0], coords[1] = [1e-300, 0.5], [2e-300, 0.5]
        S = LocationSet(coords)
        thetas = [KernelParams(50.0, 0.5, 0.0)] * 2
        t = np.array([0.01, 0.5])
        hv, rv = h_and_r(t, 0, IoxModel(S, thetas, np.eye(2), m=8))
        he, re = h_and_r(t, 0, IoxModel(S, thetas, np.eye(2), m=0))
        assert np.abs(hv - he).max() <= 1e-6
        assert abs(rv - re) <= 1e-6

    def test_near_twin_sites_vecchia_matches_exact(self):
        # two sites 1e-14 apart with tau2 = 0: the blocks that hold both are
        # singular to rounding, which a pivoting LU does not flag (it gave
        # weights of 1e13 and r = 0.33); the Cholesky pivot goes <= 0 and
        # the row is retried. h differs from the exact path by the m = 8
        # approximation alone (about 4e-3)
        coords = np.random.default_rng(5).uniform(size=(60, 2))
        coords[0], coords[1] = [0.0, 0.5], [1e-14, 0.5]
        S = LocationSet(coords)
        thetas = [KernelParams(10.0, 1.0, 0.0)] * 2
        t = np.array([0.01, 0.5])
        hv, rv = h_and_r(t, 0, IoxModel(S, thetas, np.eye(2), m=8))
        he, re = h_and_r(t, 0, IoxModel(S, thetas, np.eye(2), m=0))
        assert abs(rv - re) <= 1e-3
        assert np.abs(hv - he).max() <= 1e-2

    def test_site_a_hair_from_reference_is_not_pinned(self):
        # 1e-300 from a reference site the distance underflows to 0, but the
        # sites differ, so neither path adds the nugget to their correlation:
        # both give the same r > 0, while the coincident site is pinned
        coords = np.random.default_rng(0).uniform(size=(60, 2))
        coords[0] = [2e-300, 0.5]
        S = LocationSet(coords)
        thetas = [KernelParams(10.0, 1.0, 0.1)] * 2
        for t, pinned in (([1e-300, 0.5], False), ([2e-300, 0.5], True)):
            rv, re = (h_and_r(np.array(t), 0, IoxModel(S, thetas, np.eye(2), m=m))[1]
                      for m in (8, 0))
            if pinned:
                assert rv == re == 0.0
            else:
                assert re > 0.1 and abs(rv - re) <= 1e-3

    def test_r_nonnegative(self):
        model, _, _, _ = make_model(20, 2, seed=6)
        rng = np.random.default_rng(0)
        for t in rng.uniform(0, 1, (30, 2)):
            _, r = h_and_r(t, 1, model)
            assert r >= -1e-10


class TestCrossCovPoint:
    def test_marginal_at_reference(self):
        model, S, _, Sigma = make_model(12, 3, seed=7)
        C = cross_cov_point(S.coords[4], S.coords[4], model)
        assert np.abs(np.diag(C) - np.diag(Sigma)).max() <= 1e-10

    def test_identical_margins_give_sigma(self):
        S = rand_locations(14, seed=8)
        p = KernelParams(9.0, 1.1, 0.0)
        Sigma = rand_spd(2, seed=9)
        model = IoxModel(S, [p, p], Sigma, m=0)
        t = np.array([0.31, 0.62])
        C = cross_cov_point(t, t, model)
        assert C[0, 1] == pytest.approx(Sigma[0, 1], rel=1e-10)

    def test_marginal_reference_any_second_point(self):
        model, S, thetas, Sigma = make_model(11, 2, seed=10)
        t2 = np.array([0.77, 0.13])
        for i in range(2):
            C = cross_cov_point(S.coords[2], t2, model)
            h, _ = h_and_r(t2, i, model)
            rho = float(h @ corr_matrix(S, S, thetas[i])[:, 2])
            # sigma_ii rho_i(l, l') with l in S
            expect = Sigma[i, i] * matern(np.linalg.norm(S.coords[2] - t2), thetas[i])
            assert C[i, i] == pytest.approx(expect, abs=1e-10)

    def test_symmetry_transpose(self):
        model, _, _, _ = make_model(13, 3, seed=11)
        rng = np.random.default_rng(1)
        for _ in range(5):
            a, b = rng.uniform(0, 1, 2), rng.uniform(0, 1, 2)
            C1 = cross_cov_point(a, b, model)
            C2 = cross_cov_point(b, a, model)
            assert np.abs(C1 - C2.T).max() <= 1e-12

    def test_sigma_bound(self):
        model, _, _, Sigma = make_model(16, 3, seed=12)
        rng = np.random.default_rng(2)
        for _ in range(10):
            a, b = rng.uniform(0, 1, 2), rng.uniform(0, 1, 2)
            C = cross_cov_point(a, b, model)
            assert np.all(np.abs(C) <= np.abs(Sigma) + 1e-10)


class TestCrossCovSet:
    def test_separable_kronecker(self):
        S = rand_locations(9, seed=13)
        p = KernelParams(7.0, 0.9, 0.0)
        Sigma = rand_spd(3, seed=14)
        model = IoxModel(S, [p, p, p], Sigma, m=0)
        C = cross_cov_set(S.coords, model)
        expect = np.kron(Sigma, corr_matrix(S, S, p))
        assert np.abs(C - expect).max() <= 1e-10

    def test_single_outcome_reduction(self):
        S = rand_locations(8, seed=15)
        p = KernelParams(12.0, 1.4, 0.0)
        model = IoxModel(S, [p], np.array([[2.5]]), m=0)
        C = cross_cov_set(S.coords, model)
        assert np.abs(C - 2.5 * corr_matrix(S, S, p)).max() <= 1e-10

    def test_symmetric_psd_random(self):
        model, S, _, _ = make_model(10, 3, seed=16)
        rng = np.random.default_rng(3)
        T = np.vstack([S.coords[:3], rng.uniform(0, 1, (6, 2))])
        C = cross_cov_set(T, model)
        N = T.shape[0] * 3
        assert np.abs(C - C.T).max() == 0.0
        assert np.linalg.eigvalsh(C).min() >= -1e-8 * N

    def test_matches_pointwise(self):
        model, S, _, _ = make_model(7, 2, seed=17)
        rng = np.random.default_rng(4)
        T = np.vstack([S.coords[1][None, :], rng.uniform(0, 1, (3, 2))])
        C = cross_cov_set(T, model)
        N = T.shape[0]
        for s in range(N):
            for t in range(N):
                blk = cross_cov_point(T[s], T[t], model)
                got = C[np.ix_([i * N + s for i in range(2)],
                               [j * N + t for j in range(2)])]
                assert np.abs(blk - got).max() <= 1e-12

    def test_schur_zero(self):
        model, S, _, _ = make_model(12, 2, seed=18)
        l1, l2 = np.array([0.21, 0.84]), np.array([0.66, 0.35])
        C12 = cross_cov_point(l1, l2, model)
        CS = cross_cov_set(S.coords, model)
        n, q = 12, 2
        C1S = np.hstack([cross_cov_set(np.vstack([l1[None], S.coords]), model)])
        # build C(l1, S) and C(S, l2) blocks from pointwise calls
        C1 = np.zeros((q, n * q))
        C2 = np.zeros((n * q, q))
        for k in range(n):
            blk1 = cross_cov_point(l1, S.coords[k], model)
            blk2 = cross_cov_point(S.coords[k], l2, model)
            for i in range(q):
                for j in range(q):
                    C1[i, j * n + k] = blk1[i, j]
                    C2[i * n + k, j] = blk2[i, j]
        schur = C12 - C1 @ np.linalg.solve(CS, C2)
        assert np.abs(schur).max() <= 1e-8

    def test_guard(self):
        model, _, _, _ = make_model(10, 3, seed=19)
        with pytest.raises(ValidationError):
            cross_cov_set(np.random.default_rng(0).uniform(0, 1, (2000, 2)), model)


class TestLoglik:
    def test_univariate_reduction(self):
        S = rand_locations(14, seed=20)
        p = KernelParams(10.0, 0.8, 1e-2)
        model = IoxModel(S, [p], np.array([[1.0]]), m=0)
        y = np.random.default_rng(5).standard_normal((14, 1))
        ll = loglik(y, model)
        assert ll == pytest.approx(mvn_logpdf(y[:, 0], np.zeros(14),
                                              corr_matrix(S, S, p)), rel=1e-12)

    def test_dense_mvn_oracle(self):
        n, q = 20, 3
        S = rand_locations(n, seed=21)
        rng = np.random.default_rng(6)
        thetas = [KernelParams(rng.uniform(5, 30), rng.uniform(0.4, 2.2), 1e-3)
                  for _ in range(q)]
        Sigma = rand_spd(q, seed=22)
        Y = rng.standard_normal((n, q))
        C = dense_iox_cov(S, thetas, Sigma)
        oracle = mvn_logpdf(Y.T.ravel(), np.zeros(n * q), C)
        exact = IoxModel(S, thetas, Sigma, m=0)
        assert loglik(Y, exact) == pytest.approx(oracle, rel=1e-8)
        vecchia = IoxModel(S, thetas, Sigma, m=n - 1, order_scheme=np.arange(n))
        assert loglik(Y, vecchia) == pytest.approx(oracle, rel=1e-8)

    def test_separable_matrix_normal(self):
        n, q = 12, 3
        S = rand_locations(n, seed=23)
        p = KernelParams(6.0, 1.0, 0.0)
        Sigma = rand_spd(q, seed=24)
        model = IoxModel(S, [p] * q, Sigma, m=0)
        Y = np.random.default_rng(7).standard_normal((n, q))
        R = corr_matrix(S, S, p)
        oracle = mvn_logpdf(Y.T.ravel(), np.zeros(n * q), np.kron(Sigma, R))
        assert loglik(Y, model) == pytest.approx(oracle, rel=1e-10)

    def test_outcome_permutation_invariance(self):
        model, S, thetas, Sigma = make_model(10, 3, seed=25)
        Y = np.random.default_rng(8).standard_normal((10, 3))
        perm = [2, 0, 1]
        model_p = IoxModel(S, [thetas[i] for i in perm],
                           Sigma[np.ix_(perm, perm)], m=0)
        assert loglik(Y[:, perm], model_p) == pytest.approx(
            loglik(Y, model), rel=1e-10)


class TestConditionalLoglik:
    def test_q1_matches_loglik_ratio(self):
        S = rand_locations(10, seed=26)
        Sigma = np.array([[1.7]])
        pa, pb = KernelParams(8.0, 0.9, 0.0), KernelParams(12.0, 1.3, 0.0)
        y = np.random.default_rng(9).standard_normal((10, 1))
        vals, lls = [], []
        for p in (pa, pb):
            model = IoxModel(S, [p], Sigma, m=0)
            V = whiten_columns(y, model)
            vals.append(conditional_loglik(0, V, model))
            lls.append(loglik(y, model, V))
        assert vals[1] - vals[0] == pytest.approx(lls[1] - lls[0], abs=1e-10)

    def test_ratio_matches_dense_conditional(self):
        n, q, j = 15, 3, 1
        S = rand_locations(n, seed=27)
        rng = np.random.default_rng(10)
        base = [KernelParams(rng.uniform(6, 20), rng.uniform(0.5, 1.8), 0.0)
                for _ in range(q)]
        Sigma = rand_spd(q, seed=28)
        Y = rng.standard_normal((n, q))
        cand = KernelParams(15.0, 0.7, 0.0)

        def cond_oracle(th_j):
            th = list(base)
            th[j] = th_j
            C = dense_iox_cov(S, th, Sigma)
            y = Y.T.ravel()
            jm = np.arange(j * n, (j + 1) * n)
            jc = np.setdiff1d(np.arange(n * q), jm)
            Coo = C[np.ix_(jc, jc)]
            Cmo = C[np.ix_(jm, jc)]
            mu = Cmo @ np.linalg.solve(Coo, y[jc])
            Cov = C[np.ix_(jm, jm)] - Cmo @ np.linalg.solve(Coo, Cmo.T)
            return mvn_logpdf(Y[:, j], mu, Cov)

        def ours(th_j):
            th = list(base)
            th[j] = th_j
            model = IoxModel(S, th, Sigma, m=0)
            V = whiten_columns(Y, model)
            return conditional_loglik(j, V, model)

        ratio = ours(cand) - ours(base[j])
        oracle = cond_oracle(cand) - cond_oracle(base[j])
        assert ratio == pytest.approx(oracle, abs=1e-8)

    def test_unchanged_theta_ratio_one(self):
        model, _, _, _ = make_model(9, 2, seed=29)
        Y = np.random.default_rng(11).standard_normal((9, 2))
        V = whiten_columns(Y, model)
        assert conditional_loglik(0, V, model) == conditional_loglik(0, V, model)


class TestAvgCrossCorr:
    def test_identical_margins_zero_distance(self):
        S = rand_locations(20, seed=30)
        p = KernelParams(10.0, 1.0, 0.0)
        Sigma = np.array([[1.0, -0.7], [-0.7, 1.0]])
        model = IoxModel(S, [p, p], Sigma, m=0)
        assert avg_cross_corr(0, 1, model, 0.0) == pytest.approx(-0.7, rel=1e-10)
        assert avg_cross_corr(0, 1, model, 0.0) / Sigma[0, 1] == pytest.approx(1.0)

    def test_decay_at_large_h(self):
        model, _, _, _ = make_model(15, 2, seed=31)
        assert abs(avg_cross_corr(0, 1, model, (8.0, 8.0))) < 1e-6

    def test_probe_set_and_vecchia_trace(self):
        S = rand_locations(25, seed=32)
        thetas = [KernelParams(9.0, 0.6, 0.0), KernelParams(14.0, 1.6, 0.0)]
        Sigma = rand_corr(2, seed=33)
        exact = IoxModel(S, thetas, Sigma, m=0)
        vec = IoxModel(S, thetas, Sigma, m=24, order_scheme=np.arange(25))
        a = zero_distance_cross_corr(exact)
        b = zero_distance_cross_corr(vec)
        assert np.abs(a - b).max() <= 1e-8
        c = zero_distance_cross_corr(vec, probes=4000, rng=np.random.default_rng(0))
        assert np.abs(c - a).max() <= 0.05

    def test_probed_trace_matches_dense_inverse(self):
        # the probes pushed through inv(G) of each component, built densely
        S = rand_locations(40, seed=35)
        thetas = [KernelParams(9.0, 0.6, 0.0), KernelParams(14.0, 1.6, 1e-3),
                  KernelParams(20.0, 1.1, 0.0)]
        model = IoxModel(S, thetas, rand_corr(3, seed=36), m=6)
        got = _pair_trace(model, probes=8, rng=np.random.default_rng(7))
        Z = np.random.default_rng(7).standard_normal((40, 8))
        U = [np.linalg.inv(f.whiten(np.eye(40))) @ Z for f in model.factors]
        want = np.array([[np.sum(a * b) / (8 * 40) for b in U] for a in U])
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_matches_brute_average(self):
        model, S, thetas, Sigma = make_model(8, 2, seed=34)
        got = avg_cross_corr(0, 1, model, 0.0)
        # brute force over reference sites using the dense definition
        Ls = [np.linalg.cholesky(corr_matrix(S, S, p)) for p in thetas]
        vals = [Sigma[0, 1] * float(Ls[0][k] @ Ls[1][k]) for k in range(8)]
        assert got == pytest.approx(np.mean(vals), rel=1e-10)


class TestMaternZeroCrossCorr:
    def test_equal_smoothness_cancels(self):
        for nu in (0.4, 1.0, 2.3):
            assert matern_zero_cross_corr(nu, nu, -0.9) == pytest.approx(-0.9, rel=1e-12)

    def test_zero_sigma(self):
        assert matern_zero_cross_corr(0.5, 1.2, 0.0) == 0.0

    def test_lgamma_oracle(self):
        nu_i, nu_j, s = 0.5, 1.2, -0.9
        expect = s * math.exp(
            0.5 * (math.lgamma(nu_i + 1) - math.lgamma(nu_i))
            + 0.5 * (math.lgamma(nu_j + 1) - math.lgamma(nu_j))
            + math.lgamma((nu_i + nu_j) / 2) - math.lgamma((nu_i + nu_j) / 2 + 1))
        assert matern_zero_cross_corr(nu_i, nu_j, s) == pytest.approx(expect, rel=1e-14)


class TestOutcomeMatrix:
    def test_complete_cases(self):
        with pytest.raises(ValidationError, match="row 1"):
            OutcomeMatrix(np.array([[1.0, 2.0], [np.nan, 3.0]]))

    def test_default_intercept(self):
        om = OutcomeMatrix(np.ones((4, 2)))
        assert om.p == 1 and np.all(om.X == 1.0)

    def test_row_mismatch(self):
        with pytest.raises(ValidationError):
            OutcomeMatrix(np.ones((4, 2)), X=np.ones((3, 1)))
