"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured numbers (run with ``pytest tests/test_acceptance.py -v -s``).

Criteria (tolerances pinned here, not calibrated later):
 1. validity of the cross-covariance over mixed site sets (200 random configs)
 2. likelihood and conditional-density oracle equivalence (1e-8)
 3. the structural propositions (marginals, bound, separability, Schur, R(t))
 4. Vecchia exactness at m = n - 1 (1e-8)
 5. sampler moment identities within 4 Monte Carlo standard errors
 6. parameter recovery on five trivariate datasets (n = 500, 5000 iterations)
 7. agreement of the two latent-field samplers
 8. smoothness-group recovery with a fixed two-entry kernel menu
 9. spatial prediction beating the non-spatial baseline by >= 25% RMSPE
"""

import math
import os
import time

import numpy as np
import pytest

from spiox.config import RunConfig
from spiox.geom import LocationSet, build_nn_dag
from spiox.inference import (McmcState, Priors, default_priors,
                             draw_inverse_wishart, run_chain,
                             update_beta_response, update_delta, update_sigma)
from spiox.ioxcore import (IoxModel, OutcomeMatrix, conditional_loglik,
                           cross_cov_set, loglik, whiten_columns,
                           zero_distance_cross_corr)
from spiox.kernels import KernelParams, corr_matrix
from spiox.predict import (PosteriorDraw, PredictionRequest, posterior_predictive,
                           _site_moments, simulate_prior_reference)

from conftest import dense_iox_cov, mvn_logpdf, rand_locations, rand_spd

SETTINGS_71 = {
    "sigma": np.array([[1.0, -0.9, 0.7], [-0.9, 1.0, -0.5], [0.7, -0.5, 1.0]]),
    "theta": [KernelParams(30.0, 0.5, 1e-3), KernelParams(30.0, 0.8, 1e-3),
              KernelParams(30.0, 1.2, 1e-3)],
}


def _rand_params(rng):
    return KernelParams(phi=math.exp(rng.uniform(math.log(0.8), math.log(60.0))),
                        nu=rng.uniform(0.25, 3.0),
                        tau2=math.exp(rng.uniform(math.log(1e-6), 0.0)))


def test_criterion_1_validity_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(4, 41))
        q = int(rng.integers(1, 6))
        S = LocationSet(rng.uniform(0, 1, (n, 2)))
        thetas = [_rand_params(rng) for _ in range(q)]
        Sigma = rand_spd(q, seed=int(rng.integers(1 << 30)))
        model = IoxModel(S, thetas, Sigma, m=0)
        n_ref = int(rng.integers(1, min(n, 5)))
        n_new = int(rng.integers(1, 5))
        T = np.vstack([S.coords[:n_ref], rng.uniform(0, 1, (n_new, 2))])
        C = cross_cov_set(T, model)
        assert np.abs(C - C.T).max() == 0.0
        Nq = C.shape[0]
        mineig = float(np.linalg.eigvalsh(C).min())
        worst = min(worst, mineig / Nq)
        assert mineig >= -1e-8 * Nq
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"\nPASS criterion 1: 200 configs symmetric PSD "
          f"(worst mineig/Nq = {worst:.2e}), {elapsed:.1f}s < 60s")


def test_criterion_2_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(77)
    worst_ll = 0.0
    for rep in range(6):
        n = int(rng.integers(10, 21))
        q = int(rng.integers(1, 4))
        S = LocationSet(rng.uniform(0, 1, (n, 2)))
        thetas = [_rand_params(rng) for _ in range(q)]
        Sigma = rand_spd(q, seed=rep)
        Y = rng.standard_normal((n, q))
        C = dense_iox_cov(S, thetas, Sigma)
        oracle = mvn_logpdf(Y.T.ravel(), np.zeros(n * q), C)
        for m in (0, n - 1):
            model = IoxModel(S, thetas, Sigma, m=m,
                             order_scheme=(np.arange(n) if m else "random"))
            rel = abs(loglik(Y, model) - oracle) / abs(oracle)
            worst_ll = max(worst_ll, rel)
            assert rel <= 1e-8
    # conditional-density Metropolis ratios against the dense conditional
    worst_r = 0.0
    for rep in range(4):
        n, q, j = 12, 3, rep % 3
        S = rand_locations(n, seed=rep + 50)
        base = [_rand_params(rng) for _ in range(q)]
        cand = _rand_params(rng)
        Sigma = rand_spd(q, seed=rep + 60)
        Y = rng.standard_normal((n, q))

        def cond(th_j):
            th = list(base)
            th[j] = th_j
            C = dense_iox_cov(S, th, Sigma)
            y = Y.T.ravel()
            jm = np.arange(j * n, (j + 1) * n)
            jc = np.setdiff1d(np.arange(n * q), jm)
            Cmo = C[np.ix_(jm, jc)]
            w = np.linalg.solve(C[np.ix_(jc, jc)], y[jc])
            mu = Cmo @ w
            Cov = C[np.ix_(jm, jm)] - Cmo @ np.linalg.solve(
                C[np.ix_(jc, jc)], Cmo.T)
            return mvn_logpdf(Y[:, j], mu, Cov)

        def ours(th_j):
            th = list(base)
            th[j] = th_j
            model = IoxModel(S, th, Sigma, m=0)
            return conditional_loglik(j, whiten_columns(Y, model), model)

        diff = abs((ours(cand) - ours(base[j])) - (cond(cand) - cond(base[j])))
        worst_r = max(worst_r, diff)
        assert diff <= 1e-8
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"\nPASS criterion 2: loglik rel err <= {worst_ll:.2e}, "
          f"MH log-ratio err <= {worst_r:.2e}, {elapsed:.1f}s < 30s")


def test_criterion_3_proposition_checks():
    t0 = time.perf_counter()
    rng = np.random.default_rng(31)
    n, q = 14, 3
    S = rand_locations(n, seed=5)
    thetas = [_rand_params(rng) for _ in range(q)]
    Sigma = rand_spd(q, seed=6)
    model = IoxModel(S, thetas, Sigma, m=0)

    # marginal covariance at reference sites: sigma_ii rho_i(l, l')
    from spiox.ioxcore import cross_cov_point
    worst_marg = 0.0
    for k in (0, 7):
        for t in (S.coords[3], rng.uniform(0, 1, 2)):
            C = cross_cov_point(S.coords[k], t, model)
            for i in range(q):
                R = corr_matrix(S, S, thetas[i])
                from spiox.kernels import matern
                expect = Sigma[i, i] * matern(
                    float(np.linalg.norm(S.coords[k] - t)), thetas[i])
                worst_marg = max(worst_marg, abs(C[i, i] - expect))
    assert worst_marg <= 1e-10

    # bound |C_ij| <= |sigma_ij| and the equal-margins equality case
    for _ in range(20):
        a, b = rng.uniform(0, 1, 2), rng.uniform(0, 1, 2)
        C = cross_cov_point(a, b, model)
        assert np.all(np.abs(C) <= np.abs(Sigma) + 1e-10)
    p_shared = KernelParams(9.0, 1.1, 0.0)
    eqm = IoxModel(S, [p_shared] * q, Sigma, m=0)
    t = rng.uniform(0, 1, 2)
    Ceq = cross_cov_point(t, t, eqm)
    assert np.abs(Ceq - Sigma).max() <= 1e-10

    # separable: C(S) = Sigma kron rho(S)
    sep_err = np.abs(cross_cov_set(S.coords, eqm)
                     - np.kron(Sigma, corr_matrix(S, S, p_shared))).max()
    assert sep_err <= 1e-10

    # Schur complement of C(S) in C(T) vanishes off the reference set
    l1, l2 = rng.uniform(0, 1, 2), rng.uniform(0, 1, 2)
    T = np.vstack([S.coords, l1[None], l2[None]])
    Cfull = cross_cov_set(T, model)
    N = n + 2
    idx_S = [i * N + s for i in range(q) for s in range(n)]
    idx_1 = [i * N + n for i in range(q)]
    idx_2 = [i * N + n + 1 for i in range(q)]
    C12 = Cfull[np.ix_(idx_1, idx_2)]
    schur = C12 - Cfull[np.ix_(idx_1, idx_S)] @ np.linalg.solve(
        Cfull[np.ix_(idx_S, idx_S)], Cfull[np.ix_(idx_S, idx_2)])
    assert np.abs(schur).max() <= 1e-8

    # predictions: R(t) = D(t) Sigma D(t) against brute conditioning
    data = OutcomeMatrix(rng.standard_normal((n, q)))
    draw = PosteriorDraw(B=np.zeros((1, q)), Sigma=Sigma, theta=thetas)
    tpt = rng.uniform(0, 1, 2)
    mean, dvec = _site_moments(tpt[None], np.ones((1, 1)), draw, data, model)
    R_struct = np.outer(dvec[0], dvec[0]) * Sigma
    Tt = np.vstack([S.coords, tpt[None]])
    Cf = cross_cov_set(Tt, model)
    Nt = n + 1
    iS = [i * Nt + s for i in range(q) for s in range(n)]
    it_ = [i * Nt + n for i in range(q)]
    R_brute = Cf[np.ix_(it_, it_)] - Cf[np.ix_(it_, iS)] @ np.linalg.solve(
        Cf[np.ix_(iS, iS)], Cf[np.ix_(iS, it_)])
    assert np.abs(R_struct - R_brute).max() <= 1e-10
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"\nPASS criterion 3: marginal {worst_marg:.1e}, separable "
          f"{sep_err:.1e}, Schur {np.abs(schur).max():.1e}, "
          f"R(t) {np.abs(R_struct - R_brute).max():.1e}, {elapsed:.1f}s < 30s")


def test_criterion_4_vecchia_exactness():
    rng = np.random.default_rng(44)
    n, q = 25, 3
    S = rand_locations(n, seed=9)
    thetas = [_rand_params(rng) for _ in range(q)]
    Sigma = rand_spd(q, seed=10)
    ident = np.arange(n)
    dense = IoxModel(S, thetas, Sigma, m=0)
    vec = IoxModel(S, thetas, Sigma, m=n - 1, order_scheme=ident)
    # factors
    worst_f = 0.0
    for j in range(q):
        Li = np.linalg.inv(np.linalg.cholesky(corr_matrix(S, S, thetas[j])))
        worst_f = max(worst_f, float(np.abs(
            vec.factors[j].gamma.toarray() - Li).max()))
    assert worst_f <= 1e-8
    # log determinants
    worst_d = 0.0
    for j in range(q):
        ref = -0.5 * np.linalg.slogdet(corr_matrix(S, S, thetas[j]))[1]
        worst_d = max(worst_d, abs(vec.factors[j].sum_log_diag() - ref))
    assert worst_d <= 1e-8
    # likelihoods
    Y = rng.standard_normal((n, q))
    ll_d, ll_v = loglik(Y, dense), loglik(Y, vec)
    assert abs(ll_v - ll_d) / abs(ll_d) <= 1e-8
    # predictions
    data = OutcomeMatrix(Y)
    draw = PosteriorDraw(B=np.zeros((1, q)), Sigma=Sigma, theta=thetas)
    T = rng.uniform(0, 1, (6, 2))
    m_d, d_d = _site_moments(T, np.ones((6, 1)), draw, data, dense)
    m_v, d_v = _site_moments(T, np.ones((6, 1)), draw, data, vec)
    worst_p = max(float(np.abs(m_d - m_v).max()), float(np.abs(d_d - d_v).max()))
    assert worst_p <= 1e-8
    print(f"\nPASS criterion 4: m=n-1 factor {worst_f:.1e}, logdet "
          f"{worst_d:.1e}, loglik rel {abs(ll_v - ll_d) / abs(ll_d):.1e}, "
          f"prediction {worst_p:.1e}")


def test_criterion_5_sampler_moments():
    n_draw = 100000
    rng = np.random.default_rng(55)
    # inverse Wishart
    q, nu = 3, 10.0
    Psi = np.eye(q)
    iw = np.array([draw_inverse_wishart(nu, Psi, rng) for _ in range(n_draw)])
    se = iw.std(axis=0) / math.sqrt(n_draw)
    err_iw = np.abs(iw.mean(axis=0) - Psi / (nu - q - 1))
    assert np.all(err_iw <= 4 * se)
    # inverse gamma through the delta update
    n, q2 = 20, 2
    S = rand_locations(n, seed=20)
    model = IoxModel(S, [KernelParams(10.0, 1.0, 1e-3)] * q2, np.eye(q2), m=0)
    Y = np.random.default_rng(1).standard_normal((n, q2))
    data = OutcomeMatrix(Y)
    state = McmcState(model, data, B=np.zeros((1, q2)),
                      Delta=np.ones(q2), W=Y * 0.5)
    pr = Priors(delta_a=2.5, delta_b=0.8).validate(q2)
    dl = np.array([update_delta(state, pr, rng) for _ in range(n_draw)])
    resid = data.Y - state.W
    target = (0.8 + 0.5 * (resid ** 2).sum(axis=0)) / (2.5 + n / 2 - 1)
    se = dl.std(axis=0) / math.sqrt(n_draw)
    assert np.all(np.abs(dl.mean(axis=0) - target) <= 4 * se)
    # conjugate Sigma update
    V = np.random.default_rng(2).standard_normal((n, q2))
    pr2 = Priors(sigma_df=q2 + 3.0).validate(q2)
    state.V = V
    sg = np.array([update_sigma(state, pr2, rng) for _ in range(n_draw)])
    target_s = (pr2.sigma_scale + V.T @ V) / (q2 + 3.0 + n - q2 - 1)
    se = sg.std(axis=0) / math.sqrt(n_draw)
    assert np.all(np.abs(sg.mean(axis=0) - target_s) <= 4 * se)
    # conjugate beta update against the dense formula
    n3, q3 = 8, 2
    S3 = rand_locations(n3, seed=21)
    th3 = [KernelParams(8.0, 0.8, 1e-2), KernelParams(12.0, 1.4, 1e-2)]
    Sg3 = rand_spd(q3, seed=22, diag_boost=1.0)
    model3 = IoxModel(S3, th3, Sg3, m=0)
    Y3 = np.random.default_rng(3).standard_normal((n3, q3))
    data3 = OutcomeMatrix(Y3)
    state3 = McmcState(model3, data3, B=np.zeros((1, q3)))
    pr3 = Priors(beta_mean=0.5, beta_var=4.0).validate(q3)
    bs = np.array([update_beta_response(state3, pr3, rng) for _ in range(n_draw)])
    C3 = dense_iox_cov(S3, th3, Sg3)
    Xq = np.kron(np.eye(q3), data3.X)
    Ci = np.linalg.inv(C3)
    P = np.eye(q3) / 4.0 + Xq.T @ Ci @ Xq
    mean_b = np.linalg.solve(P, np.full(q3, 0.5 / 4.0) + Xq.T @ Ci @ Y3.T.ravel())
    se = bs.std(axis=0) / math.sqrt(n_draw)
    err_b = np.abs(bs.mean(axis=0).T.ravel() - mean_b)
    assert np.all(err_b <= 4 * se.T.ravel())
    print(f"\nPASS criterion 5: IW/IG/Sigma/beta moments within 4 MC SE "
          f"(1e5 draws each)")


def test_criterion_6_parameter_recovery(tmp_path):
    # five independent dataset fits, each in a fresh interpreter so no BLAS
    # state is shared across forks. All five start at once: each fit is
    # single-threaded and CPU-bound, so with more fits than CPUs every CPU
    # stays busy until the last fit ends, while a cap at the CPU count leaves
    # CPUs idle through the last round (on two CPUs, 3 rounds of one fit's
    # time against 2.5)
    t0 = time.perf_counter()
    nu_truth = np.array([0.5, 0.8, 1.2])
    script = os.path.join(os.path.dirname(__file__), "_criterion6_worker.py")
    n_workers = 5
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    pending = list(range(5))
    running = {}
    results = [None] * 5
    import subprocess
    import sys as _sys
    while pending or running:
        while pending and len(running) < n_workers:
            seed = pending.pop(0)
            out = tmp_path / f"c6_{seed}.json"
            proc = subprocess.Popen(
                [_sys.executable, script, str(seed), str(out)], env=env,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
            running[seed] = (proc, out)
        time.sleep(1.0)
        for seed in list(running):
            proc, out = running[seed]
            if proc.poll() is not None:
                _, err = proc.communicate()
                assert proc.returncode == 0, err.decode()[-2000:]
                import json
                with open(out) as fh:
                    results[seed] = json.load(fh)
                del running[seed]
    worst_rho = worst_nu = 0.0
    covered = total = 0
    for res in results:
        res = {k: np.asarray(v) for k, v in res.items()}
        err_rho = np.abs(res["rho_mean"] - res["rho_truth"])
        err_nu = np.abs(res["nu_mean"] - nu_truth)
        worst_rho = max(worst_rho, float(err_rho.max()))
        worst_nu = max(worst_nu, float(err_nu.max()))
        assert np.all(err_rho <= 0.15), f"rho error {err_rho}"
        assert np.all(err_nu <= 0.35), f"nu error {err_nu}"
        for k in range(3):
            covered += int(res["rho_ci"][0, k] <= res["rho_truth"][k]
                           <= res["rho_ci"][1, k])
            covered += int(res["nu_ci"][0, k] <= nu_truth[k]
                           <= res["nu_ci"][1, k])
            total += 2
    elapsed = time.perf_counter() - t0
    assert covered / total >= 0.80, f"coverage {covered}/{total}"
    assert elapsed <= 600.0
    print(f"\nPASS criterion 6: max|rho err| = {worst_rho:.3f} <= 0.15, "
          f"max|nu err| = {worst_nu:.3f} <= 0.35, coverage {covered}/{total}, "
          f"{elapsed:.0f}s <= 600s")


def test_criterion_7_latent_sampler_agreement(tmp_path):
    # the per-outcome chain (seed 101) and the per-site chain (seed 102) run at
    # once, each in a fresh single-threaded interpreter; the data, sweeps and
    # burn-in are fixed in the worker
    import subprocess
    import sys as _sys
    script = os.path.join(os.path.dirname(__file__), "_criterion7_worker.py")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    procs = {}
    for kind, seed in (("outcome", 101), ("site", 102)):
        out = tmp_path / f"c7_{kind}.npz"
        procs[kind] = (subprocess.Popen(
            [_sys.executable, script, kind, str(seed), str(out)], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE), out)
    res = {}
    for kind, (proc, out) in procs.items():
        _, err = proc.communicate()
        assert proc.returncode == 0, err.decode()[-2000:]
        with np.load(out) as f:
            res[kind] = (f["mean"], f["se"])
    (m1, se1), (m2, se2) = res["outcome"], res["site"]
    se = np.sqrt(se1 ** 2 + se2 ** 2)
    z = np.abs(m1 - m2) / se
    assert float(z.max()) <= 4.0, f"max z = {z.max():.2f}"
    print(f"\nPASS criterion 7: latent samplers agree, max |diff|/SE = "
          f"{z.max():.2f} <= 4 over {z.size} sites x outcomes")


def test_criterion_8_clustering_recovery():
    t0 = time.perf_counter()
    rng = np.random.default_rng(88)
    n, q = 400, 8
    S = LocationSet(rng.uniform(0, 1, (n, 2)))
    menu = [KernelParams(30.0, 0.5, 1e-3), KernelParams(30.0, 2.5, 1e-3)]
    truth = np.array([0, 0, 0, 0, 1, 1, 1, 1])
    A = rng.standard_normal((q, q))
    Sigma = A @ A.T + q * np.eye(q)
    d = np.sqrt(np.diag(Sigma))
    Sigma = Sigma / np.outer(d, d)
    gen = IoxModel(S, menu, Sigma, m=0, assignments=truth)
    Y = simulate_prior_reference(gen, rng)
    cfg = RunConfig(theta_mode="grid", grid_nu_values=[0.5, 2.5],
                    grid_phi=30.0, grid_tau2=1e-3, cluster_k1=2, vecchia_m=15,
                    iters=800, burn=400, seed=8, zero_corr_draws=0).validate()
    chain = run_chain(cfg, OutcomeMatrix(Y), S)
    pi = chain.draws["pi"]
    mode = np.array([np.bincount(pi[:, j], minlength=2).argmax()
                     for j in range(q)])
    frac = float((mode == truth).mean())
    elapsed = time.perf_counter() - t0
    assert frac >= 0.90, f"assignment accuracy {frac}"
    assert elapsed <= 300.0
    print(f"\nPASS criterion 8: posterior-mode assignments correct for "
          f"{frac:.0%} of outcomes, {elapsed:.0f}s <= 300s")


def test_criterion_9_prediction_beats_nonspatial():
    rng = np.random.default_rng(99)
    n_train, n_test, q = 500, 100, 3
    S_all = LocationSet(rng.uniform(0, 1, (n_train + n_test, 2)))
    gen = IoxModel(S_all, SETTINGS_71["theta"], SETTINGS_71["sigma"], m=0)
    Y_all = simulate_prior_reference(gen, rng)
    S = LocationSet(S_all.coords[:n_train])
    Y = Y_all[:n_train]
    T, Y_test = S_all.coords[n_train:], Y_all[n_train:]
    cfg = RunConfig(model="response", vecchia_m=15,
                    iters=2500, burn=1250, seed=17, zero_corr_draws=0).validate()
    data = OutcomeMatrix(Y)
    chain = run_chain(cfg, data, S)
    keep = np.linspace(0, chain.meta["n_draws"] - 1, 120).astype(int)
    draws = [PosteriorDraw(B=chain.draws["beta"][i],
                           Sigma=chain.draws["sigma"][i],
                           theta=[KernelParams(*chain.draws["theta"][i, j])
                                  for j in range(q)])
             for i in keep]
    model = IoxModel(S, draws[0].theta, draws[0].Sigma, m=15, order_seed=17)
    request = PredictionRequest(T, X_T=np.ones((n_test, 1)))
    pred = posterior_predictive(request, draws, data, model,
                                np.random.default_rng(5)).mean(axis=0)
    rmspe_spatial = float(np.sqrt(np.mean((pred - Y_test) ** 2)))
    base = np.tile(Y.mean(axis=0), (n_test, 1))
    rmspe_base = float(np.sqrt(np.mean((base - Y_test) ** 2)))
    gain = 1.0 - rmspe_spatial / rmspe_base
    assert gain >= 0.25, f"improvement {gain:.1%}"
    print(f"\nPASS criterion 9: RMSPE spatial {rmspe_spatial:.3f} vs "
          f"non-spatial {rmspe_base:.3f} ({gain:.0%} better, needs >= 25%)")
