"""Golden-prediction regression test: fixed-seed posterior predictive draws of
response and latent models, on the Vecchia and the exact path, with and
without noise, must reproduce the recorded values to 1e-12.

The test rows mix every partial-missingness pattern of q = 3, fully missing
rows, rows on reference sites and a fully observed row, so one request runs
every branch of co-kriging. The reference values in golden_predictions.npz
are rewritten with

    PYTHONPATH=src python tests/test_golden_predictions.py --write

A change that moves the random-number stream on purpose rewrites the file and
says why in CHANGES.md; any other difference is a regression.
"""

import itertools
import os
import re
import sys

import numpy as np
import pytest

from spiox.errors import NumericalError
from spiox.geom import LocationSet
from spiox.ioxcore import IoxModel, OutcomeMatrix
from spiox.kernels import KernelParams
from spiox.predict import (PosteriorDraw, PredictionRequest, apply_draw,
                           posterior_predictive, predict_full, predict_partial)

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "golden_predictions.npz")
Q = 3
N_REF = 30
N_DRAWS = 3
# every nonempty missingness pattern: six partial ones, then fully missing
PATTERNS = [np.array(p, dtype=bool)
            for p in itertools.product([False, True], repeat=Q) if any(p)]


def reference():
    """n = 30 sites, q = 3 correlated outcomes, intercept plus one covariate."""
    rng = np.random.default_rng(2025)
    coords = rng.uniform(0.0, 1.0, size=(N_REF, 2))
    f = np.sin(3.0 * coords[:, 0]) + np.cos(2.0 * coords[:, 1])
    g = np.cos(4.0 * coords[:, 0] * coords[:, 1])
    Y = np.column_stack([f, 0.6 * f + g, g - 0.4 * f]) \
        + 0.2 * rng.standard_normal((N_REF, Q))
    X = np.column_stack([np.ones(N_REF), coords[:, 0]])
    return LocationSet(coords), OutcomeMatrix(Y, X)


def posterior(data, latent):
    """A short chain of posterior draws, built directly from a seeded stream;
    smoothness off the half-integers, nuggets and Sigma moving per draw."""
    rng = np.random.default_rng(11 if latent else 10)
    draws = []
    for _ in range(N_DRAWS):
        theta = [KernelParams(phi, nu, tau2) for phi, nu, tau2 in zip(
            8.0 * np.exp(0.2 * rng.standard_normal(Q)),
            np.array([0.7, 1.1, 1.7]) * np.exp(0.05 * rng.standard_normal(Q)),
            0.02 * np.exp(0.3 * rng.standard_normal(Q)))]
        A = rng.standard_normal((Q, Q))
        Sigma = 0.5 * (A @ A.T) + np.eye(Q)
        B = 0.1 * rng.standard_normal((data.p, Q))
        if latent:
            W = data.Y - data.X @ B + 0.1 * rng.standard_normal(data.Y.shape)
            draws.append(PosteriorDraw(B=B, Sigma=Sigma, theta=theta,
                                       Delta=rng.uniform(0.05, 0.2, Q), W=W))
        else:
            draws.append(PosteriorDraw(B=B, Sigma=Sigma, theta=theta))
    return draws


def request_rows(S):
    """Sites, predictors and partly observed outcomes of the request, rows
    shuffled so the patterns interleave. Returns (T, X_T, y_obs, on_ref)."""
    rng = np.random.default_rng(12)
    free = [(rng.uniform(0.0, 1.0, 2), p) for p in PATTERNS * 2]
    ref = [(S.coords[k], p) for k, p in zip((3, 7, 11, 15, 19, 23, 27), PATTERNS)]
    rows = free + ref + [(rng.uniform(0.0, 1.0, 2), np.zeros(Q, dtype=bool))]
    on_ref = np.array([False] * len(free) + [True] * len(ref) + [False])
    perm = rng.permutation(len(rows))
    T = np.array([rows[i][0] for i in perm])
    y_obs = rng.standard_normal((len(rows), Q))
    y_obs[np.array([rows[i][1] for i in perm])] = np.nan
    X_T = np.column_stack([np.ones(len(rows)), T[:, 0]])
    return T, X_T, y_obs, on_ref[perm]


CASES = {f"{kind}_m{m}_{'noise' if noise else 'nonoise'}_{req}": (kind, m, noise, req)
         for kind in ("response", "latent") for m in (6, 0)
         for noise in (True, False) for req in ("cokrige", "full")}


def case_setup(kind, m):
    S, data = reference()
    draws = posterior(data, kind == "latent")
    model = IoxModel(S, draws[0].theta, draws[0].Sigma, m=m, order_seed=3)
    return S, data, draws, model


def predictions(case):
    kind, m, noise, req = CASES[case]
    S, data, draws, model = case_setup(kind, m)
    T, X_T, y_obs, _ = request_rows(S)
    request = PredictionRequest(T, X_T=X_T, y_obs=y_obs if req == "cokrige" else None,
                                q=Q)
    return posterior_predictive(request, draws, data, model,
                                np.random.default_rng(99), include_noise=noise)


@pytest.mark.parametrize("case", sorted(CASES))
def test_predictions_match_golden(case):
    with np.load(GOLDEN) as f:
        want = f[case]
    got = predictions(case)
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("case", sorted(CASES))
def test_batched_equals_site_by_site_loop(case):
    # sites are conditionally independent given the reference set, so one
    # batched pass and a loop of single-site calls on the same stream agree
    kind, m, noise, req = CASES[case]
    S, data, draws, model = case_setup(kind, m)
    T, X_T, y_obs, _ = request_rows(S)
    got = predictions(case)
    rng = np.random.default_rng(99)
    for d, draw in enumerate(draws):
        apply_draw(model, draw)
        for i in range(T.shape[0]):
            if req == "full":
                one = predict_full(T[i], draw, data, model, rng, X_t=X_T[i],
                                   include_noise=noise)
            else:
                one = y_obs[i].copy()
                one[np.isnan(one)] = predict_partial(T[i], y_obs[i], draw, data, model,
                                                     rng, X_t=X_T[i], include_noise=noise)
            np.testing.assert_allclose(got[d, i], one, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("kind, m", [("response", 6), ("latent", 0)])
def test_zero_observed_r_off_reference_names_first_site(kind, m):
    S, data, draws, model = case_setup(kind, m)
    T, X_T, y_obs, on_ref = request_rows(S)
    h_r = model.h_r_compact

    def zero_r(T, j):
        idx, vals, r = h_r(T, j)
        return idx, vals, np.zeros_like(r)
    model.h_r_compact = zero_r
    miss = np.isnan(y_obs)
    first = np.flatnonzero(miss.any(axis=1) & ~miss.all(axis=1) & ~on_ref)[0]
    request = PredictionRequest(T, X_T=X_T, y_obs=y_obs, q=Q)
    with pytest.raises(NumericalError, match=re.escape(str(T[first].tolist()))):
        posterior_predictive(request, draws, data, model,
                             np.random.default_rng(99))


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit(__doc__)
    np.savez_compressed(GOLDEN, **{case: predictions(case) for case in sorted(CASES)})
