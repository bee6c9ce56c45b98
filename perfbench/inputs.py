"""Seeded benchmark inputs, built with numpy and scipy only.

Nothing here runs ``spiox simulate`` or a sampler, so a change to the
program's random stream cannot change what the benchmark times. Each input
set is written once per seed under ``.perfbench/inputs`` and reused.

* ``fit2000`` / ``fit500`` / ``fit500-smooth``: draws from the IOX prior at
  uniform sites on the unit square. Column j is L_j v_j with L_j the exact
  Cholesky factor of the Matern correlation of outcome j and the rows of V
  drawn from N(0, SIGMA). The n = 500 sets add independent measurement noise
  (latent-model data); ``fit500-smooth`` uses nu = 3/2 for every outcome, so
  that a model with nu fixed at 3/2 is well specified and the cost of its
  conjugate-gradient solves does not swing from seed to seed.
* ``predict4000``: an n = 4000 reference set with a cheap smooth field (the
  cost of prediction does not depend on the values), a posterior chain whose
  draws are constructed directly and written with ``spiox.dataio.write_chain``,
  a grid of fully missing test sites (some on reference sites), a co-kriging
  file cycling through the six partial-missingness patterns of q = 3 plus
  fully missing rows, and a one-site file for the set-up command.
"""

import json
import os

import numpy as np
from scipy.linalg import cholesky
from scipy.spatial.distance import pdist, squareform
from scipy.special import gamma, kv

Q = 3
PHI = 30.0
NU = (0.5, 0.8, 1.2)
NU_SMOOTH = (1.5, 1.5, 1.5)
TAU2 = 1e-3
SIGMA = np.array([[1.0, 0.5, -0.3],
                  [0.5, 1.0, 0.2],
                  [-0.3, 0.2, 1.0]])
NOISE_SD = 0.3
VECCHIA_M = 15

PRED_N = 4000
PRED_DRAWS = 16
GRID_SITES = 800
GRID_ON_REFERENCE = 8
COKRIGE_SITES = 140
# the six partial-missingness patterns of q = 3 and the fully missing row
MISSING_PATTERNS = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1),
                    (0, 1, 1), (1, 1, 1))
INPUT_VERSION = 4


def _write_csv(path, coords, Y):
    """Dataset CSV in the program's schema; NaN becomes an empty cell."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join([f"coord_{k + 1}" for k in range(coords.shape[1])]
                          + [f"y_{j + 1}" for j in range(Y.shape[1])]) + "\n")
        for c, y in zip(coords, Y):
            fh.write(",".join(["%.17g" % v for v in c]
                              + ["" if np.isnan(v) else "%.17g" % v for v in y])
                     + "\n")


def _matern_condensed(d, phi, nu):
    x = phi * d
    if nu == 0.5:
        return np.exp(-x)
    with np.errstate(over="ignore", invalid="ignore"):
        val = 2.0 ** (1.0 - nu) / gamma(nu) * x ** nu * kv(nu, x)
    return np.nan_to_num(val, nan=0.0)


def _iox_prior_draw(coords, nus, rng):
    """Exact draw of the n x q outcome matrix from the IOX prior."""
    n = coords.shape[0]
    d = pdist(coords)
    V = rng.standard_normal((n, Q)) @ np.linalg.cholesky(SIGMA).T
    Y = np.empty((n, Q))
    for j, nu in enumerate(nus):
        R = squareform(_matern_condensed(d, PHI, nu))
        R[np.diag_indices(n)] = 1.0 + TAU2
        Y[:, j] = cholesky(R, lower=True, overwrite_a=True, check_finite=False) @ V[:, j]
    return Y


def _fit_inputs(path, seed, n, nus, noise):
    rng = np.random.default_rng([seed, n, INPUT_VERSION])
    coords = rng.uniform(0.0, 1.0, size=(n, 2))
    Y = _iox_prior_draw(coords, nus, rng)
    if noise:
        Y = Y + NOISE_SD * rng.standard_normal(Y.shape)
    _write_csv(os.path.join(path, "data.csv"), coords, Y)


def _predict_inputs(path, seed):
    rng = np.random.default_rng([seed, PRED_N, INPUT_VERSION])
    S = rng.uniform(0.0, 1.0, size=(PRED_N, 2))
    freq = rng.uniform(3.0, 7.0, size=(Q, 2))
    shift = rng.uniform(0.0, 2 * np.pi, size=(Q, 2))
    Y = (np.sin(S[:, :1] * freq[:, 0] + shift[:, 0])
         + np.cos(S[:, 1:] * freq[:, 1] + shift[:, 1])
         + 0.05 * rng.standard_normal((PRED_N, Q)))
    _write_csv(os.path.join(path, "reference.csv"), S, Y)

    nd = PRED_DRAWS
    theta = np.empty((nd, Q, 3))
    theta[:, :, 0] = PHI * np.exp(0.05 * rng.standard_normal((nd, Q)))
    # smoothness kept off the half-integers, so the Bessel path is timed
    theta[:, :, 1] = np.array([0.6, 0.9, 1.3]) * np.exp(0.02 * rng.standard_normal((nd, Q)))
    theta[:, :, 2] = TAU2 * np.exp(0.1 * rng.standard_normal((nd, Q)))
    sigma = np.empty((nd, Q, Q))
    for d in range(nd):
        s = np.exp(0.05 * rng.standard_normal(Q))
        sigma[d] = SIGMA * np.outer(s, s)
    chain_seed = int(rng.integers(1, 2 ** 31))
    draws = {"beta": 0.1 * rng.standard_normal((nd, 1, Q)), "sigma": sigma,
             "theta": theta, "pi": np.tile(np.arange(Q), (nd, 1)),
             "loglik": np.zeros(nd)}
    meta = {"n": PRED_N, "q": Q, "p": 1, "iters": nd, "burn": 0, "thin": 1,
            "seed": chain_seed, "model": "response", "theta_mode": "full",
            "theta_update": "joint", "vecchia_m": VECCHIA_M, "n_draws": nd,
            "acceptance_rate": 0.25}
    # the chain format is the program's, so the program's writer produces it
    from spiox.config import RunConfig
    from spiox.dataio import dataset_hash, write_chain
    from spiox.inference import Chain
    write_chain(os.path.join(path, "chain"), Chain(draws, {}, {}, meta),
                RunConfig(vecchia_m=VECCHIA_M, seed=chain_seed).validate(),
                dataset_hash(S), [f"y_{j + 1}" for j in range(Q)])

    T = rng.uniform(0.0, 1.0, size=(GRID_SITES, 2))
    on_ref = rng.choice(PRED_N, size=GRID_ON_REFERENCE, replace=False)
    at = rng.choice(GRID_SITES, size=GRID_ON_REFERENCE, replace=False)
    T[at] = S[on_ref]
    _write_csv(os.path.join(path, "grid.csv"), T, np.full((GRID_SITES, Q), np.nan))

    Tc = rng.uniform(0.0, 1.0, size=(COKRIGE_SITES, 2))
    Yc = rng.standard_normal((COKRIGE_SITES, Q))
    for i in range(COKRIGE_SITES):
        Yc[i, np.array(MISSING_PATTERNS[i % len(MISSING_PATTERNS)], bool)] = np.nan
    _write_csv(os.path.join(path, "cokrige.csv"), Tc, Yc)

    _write_csv(os.path.join(path, "one_site.csv"), rng.uniform(0.0, 1.0, size=(1, 2)),
               np.full((1, Q), np.nan))
    with open(os.path.join(path, "grid_on_reference.json"), "w", encoding="utf-8") as fh:
        json.dump({"grid_rows": at.tolist(), "reference_rows": on_ref.tolist()}, fh)


def prepare(cache_root, kind, seed):
    """Directory holding the ``kind`` input set for ``seed``, built if absent."""
    path = os.path.join(cache_root, f"{kind}-v{INPUT_VERSION}-{seed}")
    if os.path.exists(os.path.join(path, "done")):
        return path
    os.makedirs(path, exist_ok=True)
    if kind == "fit2000":
        _fit_inputs(path, seed, 2000, NU, noise=False)
    elif kind == "fit500":
        _fit_inputs(path, seed, 500, NU, noise=True)
    elif kind == "fit500-smooth":
        _fit_inputs(path, seed, 500, NU_SMOOTH, noise=True)
    elif kind == "predict4000":
        _predict_inputs(path, seed)
    else:
        raise ValueError(f"unknown input set {kind}")
    open(os.path.join(path, "done"), "w").close()
    return path
