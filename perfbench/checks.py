"""Output checks that do not depend on the sampler's random stream.

Each function returns a list of failure messages; an empty list passes.
"""

import csv
import json
import os

import numpy as np

LOGLIK_RTOL = 1e-8
PINNED_SD = 1e-12


def _table(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def read_dataset_csv(path):
    """Coordinates and outcomes of a two-dimensional dataset CSV; empty
    outcome cells read as NaN."""
    M = np.genfromtxt(path, delimiter=",", skip_header=1, ndmin=2)
    return M[:, :2], M[:, 2:]


def check_fit(out_dir, data_path, config_text, n_draws, latent):
    """Draw count, finiteness, prior box, and the last stored log-likelihood
    against a fresh model built from that draw's parameters."""
    from spiox.config import parse_config
    from spiox.geom import LocationSet
    from spiox.ioxcore import IoxModel, loglik
    from spiox.kernels import KernelParams

    with open(os.path.join(out_dir, "meta.json"), encoding="utf-8") as fh:
        meta = json.load(fh)
    if meta["n_draws"] != n_draws:
        return [f"{meta['n_draws']} draws stored, expected {n_draws}"]
    if n_draws == 0:
        return []
    stems = ["theta", "sigma", "beta", "loglik"] + (["delta"] if latent else [])
    tab = {s: _table(os.path.join(out_dir, s + ".csv")) for s in stems}
    errs = [f"{s}.csv has {t.shape[0]} rows, expected {n_draws}"
            for s, t in tab.items() if t.shape[0] != n_draws]
    errs += [f"{s}.csv has non-finite values" for s, t in tab.items()
             if not np.isfinite(t).all()]
    if errs:
        return errs

    coords, Y = read_dataset_csv(data_path)
    S = LocationSet(coords)
    n, q = Y.shape
    config = parse_config(config_text)
    priors = config.priors(S, q)
    theta = tab["theta"][:, 1:].reshape(n_draws, 3, q)   # [draw, (phi, nu, tau2), j]
    for k, (name, (lo, hi)) in enumerate((("phi", priors.phi_bounds),
                                          ("nu", priors.nu_bounds),
                                          ("tau2", priors.tau2_bounds))):
        if (theta[:, k] < lo).any() or (theta[:, k] > hi).any():
            errs.append(f"{name} draw outside the prior box [{lo}, {hi}]")
    iu = np.triu_indices(q)

    def sigma_at(i):
        Sig = np.empty((q, q))
        Sig[iu] = tab["sigma"][i, 1:]
        Sig.T[iu] = tab["sigma"][i, 1:]
        return Sig

    for i in range(n_draws):
        try:
            np.linalg.cholesky(sigma_at(i))
        except np.linalg.LinAlgError:
            errs.append(f"Sigma draw {i} is not positive definite")
            break
    if latent and (tab["delta"][:, 1:] <= 0).any():
        errs.append("non-positive noise variance draw")

    if latent:
        W = _table(os.path.join(out_dir, "w.csv"))
        i = int(W[-1, 0])
        G = W[-1, 1:].reshape(q, n).T
    else:
        i = n_draws - 1
        B = tab["beta"][i, 1:].reshape(q, -1).T
        G = Y - np.ones((n, B.shape[0])) @ B
    kernels = [KernelParams(*theta[i, :, j]) for j in range(q)]
    model = IoxModel(S, kernels, sigma_at(i), m=meta["vecchia_m"],
                     order_scheme=config.order_scheme, order_seed=meta["seed"])
    fresh = loglik(G, model)
    stored = tab["loglik"][i, 1]
    if not abs(fresh - stored) <= LOGLIK_RTOL * abs(stored):
        errs.append(f"stored log-likelihood {stored!r} of draw {i} differs from "
                    f"the recomputed {fresh!r}")
    return errs


def check_predict(out_path, test_path, pinned=None):
    """Every missing test cell predicted once, no observed cell emitted, all
    values finite; ``pinned`` maps test rows on reference sites to the data
    row they must reproduce exactly."""
    _, Yt = read_dataset_csv(test_path)
    want = {(int(t), int(j)) for t, j in np.argwhere(np.isnan(Yt))}
    with open(out_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    col = {name: k for k, name in enumerate(header)}
    value_cols = [k for k, name in enumerate(header)
                  if name == "mean" or name == "sd" or name.startswith("q")]
    got, errs = {}, []
    for r in body:
        key = (int(r[col["site"]]), int(r[col["outcome"]].rsplit("_", 1)[1]) - 1)
        if key in got:
            errs.append(f"cell {key} predicted twice")
        got[key] = r
        vals = np.array([float(r[k]) for k in value_cols])
        if not np.isfinite(vals).all():
            errs.append(f"non-finite prediction for cell {key}")
    if set(got) - want:
        errs.append(f"{len(set(got) - want)} observed cells were predicted")
    if want - set(got):
        errs.append(f"{len(want - set(got))} missing cells were not predicted")
    for t, y in (pinned or {}).items():
        for j, yj in enumerate(y):
            r = got.get((t, j))
            if r is None:
                continue
            mean, sd = float(r[col["mean"]]), float(r[col["sd"]])
            if abs(mean - yj) > 1e-12 * max(1.0, abs(yj)) or sd > PINNED_SD:
                errs.append(f"test row {t} sits on a reference site but predicts "
                            f"mean {mean!r} sd {sd!r} for data value {yj!r}")
    return errs
