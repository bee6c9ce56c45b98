"""Worker for the parameter-recovery acceptance criterion: simulate one
trivariate dataset, fit the response model, and write posterior summaries as
JSON. Run as: python _criterion6_worker.py <seed> <out.json>"""

import json
import sys

import numpy as np

from spiox.config import RunConfig
from spiox.geom import LocationSet
from spiox.inference import run_chain
from spiox.ioxcore import IoxModel, OutcomeMatrix, zero_distance_cross_corr
from spiox.kernels import KernelParams
from spiox.predict import simulate_prior_reference


def run(seed):
    rng = np.random.default_rng(1000 + seed)
    n, q = 500, 3
    S = LocationSet(rng.uniform(0, 1, (n, 2)))
    theta = [KernelParams(30.0, 0.5, 1e-3), KernelParams(30.0, 0.8, 1e-3),
             KernelParams(30.0, 1.2, 1e-3)]
    Sigma = np.array([[1.0, -0.9, 0.7], [-0.9, 1.0, -0.5], [0.7, -0.5, 1.0]])
    gen = IoxModel(S, theta, Sigma, m=0)
    Y = simulate_prior_reference(gen, rng)
    zc = zero_distance_cross_corr(gen)
    dd = np.sqrt(np.diag(zc))
    rho_truth = (zc / np.outer(dd, dd))[np.triu_indices(q, 1)]
    cfg = RunConfig(model="response", theta_mode="full", vecchia_m=15,
                    iters=5000, burn=2500, thin=1,
                    seed=seed, zero_corr_draws=64).validate()
    chain = run_chain(cfg, OutcomeMatrix(Y), S)
    th = chain.draws["theta"]
    norm = np.array([z / np.outer(np.sqrt(np.diag(z)), np.sqrt(np.diag(z)))
                     for z in chain.zero_corr])
    iu = np.triu_indices(q, 1)
    rho_draws = norm[:, iu[0], iu[1]]
    return {
        "rho_truth": rho_truth.tolist(),
        "rho_mean": rho_draws.mean(axis=0).tolist(),
        "rho_ci": np.quantile(rho_draws, [0.025, 0.975], axis=0).tolist(),
        "nu_mean": th[:, :, 1].mean(axis=0).tolist(),
        "nu_ci": np.quantile(th[:, :, 1], [0.025, 0.975], axis=0).tolist(),
    }


if __name__ == "__main__":
    seed = int(sys.argv[1])
    out = run(seed)
    with open(sys.argv[2], "w", encoding="utf-8") as fh:
        json.dump(out, fh)
