"""Worker for the latent-sampler agreement acceptance criterion: simulate the
bivariate dataset, run one latent-field chain with the per-outcome or the
per-site sampler, and write its batch-mean estimates and their standard errors
as .npz. Run as: python _criterion7_worker.py outcome|site <seed> <out.npz>"""

import math
import sys

import numpy as np

from spiox.geom import LocationSet
from spiox.inference import (McmcState, SiteSweep, sweep_w_sites,
                             update_w_single_outcome)
from spiox.ioxcore import IoxModel, OutcomeMatrix
from spiox.kernels import KernelParams
from spiox.predict import simulate_prior_reference

SWEEPS, BURN = 10000, 500


def run(kind, seed):
    rng_data = np.random.default_rng(7)
    n, q = 200, 2
    S = LocationSet(rng_data.uniform(0, 1, (n, 2)))
    thetas = [KernelParams(20.0, 0.6, 1e-3), KernelParams(20.0, 1.3, 1e-3)]
    Sigma = np.array([[1.0, -0.7], [-0.7, 1.0]])
    Delta = np.array([0.3, 0.5])
    gen = IoxModel(S, thetas, Sigma, m=0)
    Y = simulate_prior_reference(gen, rng_data) \
        + np.sqrt(Delta) * rng_data.standard_normal((n, q))
    data = OutcomeMatrix(Y)

    model = IoxModel(S, thetas, Sigma, m=10, order_seed=3)
    state = McmcState(model, data, B=np.zeros((1, q)),
                      Delta=Delta.copy(), W=Y.copy())
    rng = np.random.default_rng(seed)
    sweep = SiteSweep(model) if kind == "site" else None
    batch_means = []
    acc = np.zeros((n, q))
    batch = SWEEPS // 20
    for it in range(BURN + SWEEPS):
        if kind == "site":
            sweep_w_sites(state, rng, sweep)
        else:
            for j in range(q):
                update_w_single_outcome(j, state, rng)
        if it >= BURN:
            acc += state.W
            if (it - BURN + 1) % batch == 0:
                batch_means.append(acc / batch)
                acc = np.zeros((n, q))
    bm = np.array(batch_means)
    return bm.mean(axis=0), bm.std(axis=0, ddof=1) / math.sqrt(len(bm))


if __name__ == "__main__":
    mean, se = run(sys.argv[1], int(sys.argv[2]))
    np.savez(sys.argv[3], mean=mean, se=se)
