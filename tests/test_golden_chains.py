"""Golden-chain regression test: short fixed-seed chains of every sampler path
must reproduce the recorded draws bit for bit.

The reference draws in golden_chains.npz are rewritten with

    PYTHONPATH=src python tests/test_golden_chains.py --write

A change that moves the random-number stream on purpose rewrites the file and
says why in CHANGES.md; any other difference is a regression.
"""

import os
import sys

import numpy as np
import pytest

from spiox.config import RunConfig
from spiox.geom import LocationSet
from spiox.inference import run_chain
from spiox.ioxcore import OutcomeMatrix

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_chains.npz")

BASE = {"vecchia_m": 6, "iters": 24, "burn": 12, "thin": 2, "seed": 7,
        "store_w": 3, "zero_corr_draws": 3}
CASES = {
    "joint": {},
    "block": {"theta_update": "block", "thin": 1},
    "cluster": {"theta_mode": "cluster", "cluster_k1": 2},
    "grid": {"theta_mode": "grid", "grid_nu_values": [0.5, 1.5]},
    "latent_outcome": {"model": "latent", "w_update": "outcome"},
    "latent_site": {"model": "latent", "w_update": "site"},
    "dense_joint": {"vecchia_m": 0},
    "dense_latent_outcome": {"vecchia_m": 0, "model": "latent", "w_update": "outcome"},
}


def dataset():
    """n = 36 sites, q = 3 correlated outcomes, intercept plus one covariate."""
    rng = np.random.default_rng(2024)
    coords = rng.uniform(0.0, 1.0, size=(36, 2))
    f = np.sin(3.0 * coords[:, 0]) + np.cos(2.0 * coords[:, 1])
    g = np.cos(4.0 * coords[:, 0] * coords[:, 1])
    Y = np.column_stack([f, 0.6 * f + g, g - 0.4 * f]) \
        + 0.3 * rng.standard_normal((36, 3))
    X = np.column_stack([np.ones(36), coords[:, 0]])
    return LocationSet(coords), OutcomeMatrix(Y, X)


def chain_arrays(case):
    S, data = dataset()
    chain = run_chain(RunConfig(**{**BASE, **CASES[case]}).validate(), data, S)
    out = {f"draws_{k}": v for k, v in chain.draws.items()}
    out.update({f"acceptance_{k}": np.asarray(v) for k, v in chain.acceptance.items()})
    for name in ("w_draws", "w_draw_iters", "zero_corr", "zero_corr_iters"):
        if getattr(chain, name) is not None:
            out[name] = getattr(chain, name)
    return out


@pytest.mark.parametrize("case", sorted(CASES))
def test_chain_matches_golden(case):
    with np.load(GOLDEN) as f:
        want = {k.split("__", 1)[1]: f[k] for k in f.files if k.startswith(case + "__")}
    got = chain_arrays(case)
    assert sorted(got) == sorted(want)
    for name, arr in want.items():
        assert got[name].shape == arr.shape, name
        assert np.array_equal(got[name], arr), name


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit(__doc__)
    np.savez_compressed(GOLDEN, **{f"{case}__{k}": v for case in sorted(CASES)
                                   for k, v in chain_arrays(case).items()})
