"""Command-line front end: ``spiox simulate | fit | predict | summarize``.

Exit codes: 0 success, 2 validation error, 3 numerical failure, 4 I/O error.
"""

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np

from .config import RunConfig, load_config
from .dataio import (dataset_hash, ess, read_chain, read_dataset, summary_rows,
                     write_chain, write_csv, write_dataset)
from .errors import NumericalError, ValidationError
from .geom import LocationSet
from .inference import run_chain
from .ioxcore import IoxModel, OutcomeMatrix, zero_distance_cross_corr
from .kernels import KernelParams
from .predict import (PosteriorDraw, PredictionRequest, posterior_predictive,
                      simulate_prior_reference)


def cmd_simulate(config, out_path):
    """Simulate a dataset from the prior at uniform random locations and write
    it plus a truth sidecar (JSON) for parameter-recovery checks."""
    rng = np.random.default_rng(config.seed)
    lo, hi = config.sim_domain
    coords = rng.uniform(lo, hi, size=(config.sim_n, config.sim_d))
    S = LocationSet(coords)
    kernels = config.sim_kernels()
    Sigma = config.sim_sigma_matrix()
    model = IoxModel(S, kernels, Sigma, m=config.sim_vecchia_m,
                     order_seed=config.seed)
    Y = simulate_prior_reference(model, rng)
    write_dataset(out_path, coords, Y)
    zc = zero_distance_cross_corr(model)
    dd = np.sqrt(np.diag(zc))
    truth = {
        "seed": config.seed,
        "n": config.sim_n,
        "q": config.sim_q,
        "phi": [k.phi for k in kernels],
        "nu": [k.nu for k in kernels],
        "tau2": [k.tau2 for k in kernels],
        "sigma": Sigma.tolist(),
        "beta": np.zeros((1, config.sim_q)).tolist(),
        "zero_corr": (zc / np.outer(dd, dd)).tolist(),
        "s_hash": dataset_hash(coords),
    }
    with open(out_path + ".truth.json", "w", encoding="utf-8") as fh:
        json.dump(truth, fh, indent=1)
    print(f"wrote {out_path} (n={config.sim_n}, q={config.sim_q}) and truth sidecar")
    return 0


def _chain_summary_series(files):
    """Named scalar series from loaded chain tables, for summaries."""
    series = []
    for stem in ("beta", "sigma", "theta", "delta", "zero_corr"):
        if stem not in files:
            continue
        header, M = files[stem]
        for ci, name in enumerate(header):
            if name == "draw":
                continue
            series.append((name, M[:, ci]))
    return series


def _write_summary(outdir, files, quantiles=(0.025, 0.975)):
    rows = summary_rows(_chain_summary_series(files), quantiles)
    header = ["parameter", "mean", "sd",
              f"q{quantiles[0]}", f"q{quantiles[1]}", "ess"]
    write_csv(os.path.join(outdir, "summary.csv"), header, rows)
    lines = ["%-14s %12s %12s %12s %12s %9s" % tuple(header)]
    for r in rows:
        lines.append("%-14s %12.5g %12.5g %12.5g %12.5g %9.1f" % r)
    meta = files["meta"]
    lines.append("")
    lines.append(f"draws: {meta['n_draws']}  iters: {meta['iters']}  "
                 f"burn: {meta['burn']}  thin: {meta['thin']}")
    acc = meta.get("acceptance", {})
    lines.append(f"theta acceptance rate: {meta.get('acceptance_rate', float('nan')):.3f}"
                 f"  stage-2 runs: {acc.get('theta_stage2_runs', 'n/a')}"
                 f"  failed builds: {acc.get('theta_build_failures', 'n/a')}")
    lines.append("update timings (s): " + json.dumps(meta.get("timings_sec", {})))
    text = "\n".join(lines) + "\n"
    with open(os.path.join(outdir, "summary.txt"), "w", encoding="utf-8") as fh:
        fh.write(text)
    return text


def cmd_fit(config, data_path, out_dir):
    """Fit the configured model; write per-parameter draw CSVs, acceptance and
    timing metadata, and a posterior summary table."""
    coords, Y, X, names = read_dataset(data_path, require_complete=True)
    S = LocationSet(coords)
    data = OutcomeMatrix(Y, X)
    os.makedirs(out_dir, exist_ok=True)
    s_hash = dataset_hash(S.coords)
    if config.chains == 1:
        chain = run_chain(config, data, S)
        write_chain(out_dir, chain, config, s_hash, names)
        text = _write_summary(out_dir, read_chain(out_dir))
        print(text)
        return 0
    seeds = np.random.SeedSequence(config.seed).spawn(config.chains)
    configs = [replace(config, seed=int(ss.generate_state(2, dtype=np.uint64)[0] >> 1))
               for ss in seeds]
    def one(i):
        return run_chain(configs[i], data, S)
    if config.threads > 1:
        with ThreadPoolExecutor(max_workers=config.threads) as ex:
            chains = list(ex.map(one, range(config.chains)))
    else:
        chains = [one(i) for i in range(config.chains)]
    for i, chain in enumerate(chains):
        sub = os.path.join(out_dir, f"chain_{i}")
        write_chain(sub, chain, configs[i], s_hash, names)
        _write_summary(sub, read_chain(sub))
    print(f"wrote {config.chains} chains under {out_dir}")
    return 0


def _draws_from_chain(files, max_draws):
    """Rebuild PosteriorDraw objects from chain tables; for the latent model,
    restricted to the iterations whose w was stored."""
    meta = files["meta"]
    q, p, n = meta["q"], meta["p"], meta["n"]
    _, TH = files["theta"]
    _, SG = files["sigma"]
    _, BE = files["beta"]
    nd = TH.shape[0]
    latent = meta["model"] == "latent"
    if latent:
        _, WM = files["w"]
        _, DL = files["delta"]
        idx = WM[:, 0].astype(int)
    else:
        idx = np.arange(nd)
    if max_draws and len(idx) > max_draws:
        keep = np.linspace(0, len(idx) - 1, max_draws).astype(int)
        idx = idx[keep]
    else:
        keep = np.arange(len(idx))
    draws = []
    iu = [(a, b) for a in range(q) for b in range(a, q)]
    for pos, i in enumerate(idx):
        theta = [KernelParams(TH[i, 1 + j], TH[i, 1 + q + j], TH[i, 1 + 2 * q + j])
                 for j in range(q)]
        Sigma = np.empty((q, q))
        for col, (a, b) in enumerate(iu):
            Sigma[a, b] = Sigma[b, a] = SG[i, 1 + col]
        B = BE[i, 1:].reshape(q, p).T
        if latent:
            wrow = WM[keep[pos], 1:]
            W = wrow.reshape(q, n).T
            draws.append(PosteriorDraw(B=B, Sigma=Sigma, theta=theta,
                                       Delta=DL[i, 1:], W=W))
        else:
            draws.append(PosteriorDraw(B=B, Sigma=Sigma, theta=theta))
    return draws


def cmd_predict(chain_dir, data_path, test_path, out_path, quantiles,
                max_draws, noise_free, seed=None):
    """Posterior predictive summaries at test sites; empty outcome cells in the
    test file trigger partial (co-kriging) prediction of just those cells."""
    if max_draws < 0:
        raise ValidationError("--max-draws must be >= 0 (0 keeps every draw)")
    files = read_chain(chain_dir)
    meta = files["meta"]
    coords, Y, X, names = read_dataset(data_path, require_complete=True)
    if dataset_hash(coords) != meta["s_hash"]:
        raise ValidationError(
            "reference-set hash mismatch: predictions are defined relative to "
            "the reference set the chain was fitted on")
    if meta["q"] != Y.shape[1]:
        raise ValidationError("outcome count differs between chain and data")
    S = LocationSet(coords)
    data = OutcomeMatrix(Y, X)
    # test sites may repeat (two co-kriging requests at one site)
    T, Yt, Xt, tnames = read_dataset(test_path, require_complete=False)
    if tnames != meta["outcome_names"]:
        raise ValidationError(
            f"test outcome columns {tnames} do not match fitted {meta['outcome_names']}")
    X_T = Xt if Xt is not None else np.ones((T.shape[0], data.p))
    if X_T.shape[1] != data.p:
        raise ValidationError("test predictors do not match the fitted design")
    draws = _draws_from_chain(files, max_draws)
    if not draws:
        raise ValidationError(f"the chain in {chain_dir} holds no stored draws")
    model = IoxModel(S, draws[0].theta, draws[0].Sigma, m=meta["vecchia_m"],
                     order_seed=meta["seed"])
    rng = np.random.default_rng(meta["seed"] + 1000 if seed is None else seed)
    request = PredictionRequest(T, X_T=X_T, y_obs=Yt, q=meta["q"])
    preds = posterior_predictive(request, draws, data, model, rng,
                                 include_noise=not noise_free)
    q = meta["q"]
    qlabels = [f"q{v:g}" for v in quantiles]
    header = (["site"] + [f"coord_{k+1}" for k in range(T.shape[1])]
              + ["outcome", "mean", "sd"] + qlabels)
    rows = []
    for t in range(T.shape[0]):
        for j in range(q):
            if not np.isnan(Yt[t, j]):
                continue  # observed at the test site: nothing to predict
            x = preds[:, t, j]
            qs = np.quantile(x, quantiles)
            rows.append([t] + list(T[t]) + [meta["outcome_names"][j],
                        float(x.mean()), float(x.std(ddof=1)) if len(x) > 1 else 0.0]
                        + [float(v) for v in qs])
    write_csv(out_path, header, rows)
    print(f"wrote {out_path}: {len(rows)} predictions from {len(draws)} draws")
    return 0


def _parse_quantiles(text):
    """The comma-separated probabilities of ``--quantiles``, each in [0, 1]."""
    try:
        values = [float(v) for v in text.split(",")]
    except ValueError:
        values = None
    if values is None or not all(0.0 <= v <= 1.0 for v in values):
        raise ValidationError(
            f"--quantiles must be comma-separated numbers in [0, 1], got {text!r}")
    return values


def cmd_summarize(chain_dir, out_path=None):
    """Posterior summary table (means, intervals, ESS) plus acceptance rates
    and the averaged zero-distance cross-correlation estimates."""
    files = read_chain(chain_dir)
    text = _write_summary(chain_dir, files)
    print(text)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="spiox",
        description="Multivariate spatial GP modeling with inside-out "
                    "cross-covariance")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--threads", type=int,
                       help="how many chains of a chains > 1 fit run at once")

    p = sub.add_parser("simulate", help="simulate a dataset from the prior")
    common(p)
    p.add_argument("--out", required=True, help="output dataset CSV")

    p = sub.add_parser("fit", help="run MCMC on a dataset")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="chain output directory")

    p = sub.add_parser("predict", help="posterior prediction at test sites")
    common(p)
    p.add_argument("--chain", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--quantiles", default="0.025,0.975",
                   help="comma-separated probabilities in [0, 1]")
    p.add_argument("--max-draws", type=int, default=500,
                   help="thin the chain to at most this many draws (0: all)")
    p.add_argument("--noise-free-prediction", action="store_true")

    p = sub.add_parser("summarize", help="summarize a fitted chain")
    common(p)
    p.add_argument("--chain", required=True)
    p.add_argument("--out", help="also write the text report here")
    return ap


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(args.config) if args.config else RunConfig()
        if args.seed is not None:
            config.seed = args.seed
        if args.threads is not None:
            config.threads = args.threads
        config.validate()
        if args.command == "simulate":
            return cmd_simulate(config, args.out)
        if args.command == "fit":
            return cmd_fit(config, args.data, args.out)
        if args.command == "predict":
            return cmd_predict(args.chain, args.data, args.test, args.out,
                               _parse_quantiles(args.quantiles), args.max_draws,
                               args.noise_free_prediction, seed=args.seed)
        if args.command == "summarize":
            return cmd_summarize(args.chain, args.out)
        raise ValidationError(f"unknown command {args.command}")
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except NumericalError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
