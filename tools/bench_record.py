"""Record one point of the benchmark trajectory as ``BENCH_<label>.json``.

    python3 tools/bench_record.py --label 6 [--checkout DIR]

For every workload in ``BENCHMARK.json`` it runs ``perfbench/run.py`` of the
checkout (default: this one) once per seed in SEEDS with ``--trace 0`` and
once with ``--trace 1`` (first seed only), and writes to the current
directory:

- ``end_to_end``: per metric, the median over seeds of the untraced runs'
  values, plus every seed's value;
- ``per_layer``: the traced run's per-layer metrics;
- ``env``: core count, CPU, Python, numpy, scipy and BLAS, as the harness
  reports them.

Measuring another checkout (``--checkout``) lets a parent commit be recorded
with the same harness. Runs are sequential, one child at a time.

    python3 tools/bench_record.py --label 18 --ess NAME [--checkout DIR]
        [--iters 2000] [--burn 1000] [--set "key = value" ...]

The ESS mode measures how well the sampler mixes rather than how fast an
iteration runs. For every seed in SEEDS it fits the response model of the
``fit-response`` workload (``vecchia_m = 15``, seed = the input seed) on that
seed's ``fit2000`` input set for ``--iters`` iterations, in a fresh
interpreter of the checkout with BLAS pinned to one thread, and records under
``ess`` -> NAME in ``BENCH_<label>.json`` (other entries of the file are
kept): the ESS of every kernel-parameter entry and of the log-likelihood,
the fit's wall time, ESS per second, the acceptance counters, and the
posterior means of log10 tau2 with their Monte Carlo standard errors. ``pooled`` holds, per entry, the ESS summed
over seeds divided by the summed wall time, and its minimum over entries
(an entry that never moved has a NaN ESS and is skipped).
``--set`` adds config lines (a parent's ``theta_update = block``, say).
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# fixed, so that every BENCH file is measured on the same inputs
SEEDS = (1, 2, 3)


def run(checkout, workload, seed, seconds, trace):
    """One harness run; returns its env line and its result line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          check=False)
    lines = [ln for ln in proc.stdout.splitlines() if ln.startswith("{")]
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{' '.join(cmd)} failed ({proc.returncode}):\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(lines[-2])["env"], json.loads(lines[-1])


# run in the measured checkout: fit, then save the draws and the counters
ESS_CHILD = """
import json, sys, time
import numpy as np
from spiox.config import parse_config
from spiox.dataio import read_dataset
from spiox.geom import LocationSet
from spiox.inference import run_chain
from spiox.ioxcore import OutcomeMatrix
coords, Y, X, _ = read_dataset(sys.argv[2])
t0 = time.perf_counter()
ch = run_chain(parse_config(sys.argv[1]), OutcomeMatrix(Y, X), LocationSet(coords))
wall = time.perf_counter() - t0
acc = {k: np.asarray(v).tolist() for k, v in ch.acceptance.items()}
np.savez(sys.argv[3], theta=ch.draws["theta"], loglik=ch.draws["loglik"],
         info=json.dumps({"wall_s": wall, "timings": ch.timings, "acceptance": acc,
                          "acceptance_rate": ch.meta["acceptance_rate"]}))
"""


def _min_moving(values):
    """The smallest ESS, skipping the NaN of parameters that never moved."""
    return min((v for v in values if not math.isnan(v)), default=math.nan)


def ess_run(checkout, seed, cfg_text):
    """One fit of the ESS mode; returns its record."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import inputs
    from spiox.dataio import ess
    data = os.path.join(inputs.prepare(os.path.join(ROOT, ".perfbench", "inputs"),
                                       "fit2000", seed), "data.csv")
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "draws.npz")
        subprocess.run([sys.executable, "-c", ESS_CHILD, cfg_text, data, out],
                       cwd=checkout, env=env, check=True)
        with np.load(out) as f:
            theta, loglik, info = f["theta"], f["loglik"], json.loads(str(f["info"]))
    q = theta.shape[1]
    names = [f"{nm}_{j + 1}" for j in range(q) for nm in ("phi", "nu", "tau2")]
    ess_theta = [ess(np.log(theta[:, j, k])) for j in range(q) for k in range(3)]
    wall = info["wall_s"]
    return {"seed": seed, "wall_s": wall, "theta_s": info["timings"]["theta"],
            "acceptance_rate": info["acceptance_rate"], "acceptance": info["acceptance"],
            "ess_theta": dict(zip(names, ess_theta)), "ess_loglik": ess(loglik),
            "ess_per_s_theta_min": _min_moving(ess_theta) / wall,
            "ess_per_s_loglik": ess(loglik) / wall,
            "mean_log10_tau2": np.log10(theta[:, :, 2]).mean(axis=0).tolist(),
            # Monte Carlo standard error of each mean: sd / sqrt(ESS)
            "mcse_log10_tau2": [float(np.log10(theta[:, j, 2]).std() / np.sqrt(
                ess_theta[3 * j + 2])) for j in range(q)]}


def ess_mode(args, checkout):
    """Fit every seed, pool the ESS, and merge the entry into the BENCH file."""
    cfg_text = "".join(f"{ln}\n" for ln in ["model = response", "vecchia_m = 15",
                                            f"iters = {args.iters}",
                                            f"burn = {args.burn}",
                                            "zero_corr_draws = 0"]
                       + list(args.set))
    runs = []
    for seed in SEEDS:
        runs.append(ess_run(checkout, seed, cfg_text + f"seed = {seed}\n"))
        print(f"ess seed {seed}: wall {runs[-1]['wall_s']:.1f} s, min theta ESS/s "
              f"{runs[-1]['ess_per_s_theta_min']:.3f}", file=sys.stderr)
    wall = sum(r["wall_s"] for r in runs)
    pooled = {nm: sum(r["ess_theta"][nm] for r in runs) / wall for nm in runs[0]["ess_theta"]}
    out = f"BENCH_{args.label}.json"
    record = {}
    if os.path.exists(out):
        with open(out, encoding="utf-8") as fh:
            record = json.load(fh)
    record.setdefault("ess", {})[args.ess] = {
        "config": cfg_text, "runs": runs,
        "pooled": {"ess_per_s_theta": pooled,
                   "ess_per_s_theta_min": _min_moving(pooled.values()),
                   "ess_per_s_loglik": sum(r["ess_loglik"] for r in runs) / wall}}
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(out, file=sys.stderr)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--checkout", default=ROOT)
    ap.add_argument("--ess", metavar="NAME", help="record sampler mixing under this name")
    ap.add_argument("--iters", type=int, default=2000)
    ap.add_argument("--burn", type=int, default=1000)
    ap.add_argument("--set", action="append", default=[], metavar="'KEY = VALUE'")
    args = ap.parse_args(argv)
    checkout = os.path.abspath(args.checkout)
    if args.ess:
        return ess_mode(args, checkout)
    with open(os.path.join(checkout, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    e2e_names = [m["name"] for m in bench["end_to_end"]]
    record = {"label": args.label, "seeds": list(SEEDS), "run_seconds": seconds,
              "workloads": {}}
    for wl in bench["workloads"]:
        name = wl["name"]
        per_seed = {m: [] for m in e2e_names}
        correct = True
        for seed in SEEDS:
            env, res = run(checkout, name, seed, seconds, 0)
            correct &= res["correct"]
            for m in e2e_names:
                per_seed[m].append(res["metrics"][m]["value"])
            print(f"{name} seed {seed}: " + ", ".join(
                f"{m} {per_seed[m][-1]:.4g}" for m in e2e_names), file=sys.stderr)
        _, traced = run(checkout, name, SEEDS[0], seconds, 1)
        correct &= traced["correct"]
        record["env"] = env
        record["workloads"][name] = {
            "correct": correct,
            "end_to_end": {m: {"median": statistics.median(v), "per_seed": v,
                               "unit": next(e["unit"] for e in bench["end_to_end"]
                                            if e["name"] == m)}
                           for m, v in per_seed.items()},
            "per_layer": traced["metrics"],
        }
    out = f"BENCH_{args.label}.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(out, file=sys.stderr)


if __name__ == "__main__":
    main()
