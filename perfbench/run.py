"""Layered benchmark of ``spiox fit`` and ``spiox predict``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Every command is ``spiox.cli.main``
in a fresh child process (perfbench/child.py) with ``--threads 1`` and BLAS
pinned to one thread; one caller issues the commands back to back (a closed
loop with one client), as a batch user does.

With ``--trace 0`` the run interleaves the set-up command (zero iterations
for fit, one site and one draw for predict) and the full command until
``--seconds`` is used up (at least three set-ups and two full commands).
Each command's time is its cost: its wall time rescaled by the speed the
child's probe (child.SpeedProbe) saw while it ran, i.e. the wall time the
command would take at a fixed reference speed of the host. ``setup_s`` and
``wall_s`` are the median costs of the two kinds of command, and ``unit_ms``
is (``wall_s`` - ``setup_s``) per MCMC iteration (fit) or per site-draw
(predict). ``peak_rss_mb`` is the largest peak resident memory of a full
command and ``ok_frac`` the share of commands that succeeded. The raw wall
times are printed on the line before the result.

Every output is checked (see checks.py); a nonzero exit or a failed check
counts as a failed command. With ``--trace 1`` the full command runs once
untraced and once traced, and the run reports per-layer metrics from the
spans (see spans.py) plus the tracing overhead. The last line of standard
output is the JSON result.

MCMC runs are shorter than the default ``iters = 2000, burn = 1000`` but keep
each step's share of iterations: burn-in is half the run, the zero-distance
summary runs on 1 iteration in 16 and the latent field is stored on 1 in 10.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import checks
import inputs
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench")
MIN_SETUPS = 3
MIN_FULLS = 2
COMMAND_TIMEOUT_S = 150
MAIN_BUDGET_S = 120
# Probe time (child.SpeedProbe) that defines the reference speed: a command's
# cost is its wall time, less the probe's own time, times the mean over its
# probe samples of REFERENCE_PROBE_S / sample.
REFERENCE_PROBE_S = 1.0e-3

# Why each workload exists is recorded in BENCHMARK.json and NOTES.md.
# fit-latent-outcome and predict-grid run by hand but are left out of
# BENCHMARK.json (see NOTES.md): the per-outcome fit's cost moves with the
# seed by a fifth (its conjugate-gradient solves take more or fewer steps),
# and the time budget of a full benchmark pass fits three workloads. Both
# latent fits fix the nugget: with it free, the per-outcome fit's
# conjugate-gradient iteration count swung fourfold from seed to seed and
# the per-site fit's count of factor rebuilds moved with the data.
FIT_WORKLOADS = {
    "fit-response": {"inputs": "fit2000", "iters": 32,
                     "config": {"model": "response"}},
    "fit-latent-site": {"inputs": "fit500", "iters": 40,
                        "config": {"model": "latent", "w_update": "site",
                                   "prior.tau2": "1e-3, 1e-3"}},
    "fit-latent-outcome": {"inputs": "fit500-smooth", "iters": 160,
                           "config": {"model": "latent", "w_update": "outcome",
                                      "prior.nu": "1.5, 1.5", "prior.tau2": "1e-3, 1e-3"}},
}
# Metrics of code that only fit-latent-outcome reaches (the half-integer
# Matern and pcg_solve): left out of BENCHMARK.json and of the traced output
# of every other workload, where they read 0.
OUTCOME_ONLY_LAYER_METRICS = ("kernels.halfint.s", "kernels.halfint.evals",
                              "inference.pcg.iters_per_solve")
PREDICT_WORKLOADS = {
    "predict-grid": {"test": "grid.csv", "draws": 16},
    "predict-cokrige": {"test": "cokrige.csv", "draws": 12},
}


def fit_config(spec, iters):
    cfg = {"vecchia_m": 15, "iters": iters, "burn": iters // 2,
           "zero_corr_draws": iters // 16, "store_w": iters // 10,
           **spec["config"]}
    return "".join(f"{k} = {v}\n" for k, v in cfg.items())


class Runner:
    """Runs child commands and counts attempted and failed ones."""

    def __init__(self, work):
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.blas_threads = set()
        self.env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                        MKL_NUM_THREADS="1", PYTHONHASHSEED="0")

    def command(self, argv, check, trace_path=None):
        """Run one spiox command, then ``check()`` on its output; a nonzero exit
        or a failed check makes the command a failure. Returns its wall time,
        its wall time less the probe's own time, its cost and its peak resident
        memory."""
        self.attempted += 1
        tag = f"cmd{self.attempted}"
        result = os.path.join(self.work, tag + ".json")
        log = os.path.join(self.work, tag + ".log")
        child = [sys.executable, os.path.join(HERE, "child.py"), result,
                 trace_path or "-", "--"] + argv
        with open(log, "w", encoding="utf-8") as out:
            t0 = time.perf_counter()
            try:
                rc = subprocess.run(child, stdout=out, stderr=subprocess.STDOUT,
                                    env=self.env, cwd=ROOT,
                                    timeout=COMMAND_TIMEOUT_S).returncode
            except subprocess.TimeoutExpired:
                rc = "timeout"
            wall = time.perf_counter() - t0
        info = {"peak_rss_kb": 0, "blas_threads": None, "probe_n": 0}
        if os.path.exists(result):
            with open(result, encoding="utf-8") as fh:
                info.update(json.load(fh))
        self.blas_threads.add(info["blas_threads"])
        if rc != 0:
            with open(log, encoding="utf-8", errors="replace") as fh:
                errs = [f"spiox {argv[0]} exited with {rc}:\n{fh.read()[-2000:]}"]
        else:
            try:
                errs = check()
            except Exception as e:  # a malformed output is a failed command
                errs = [f"output check raised {e!r}"]
        self.report(errs)
        res = {"wall": wall, "peak_rss_mb": info["peak_rss_kb"] / 1024.0,
               "unprobed": wall, "cost": wall}
        if info["probe_n"]:  # none when the command died at once; it failed then
            speed = REFERENCE_PROBE_S * info["probe_inv_sum"] / info["probe_n"]
            res["unprobed"] = wall - info["probe_s"]
            res["cost"] = res["unprobed"] * speed
        return res

    def report(self, errs):
        if errs:
            self.failed += 1
            for e in errs:
                print(f"FAILED: {e}", file=sys.stderr)


class FitWorkload:
    def __init__(self, name, seed, inputs_dir):
        self.spec = FIT_WORKLOADS[name]
        self.seed = seed
        self.data = os.path.join(inputs_dir, "data.csv")
        self.latent = self.spec["config"]["model"] == "latent"
        self.units = self.spec["iters"]

    def _run(self, runner, iters, trace_path=None):
        cfg_text = fit_config(self.spec, iters)
        tag = f"fit{runner.attempted + 1}"
        cfg = os.path.join(runner.work, tag + ".cfg")
        out = os.path.join(runner.work, tag)
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write(cfg_text)
        res = runner.command(
            ["fit", "--config", cfg, "--data", self.data, "--out", out,
             "--threads", "1", "--seed", str(self.seed)],
            lambda: checks.check_fit(out, self.data, cfg_text, iters - iters // 2,
                                     self.latent),
            trace_path)
        shutil.rmtree(out, ignore_errors=True)
        return res

    def setup(self, runner):
        return self._run(runner, 0)

    def full(self, runner, trace_path=None):
        return self._run(runner, self.units, trace_path)


class PredictWorkload:
    def __init__(self, name, seed, inputs_dir):
        self.spec = PREDICT_WORKLOADS[name]
        self.seed = seed
        self.dir = inputs_dir
        self.test = os.path.join(inputs_dir, self.spec["test"])
        with open(self.test, encoding="utf-8") as fh:
            sites = sum(1 for _ in fh) - 1
        self.units = sites * self.spec["draws"]
        self.pinned = {}
        if self.spec["test"] == "grid.csv":
            with open(os.path.join(inputs_dir, "grid_on_reference.json"), encoding="utf-8") as fh:
                on_ref = json.load(fh)
            _, Y = checks.read_dataset_csv(os.path.join(inputs_dir, "reference.csv"))
            self.pinned = {t: Y[k] for t, k in zip(on_ref["grid_rows"], on_ref["reference_rows"])}

    def _run(self, runner, test, draws, pinned, trace_path=None):
        out = os.path.join(runner.work, f"pred{runner.attempted + 1}.csv")
        res = runner.command(
            ["predict", "--chain", os.path.join(self.dir, "chain"),
             "--data", os.path.join(self.dir, "reference.csv"), "--test", test,
             "--out", out, "--max-draws", str(draws), "--threads", "1",
             "--seed", str(self.seed)],
            lambda: checks.check_predict(out, test, pinned),
            trace_path)
        if os.path.exists(out):
            os.remove(out)
        return res

    def setup(self, runner):
        return self._run(runner, os.path.join(self.dir, "one_site.csv"), 1, None)

    def full(self, runner, trace_path=None):
        return self._run(runner, self.test, self.spec["draws"], self.pinned, trace_path)


def code_digest():
    h = hashlib.sha256()
    for d in (os.path.join(SRC, "spiox"), HERE):
        for name in sorted(os.listdir(d)):
            if name.endswith(".py"):
                with open(os.path.join(d, name), "rb") as fh:
                    h.update(name.encode() + fh.read())
    return h.hexdigest()[:16]


def environment(runner):
    import numpy as np
    import scipy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__, "blas": blas,
            "blas_threads": sorted(runner.blas_threads, key=str)}


def exact_count_check(runner, workload, seed, layer):
    """Exact counts of one code version and seed must repeat across runs."""
    counts = {k: layer[k]["value"] for k in spans.EXACT_COUNTS}
    path = os.path.join(STATE, "counts", f"{workload}-{seed}-{code_digest()}.json")
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            before = json.load(fh)
        runner.report([f"exact count {k} was {before[k]!r} and is now {counts[k]!r} "
                      "for the same code and seed" for k in counts if before.get(k) != counts[k]])
    else:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(counts, fh)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(FIT_WORKLOADS) + sorted(PREDICT_WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isdir(os.path.join(SRC, "spiox")):
        print(f"error: no spiox sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    work = os.path.join(STATE, "work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    runner = Runner(work)
    try:
        fit = args.workload in FIT_WORKLOADS
        kind = FIT_WORKLOADS[args.workload]["inputs"] if fit else "predict4000"
        inputs_dir = inputs.prepare(os.path.join(STATE, "inputs"), kind, args.seed)
        wl = (FitWorkload if fit else PredictWorkload)(args.workload, args.seed, inputs_dir)
        if args.trace:
            metrics = traced(runner, wl, args)
        else:
            metrics = untraced(runner, wl, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if runner.blas_threads - {1, None}:
        runner.report([f"BLAS thread counts {sorted(runner.blas_threads, key=str)}, "
                       "expected 1"])
    print(json.dumps({"env": environment(runner)}))
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


def untraced(runner, wl, seconds):
    """Set-up and full commands interleaved (S F S F S F F F F S F F S ...)
    until ``seconds`` is used up, with at least MIN_SETUPS and MIN_FULLS of
    each. The metrics are medians of the commands' costs, not of their wall
    times: the shared host this was sized on switches between a fast state
    and one about twice as slow every few seconds, so raw wall times of the
    same command spread by a quarter from run to run."""
    setups, fulls = [], []
    t0 = time.perf_counter()
    while True:
        setup_next = (len(setups) < MIN_SETUPS and len(setups) <= len(fulls)
                      or 2 * len(setups) <= len(fulls))
        done = setups if setup_next else fulls
        elapsed = time.perf_counter() - t0
        if len(setups) >= MIN_SETUPS and len(fulls) >= MIN_FULLS and (
                elapsed + statistics.median(c["wall"] for c in done) > seconds
                or elapsed > MAIN_BUDGET_S):
            break
        done.append(wl.setup(runner) if setup_next else wl.full(runner))
    setup_s = statistics.median(c["cost"] for c in setups)
    wall_s = statistics.median(c["cost"] for c in fulls)
    unit_ms = (wall_s - setup_s) / wl.units * 1e3
    # every command's raw wall time and cost, for the record
    print(json.dumps({"setup": [[c["wall"], c["cost"]] for c in setups],
                      "full": [[c["wall"], c["cost"]] for c in fulls],
                      "elapsed_s": time.perf_counter() - t0}))
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "wall_s": {"value": wall_s, "unit": "s"},
        "unit_ms": {"value": unit_ms, "unit": "ms"},
        "peak_rss_mb": {"value": max(c["peak_rss_mb"] for c in fulls), "unit": "MB"},
        "ok_frac": {"value": 1.0 - runner.failed / runner.attempted, "unit": "frac"},
    }


def traced(runner, wl, args):
    plain = wl.full(runner)
    span_path = os.path.join(runner.work, "spans.npz")
    traced_run = wl.full(runner, span_path)
    layer = spans.layer_metrics(span_path) if os.path.exists(span_path) \
        else {name: {"value": 0.0, "unit": unit} for name, unit in spans.LAYER_METRICS}
    exact_count_check(runner, args.workload, args.seed, layer)
    if args.workload != "fit-latent-outcome":
        layer = {k: v for k, v in layer.items() if k not in OUTCOME_ONLY_LAYER_METRICS}
    # the traced command runs without the speed probe, so both sides are raw
    # wall times and the ratio carries the host's speed swings
    layer["trace.overhead_frac"] = {"value": traced_run["wall"] / plain["unprobed"] - 1.0,
                                    "unit": "frac"}
    return layer


if __name__ == "__main__":
    sys.exit(main())
