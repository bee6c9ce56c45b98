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
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

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


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--checkout", default=ROOT)
    args = ap.parse_args()
    checkout = os.path.abspath(args.checkout)
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
