"""Judge a change against its parent with alternating paired benchmark runs.

    python3 tools/bench_pairs.py --parent DIR --change DIR --workload W --pairs N
        [--record PATH]

Pair i runs ``perfbench/run.py --trace 0`` of both checkouts with seed i + 1;
the parent goes first in even pairs and the change in odd ones, so a drift of
the host's speed falls on both sides alike. For every end-to-end metric of
the change's ``BENCHMARK.json`` it prints the median and quartiles of each
side and the number of pairs the change won (strictly better, in the
metric's direction). With ``--record PATH`` it also writes the same
figures, and every run's value, as JSON to PATH. It exits 1 if any run
reports ``correct: false``. Runs are sequential, one child at a time.
"""

import argparse
import json
import os
import statistics
import sys

from bench_record import run


def quartiles(values):
    """(first quartile, median, third quartile) of a list of numbers."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def paired_runs(parent, change, workload, pairs, seconds):
    """Each pair's metric values per side and whether every run was correct."""
    sides = {"parent": parent, "change": change}
    results = {"parent": [], "change": []}
    correct = True
    for i in range(pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            _, res = run(sides[side], workload, i + 1, seconds, 0)
            correct &= bool(res["correct"])
            results[side].append({m: v["value"] for m, v in res["metrics"].items()})
            print(f"pair {i} {side}: correct {res['correct']}", file=sys.stderr)
    return results, correct


def summary(results, end_to_end):
    """Per end-to-end metric: each side's values and quartiles, and the
    pairs the change won."""
    out = {}
    for m in end_to_end:
        sides = {side: [r[m["name"]] for r in results[side]]
                 for side in ("parent", "change")}
        sign = 1.0 if m["better"] == "lower" else -1.0
        won = sum(sign * (c - p) < 0 for p, c in zip(sides["parent"], sides["change"]))
        out[m["name"]] = {"better": m["better"], "won": won, "pairs": len(sides["parent"])}
        for side, vals in sides.items():
            q1, q2, q3 = quartiles(vals)
            out[m["name"]][side] = {"q1": q1, "median": q2, "q3": q3, "values": vals}
    return out


def report(table):
    """One line per metric of ``summary``: each side's quartiles, and the
    pairs the change won."""
    lines = [f"{'metric':<12} {'parent q1/med/q3':>30} {'change q1/med/q3':>30}  won"]
    for name, row in table.items():
        cells = ["/".join(f"{row[side][k]:.4g}" for k in ("q1", "median", "q3"))
                 for side in ("parent", "change")]
        lines.append(f"{name:<12} {cells[0]:>30} {cells[1]:>30}  {row['won']}/{row['pairs']}")
    return "\n".join(lines)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--record", help="also write the table as JSON to this path")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")
    parent, change = os.path.abspath(args.parent), os.path.abspath(args.change)
    with open(os.path.join(change, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    results, correct = paired_runs(parent, change, args.workload, args.pairs,
                                   bench["run_seconds"])
    table = summary(results, bench["end_to_end"])
    print(f"{args.workload}, {args.pairs} pairs")
    print(report(table))
    if args.record:
        with open(args.record, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "pairs": args.pairs,
                       "correct": correct, "metrics": table}, fh, indent=1)
            fh.write("\n")
    if not correct:
        print("a run reported correct: false", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
