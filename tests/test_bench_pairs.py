"""tools/bench_pairs.py on canned harness results: the side that runs first
alternates, each pair has its own seed, wins follow each metric's direction,
``--record`` writes the printed figures as JSON, and a run that reports
``correct: false`` fails the command. Also the pooling of tools/bench_record.py's
ESS mode on canned fits."""

import json
import os
import sys

import types

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tools"))
import bench_pairs  # noqa: E402
import bench_record  # noqa: E402


@pytest.fixture
def fake_runs(monkeypatch):
    """Replace the harness run: the change is faster in wall_s and lower in
    ok_frac (worse, higher is better); record the call order. A change run
    with seed ``bad`` reports itself incorrect."""
    fake = types.SimpleNamespace(calls=[], bad=None)

    def run(checkout, workload, seed, seconds, trace):
        side = "change" if checkout.endswith("change") else "parent"
        fake.calls.append((side, seed, trace))
        wall = 1.0 if side == "change" else 2.0
        ok = 0.5 if side == "change" else 1.0
        metrics = {"wall_s": {"value": wall + 0.01 * seed},
                   "ok_frac": {"value": ok}}
        return {}, {"correct": not (side == "change" and seed == fake.bad),
                    "metrics": metrics}
    monkeypatch.setattr(bench_pairs, "run", run)
    return fake


def setup_dirs(tmp_path):
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    bench = {"run_seconds": 3, "end_to_end": [
        {"name": "wall_s", "better": "lower"}, {"name": "ok_frac", "better": "higher"}]}
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps(bench))
    return ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
            "--workload", "w", "--pairs", "3"]


def test_alternating_pairs_and_wins(tmp_path, fake_runs, capsys):
    assert bench_pairs.main(setup_dirs(tmp_path)) == 0
    assert fake_runs.calls == [("parent", 1, 0), ("change", 1, 0), ("change", 2, 0),
                         ("parent", 2, 0), ("parent", 3, 0), ("change", 3, 0)]
    out = capsys.readouterr().out
    wall = next(ln for ln in out.splitlines() if ln.startswith("wall_s"))
    ok = next(ln for ln in out.splitlines() if ln.startswith("ok_frac"))
    assert wall.split()[1] == "2.015/2.02/2.025" and wall.endswith("3/3")
    assert ok.endswith("0/3")


def test_incorrect_run_fails(tmp_path, fake_runs):
    fake_runs.bad = 2
    assert bench_pairs.main(setup_dirs(tmp_path)) == 1


def test_record_writes_table(tmp_path, fake_runs, capsys):
    path = tmp_path / "pairs.json"
    assert bench_pairs.main(setup_dirs(tmp_path) + ["--record", str(path)]) == 0
    rec = json.loads(path.read_text())
    assert rec["workload"] == "w" and rec["pairs"] == 3 and rec["correct"] is True
    wall, ok = rec["metrics"]["wall_s"], rec["metrics"]["ok_frac"]
    assert wall["parent"]["values"] == [2.01, 2.02, 2.03]
    assert wall["change"]["median"] == pytest.approx(1.02)
    assert (wall["parent"]["q1"], wall["parent"]["q3"]) == pytest.approx((2.015, 2.025))
    assert (wall["won"], ok["won"], ok["pairs"]) == (3, 0, 3)
    assert ok["better"] == "higher"
    # the printed table shows the recorded figures
    line = next(ln for ln in capsys.readouterr().out.splitlines()
                if ln.startswith("wall_s"))
    assert line.split()[2] == "1.015/1.02/1.025"


def test_ess_mode_pools_seeds_and_keeps_other_entries(tmp_path, monkeypatch):
    cfgs = []

    def ess_run(checkout, seed, cfg_text):
        cfgs.append(cfg_text)
        return {"seed": seed, "wall_s": 2.0, "ess_per_s_theta_min": 1.0,
                "ess_theta": {"phi_1": 10.0 * seed, "tau2_1": 4.0}, "ess_loglik": 6.0}
    monkeypatch.setattr(bench_record, "ess_run", ess_run)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "BENCH_x.json").write_text(json.dumps({"ess": {"old": 1}, "pairs": 2}))
    bench_record.main(["--label", "x", "--ess", "new", "--iters", "20", "--burn", "10",
                       "--set", "theta_mode = full"])
    rec = json.loads((tmp_path / "BENCH_x.json").read_text())
    assert rec["pairs"] == 2 and rec["ess"]["old"] == 1
    # per entry: ESS summed over the three seeds over the summed wall time
    pooled = rec["ess"]["new"]["pooled"]
    assert pooled["ess_per_s_theta"] == {"phi_1": 10.0, "tau2_1": 2.0}
    assert pooled["ess_per_s_theta_min"] == 2.0 and pooled["ess_per_s_loglik"] == 3.0
    assert [c.splitlines()[-1] for c in cfgs] == ["seed = 1", "seed = 2", "seed = 3"]
    assert "iters = 20\nburn = 10\n" in cfgs[0] and "theta_mode = full\n" in cfgs[0]
