"""Smoke test of the benchmark's traced child process (perfbench/child.py).

Runs ``spiox fit`` and ``spiox predict`` on tiny inputs with tracing on and
checks that the spans the per-layer metrics are built from are recorded: a
sampler step that bound an update function before the tracer rebinds it would
drop its span without any error.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from spiox.dataio import write_dataset

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
sys.path.insert(0, PERFBENCH)
import spans  # noqa: E402

ITERS = 6


def traced(tmp_path, tag, argv):
    """Run one spiox command through child.py with tracing; return the span
    names and counters it recorded."""
    result, span_path = tmp_path / f"{tag}.json", tmp_path / f"{tag}.npz"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, os.path.join(PERFBENCH, "child.py"), str(result),
         str(span_path), "--"] + [str(a) for a in argv],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(result.read_text())["rc"] == 0
    _, names, counts = spans.load(span_path)
    return set(names), counts


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("perfbench_smoke")
    rng = np.random.default_rng(5)
    coords = rng.uniform(0.0, 1.0, size=(40, 2))
    f = np.sin(4.0 * coords[:, 0]) + coords[:, 1]
    Y = np.column_stack([f, 0.5 * f, -f]) + 0.2 * rng.standard_normal((40, 3))
    write_dataset(d / "data.csv", coords, Y)
    test = rng.uniform(0.0, 1.0, size=(3, 2))
    Yt = np.array([[0.1, np.nan, np.nan], [np.nan, 0.2, np.nan], [0.3, -0.1, np.nan]])
    write_dataset(d / "test.csv", test, Yt)
    return d


def fit_args(d, tmp_path, tag, extra):
    cfg = tmp_path / f"{tag}.cfg"
    cfg.write_text(f"vecchia_m = 6\niters = {ITERS}\nburn = 3\nzero_corr_draws = 1\n"
                   + extra)
    return ["fit", "--config", cfg, "--data", d / "data.csv", "--out",
            tmp_path / tag, "--threads", "1", "--seed", "3"]


STEP_SPANS = {"inference.run_chain", "inference.theta", "inference.sigma",
              "inference.beta"}


def test_response_fit_and_cokriging_spans(inputs, tmp_path):
    names, counts = traced(tmp_path, "fit", fit_args(inputs, tmp_path, "fit",
                                                     "model = response\n"))
    assert STEP_SPANS <= names
    assert counts["inference.theta.proposals"] == ITERS
    names, _ = traced(tmp_path, "predict", [
        "predict", "--chain", tmp_path / "fit", "--data", inputs / "data.csv",
        "--test", inputs / "test.csv", "--out", tmp_path / "pred.csv",
        "--max-draws", "2", "--threads", "1"])
    assert "predict.partial" in names


@pytest.mark.parametrize("w_update, expected", [
    ("site", {"inference.w", "inference.delta", "inference.site_refresh"}),
    ("outcome", {"inference.w", "inference.delta", "inference.pcg"}),
])
def test_latent_fit_spans(inputs, tmp_path, w_update, expected):
    names, counts = traced(tmp_path, w_update, fit_args(
        inputs, tmp_path, w_update, f"model = latent\nw_update = {w_update}\n"
                                    "store_w = 1\n"))
    assert STEP_SPANS | expected <= names
    assert counts["inference.theta.proposals"] == ITERS
    if w_update == "site":
        # one batched sweep per iteration, which calls update_w_single_site
        # for no site
        span_rows, span_names, _ = spans.load(tmp_path / f"{w_update}.npz")
        w_id = span_names.index("inference.w")
        assert int((span_rows[:, 0] == w_id).sum()) == ITERS
        assert counts.get("inference.w_site.calls", 0) == 0
