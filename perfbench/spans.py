"""Tracing from outside the program: spans around the public calls into each
spiox module, and the per-layer metrics derived from them.

The child process installs a :class:`Tracer` before it calls
``spiox.cli.main``. Each wrapped call records a span (name, start, end,
parent) in memory; calls too frequent for a span only bump a counter. The
spans are written once, when the command ends. ``layer_metrics`` turns a span
file into the per-layer numbers.

Modules bind imported functions under their own names (``from .kernels import
matern``), so a wrapper must replace every binding of the original object,
not only the one in the defining module.
"""

import json
import os
import sys
import time

import numpy as np

HALF_INTEGERS = (0.5, 1.5, 2.5)


class Tracer:
    def __init__(self):
        self.names = {}
        self.spans = []        # [name id, start, end, parent index]
        self.stack = []
        self.counts = {}

    def _name_id(self, name):
        return self.names.setdefault(name, len(self.names))

    def count(self, name, k=1):
        self.counts[name] = self.counts.get(name, 0) + k

    def span(self, name, fn, args, kwargs):
        idx = len(self.spans)
        rec = [self._name_id(name), time.perf_counter(), 0.0,
               self.stack[-1] if self.stack else -1]
        self.spans.append(rec)
        self.stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self.stack.pop()
            rec[2] = time.perf_counter()

    def save(self, path):
        arr = np.array(self.spans, dtype=float).reshape(-1, 4)
        names = sorted(self.names, key=self.names.get)
        np.savez(path, spans=arr, names=np.array(json.dumps(names)),
                 counts=np.array(json.dumps(self.counts)))


def _rebind(original, replacement):
    """Replace ``original`` under every name any spiox module binds it to."""
    for name, mod in list(sys.modules.items()):
        if name != "spiox" and not name.startswith("spiox."):
            continue
        for attr, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, attr, replacement)


def install(tracer):
    """Wrap the public entry points of each spiox module."""
    import spiox.cli  # noqa: F401  (imports every module that gets wrapped)
    from spiox import dataio, geom, inference, ioxcore, kernels, predict, vecchia

    def spanned(name, fn):
        def wrapper(*a, **k):
            return tracer.span(name, fn, a, k)
        return wrapper

    def wrap_fn(mod, attr, name):
        orig = getattr(mod, attr)
        _rebind(orig, spanned(name, orig))

    def wrap_method(cls, attr, name):
        setattr(cls, attr, spanned(name, getattr(cls, attr)))

    def counted(owner, attr, name):
        orig = getattr(owner, attr)

        def wrapper(*a, **k):
            tracer.count(name)
            return orig(*a, **k)
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
        else:
            _rebind(orig, wrapper)

    # kernels: split Matern time by the branch that p.nu selects
    matern = kernels.matern

    def matern_wrapper(dist, p):
        halfint = any(abs(p.nu - h) < 1e-12 for h in HALF_INTEGERS)
        kind = "halfint" if halfint else "bessel"
        tracer.count(f"kernels.{kind}.evals", int(np.size(dist)))
        return tracer.span(f"kernels.{kind}", matern, (dist, p), {})
    _rebind(matern, matern_wrapper)

    wrap_fn(geom, "build_nn_dag", "geom.build_nn_dag")
    wrap_fn(geom, "prediction_parents", "geom.prediction_parents")
    counted(geom, "nearest_neighbors", "geom.nearest_neighbors.calls")

    wrap_method(vecchia.VecchiaWorkspace, "__init__", "vecchia.workspace_init")
    wrap_method(vecchia.VecchiaWorkspace, "build", "vecchia.build")
    counted(vecchia.VecchiaWorkspace, "_retry_row", "vecchia.retry_rows")
    wrap_method(vecchia.SparseInvChol, "whiten", "vecchia.whiten")
    wrap_method(vecchia.SparseInvChol, "unwhiten", "vecchia.unwhiten")

    wrap_method(ioxcore.IoxModel, "__init__", "ioxcore.model_init")
    wrap_method(ioxcore.IoxModel, "_pred_geometry", "ioxcore.pred_geometry")
    wrap_method(ioxcore.IoxModel, "h_r_compact", "ioxcore.h_r_compact")
    wrap_fn(ioxcore, "loglik", "ioxcore.loglik")
    wrap_fn(ioxcore, "zero_distance_cross_corr", "ioxcore.zero_corr")
    wrap_fn(ioxcore, "_coincidence", "ioxcore.coincidence")

    wrap_fn(inference, "run_chain", "inference.run_chain")
    theta_joint = inference.update_theta_joint

    def theta_wrapper(*a, **k):
        out = tracer.span("inference.theta", theta_joint, a, k)
        tracer.count("inference.theta.proposals")
        tracer.count("inference.theta.accepts", int(bool(out[0])))
        return out
    _rebind(theta_joint, theta_wrapper)
    wrap_fn(inference, "update_sigma", "inference.sigma")
    wrap_fn(inference, "update_beta_response", "inference.beta")
    wrap_fn(inference, "update_beta_latent", "inference.beta")
    wrap_fn(inference, "update_w_single_outcome", "inference.w")
    wrap_fn(inference, "sweep_w_sites", "inference.w")
    counted(inference, "update_w_single_site", "inference.w_site.calls")
    wrap_method(inference.SiteSweep, "refresh", "inference.site_refresh")
    wrap_fn(inference, "update_delta", "inference.delta")
    pcg = inference.pcg_solve

    def pcg_wrapper(matvec, *a, **k):
        def counting_matvec(x):
            tracer.count("inference.pcg.iters")
            return matvec(x)
        tracer.count("inference.pcg.solves")
        return tracer.span("inference.pcg", pcg, (counting_matvec,) + a, k)
    _rebind(pcg, pcg_wrapper)

    post = predict.posterior_predictive

    def post_wrapper(T, *a, **k):
        full = isinstance(T, predict.PredictionRequest) and T.y_obs is None
        name = "predict.posterior_full" if full else "predict.posterior_mixed"
        return tracer.span(name, post, (T,) + a, k)
    _rebind(post, post_wrapper)
    wrap_fn(predict, "predict_full", "predict.full")
    wrap_fn(predict, "predict_partial", "predict.partial")
    wrap_fn(predict, "apply_draw", "predict.apply_draw")

    wrap_fn(dataio, "read_dataset", "dataio.read_dataset")
    wrap_fn(dataio, "write_csv", "dataio.write_csv")
    for attr in ("write_chain", "read_chain"):
        orig = getattr(dataio, attr)

        def io_wrapper(outdir, *a, _orig=orig, _name=f"dataio.{attr}", **k):
            out = tracer.span(_name, _orig, (outdir,) + a, k)
            tracer.count(f"{_name}.bytes", sum(
                e.stat().st_size for e in os.scandir(outdir) if e.is_file()))
            return out
        _rebind(orig, io_wrapper)


# ---------------------------------------------------------------------------
# per-layer metrics (parent side)

# name, unit; "count" metrics are exact and must repeat for one code and seed
LAYER_METRICS = [
    ("kernels.bessel.s", "s"), ("kernels.bessel.evals", "count"),
    ("kernels.halfint.s", "s"), ("kernels.halfint.evals", "count"),
    ("geom.build_nn_dag.s", "s"), ("geom.prediction_parents.s", "s"),
    ("geom.nearest_neighbors.calls", "count"),
    ("vecchia.workspace_init.s", "s"), ("vecchia.build.calls", "count"),
    ("vecchia.build.self_s", "s"), ("vecchia.retry_rows", "count"),
    ("vecchia.whiten.calls", "count"), ("vecchia.whiten.s", "s"),
    ("vecchia.unwhiten.calls", "count"), ("vecchia.unwhiten.s", "s"),
    ("ioxcore.model_init.s", "s"), ("ioxcore.loglik.s", "s"),
    ("ioxcore.zero_corr.calls", "count"), ("ioxcore.zero_corr.self_s", "s"),
    ("ioxcore.coincidence.s", "s"), ("ioxcore.pred_geometry.calls", "count"),
    ("ioxcore.pred_geometry.miss_ratio", "ratio"),
    ("ioxcore.h_r_compact.self_s", "s"),
    ("inference.init.s", "s"), ("inference.theta.s", "s"),
    ("inference.theta.accept_ratio", "ratio"), ("inference.sigma.s", "s"),
    ("inference.beta.s", "s"), ("inference.w.s", "s"),
    ("inference.w_site.calls", "count"), ("inference.site_refresh.s", "s"),
    ("inference.pcg.iters_per_solve", "count"), ("inference.delta.s", "s"),
    ("inference.store.s", "s"), ("inference.iter_ms.p50", "ms"),
    ("inference.iter_ms.tail", "ms"), ("inference.iter_ms.tail_pct", "pct"),
    ("inference.iter_ms.samples", "count"),
    ("predict.full.s", "s"), ("predict.partial.calls", "count"),
    ("predict.partial.self_s", "s"), ("predict.apply_draw.s", "s"),
    ("dataio.read_dataset.s", "s"), ("dataio.write_chain.s", "s"),
    ("dataio.write_chain.bytes", "bytes"), ("dataio.read_chain.s", "s"),
    ("dataio.read_chain.bytes", "bytes"), ("dataio.write_csv.s", "s"),
    ("cli.self_s", "s"),
]

EXACT_COUNTS = ("vecchia.build.calls", "vecchia.retry_rows",
                "inference.pcg.iters_per_solve", "ioxcore.pred_geometry.calls",
                "geom.nearest_neighbors.calls")

TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(samples):
    """Highest listed percentile with at least ten samples beyond it."""
    for pct in TAIL_PERCENTILES:
        if len(samples) * (1.0 - pct / 100.0) >= 10:
            return pct
    return 50.0


def load(path):
    with np.load(path) as f:
        return f["spans"], json.loads(str(f["names"])), json.loads(str(f["counts"]))


def layer_metrics(path):
    """Per-layer metrics of one traced command from its span file."""
    spans, names, counts = load(path)
    name_of = np.array(names + ["<none>"])[spans[:, 0].astype(int)] if len(spans) \
        else np.array([], dtype=str)
    start, end, parent = spans[:, 1], spans[:, 2], spans[:, 3].astype(int)
    dur = end - start
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent],
                             minlength=len(spans))
    self_time = dur - child_time

    def sel(*which):
        return np.isin(name_of, which)

    def total(*which):
        return float(dur[sel(*which)].sum())

    def self_total(*which):
        return float(self_time[sel(*which)].sum())

    def n_calls(*which):
        return int(sel(*which).sum())

    def ratio(num, den):
        return float(num) / den if den else 0.0

    chain_idx = np.flatnonzero(sel("inference.run_chain"))
    under_chain = np.isin(parent, chain_idx)
    theta_starts = np.sort(start[sel("inference.theta")])
    updates = sel("inference.theta", "inference.sigma", "inference.beta",
                  "inference.w", "inference.delta") & under_chain
    init = 0.0
    for c in chain_idx:
        first = start[updates & (parent == c)]
        init += (first.min() if first.size else end[c]) - start[c]
    gaps_ms = np.diff(theta_starts) * 1e3
    tail_pct = tail_percentile(gaps_ms)
    geometry_calls = n_calls("ioxcore.pred_geometry")
    geometry_misses = int((sel("ioxcore.coincidence")
                           & np.isin(parent, np.flatnonzero(sel("ioxcore.pred_geometry")))).sum())

    m = {
        "kernels.bessel.s": total("kernels.bessel"),
        "kernels.bessel.evals": counts.get("kernels.bessel.evals", 0),
        "kernels.halfint.s": total("kernels.halfint"),
        "kernels.halfint.evals": counts.get("kernels.halfint.evals", 0),
        "geom.build_nn_dag.s": total("geom.build_nn_dag"),
        "geom.prediction_parents.s": total("geom.prediction_parents"),
        "geom.nearest_neighbors.calls": counts.get("geom.nearest_neighbors.calls", 0),
        "vecchia.workspace_init.s": total("vecchia.workspace_init"),
        "vecchia.build.calls": n_calls("vecchia.build"),
        "vecchia.build.self_s": self_total("vecchia.build"),
        "vecchia.retry_rows": counts.get("vecchia.retry_rows", 0),
        "vecchia.whiten.calls": n_calls("vecchia.whiten"),
        "vecchia.whiten.s": total("vecchia.whiten"),
        "vecchia.unwhiten.calls": n_calls("vecchia.unwhiten"),
        "vecchia.unwhiten.s": total("vecchia.unwhiten"),
        "ioxcore.model_init.s": total("ioxcore.model_init"),
        "ioxcore.loglik.s": total("ioxcore.loglik"),
        "ioxcore.zero_corr.calls": n_calls("ioxcore.zero_corr"),
        "ioxcore.zero_corr.self_s": self_total("ioxcore.zero_corr"),
        "ioxcore.coincidence.s": total("ioxcore.coincidence"),
        "ioxcore.pred_geometry.calls": geometry_calls,
        "ioxcore.pred_geometry.miss_ratio": ratio(geometry_misses, geometry_calls),
        "ioxcore.h_r_compact.self_s": self_total("ioxcore.h_r_compact"),
        "inference.init.s": float(init),
        "inference.theta.s": total("inference.theta"),
        "inference.theta.accept_ratio": ratio(counts.get("inference.theta.accepts", 0),
                                              counts.get("inference.theta.proposals", 0)),
        "inference.sigma.s": total("inference.sigma"),
        "inference.beta.s": total("inference.beta"),
        "inference.w.s": total("inference.w"),
        "inference.w_site.calls": counts.get("inference.w_site.calls", 0),
        "inference.site_refresh.s": total("inference.site_refresh"),
        "inference.pcg.iters_per_solve": ratio(counts.get("inference.pcg.iters", 0),
                                               counts.get("inference.pcg.solves", 0)),
        "inference.delta.s": total("inference.delta"),
        "inference.store.s": float(dur[sel("ioxcore.loglik", "ioxcore.zero_corr")
                                       & under_chain].sum()),
        "inference.iter_ms.p50": float(np.median(gaps_ms)) if gaps_ms.size else 0.0,
        "inference.iter_ms.tail": (float(np.percentile(gaps_ms, tail_pct))
                                   if gaps_ms.size else 0.0),
        "inference.iter_ms.tail_pct": tail_pct if gaps_ms.size else 0.0,
        "inference.iter_ms.samples": int(gaps_ms.size),
        "predict.full.s": total("predict.full", "predict.posterior_full"),
        "predict.partial.calls": n_calls("predict.partial"),
        "predict.partial.self_s": self_total("predict.partial"),
        "predict.apply_draw.s": total("predict.apply_draw"),
        "dataio.read_dataset.s": total("dataio.read_dataset"),
        "dataio.write_chain.s": total("dataio.write_chain"),
        "dataio.write_chain.bytes": counts.get("dataio.write_chain.bytes", 0),
        "dataio.read_chain.s": total("dataio.read_chain"),
        "dataio.read_chain.bytes": counts.get("dataio.read_chain.bytes", 0),
        "dataio.write_csv.s": total("dataio.write_csv"),
        "cli.self_s": self_total("cli.main"),
    }
    return {name: {"value": m[name], "unit": unit} for name, unit in LAYER_METRICS}
