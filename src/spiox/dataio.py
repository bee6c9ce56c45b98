"""Dataset and chain-file input/output.

Dataset CSV schema: header row; the first d columns are coord_1..coord_d;
columns prefixed x_ are predictors; every other column is an outcome.
Numeric fields are serialized with 17 significant digits, so a written file
reparses bit-identically. Empty outcome cells mark missing values and are
only legal in prediction inputs.
"""

import hashlib
import json
import os
import time

import numpy as np

from .errors import ValidationError


def fmt(x):
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if np.isnan(x):
        return ""
    return "%.17g" % x


def dataset_hash(coords):
    """Digest of the reference coordinates; chains carry it so predictions are
    guarded against a mismatched reference set."""
    a = np.ascontiguousarray(coords, dtype=float)
    return hashlib.sha256(a.tobytes()).hexdigest()


def write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt(v) if not isinstance(v, str) else v for v in row) + "\n")


def _read_rows(path):
    """Yield (lineno, byte_offset, fields) per line; offsets support truncation
    diagnostics."""
    with open(path, "rb") as fh:
        offset = 0
        for lineno, raw in enumerate(fh, start=1):
            text = raw.decode("utf-8").rstrip("\r\n")
            yield lineno, offset, text.split(",")
            offset += len(raw)


def read_table(path):
    """Read a CSV with header into (header, float array with NaN for blanks).

    Malformed rows raise ValidationError reporting line and byte offset.
    """
    rows = []
    header = None
    ncol = None
    for lineno, offset, fields in _read_rows(path):
        if header is None:
            header = fields
            ncol = len(fields)
            continue
        if len(fields) == 1 and fields[0] == "":
            continue
        if len(fields) != ncol:
            raise ValidationError(
                f"{path}: line {lineno} (byte offset {offset}) has "
                f"{len(fields)} fields, expected {ncol}")
        try:
            rows.append([float(v) if v != "" else np.nan for v in fields])
        except ValueError as e:
            raise ValidationError(
                f"{path}: line {lineno} (byte offset {offset}): {e}")
    if header is None:
        raise ValidationError(f"{path}: empty file")
    return header, np.array(rows, dtype=float) if rows else np.empty((0, ncol))


def read_mixed(path):
    """Read a CSV with header into (header, rows); cells parse to float where
    possible and stay strings otherwise (summary and prediction tables)."""
    header = None
    rows = []
    for _, _, fields in _read_rows(path):
        if header is None:
            header = fields
            continue
        row = []
        for v in fields:
            try:
                row.append(float(v) if v != "" else np.nan)
            except ValueError:
                row.append(v)
        rows.append(row)
    return header, rows


def read_dataset(path, require_complete=True):
    """Parse a dataset CSV into (coords, Y, X, outcome_names).

    coords is the (N, d) array of finite site coordinates; rows may repeat
    (a reference set is checked for duplicates when it becomes a
    LocationSet). Y keeps NaN for empty outcome cells; require_complete
    rejects them with the offending row index (fit-time contract).
    """
    header, M = read_table(path)
    d = 0
    while d < len(header) and header[d] == f"coord_{d + 1}":
        d += 1
    if d == 0:
        raise ValidationError(f"{path}: first columns must be coord_1..coord_d")
    x_cols = [i for i in range(d, len(header)) if header[i].startswith("x_")]
    y_cols = [i for i in range(d, len(header)) if not header[i].startswith("x_")]
    if not y_cols:
        raise ValidationError(f"{path}: no outcome columns found")
    if M.shape[0] < 1:
        raise ValidationError(f"{path}: no data rows")
    coords = M[:, :d]
    if not np.all(np.isfinite(coords)):
        bad = int(np.argwhere(~np.isfinite(coords))[0, 0])
        raise ValidationError(f"{path}: non-finite coordinate at data row {bad}")
    Y = M[:, y_cols]
    X = M[:, x_cols] if x_cols else None
    if require_complete and np.isnan(Y).any():
        bad = int(np.argwhere(np.isnan(Y).any(axis=1))[0, 0])
        raise ValidationError(
            f"{path}: missing outcome value at data row {bad}; "
            "fit requires complete cases")
    if X is not None and np.isnan(X).any():
        bad = int(np.argwhere(np.isnan(X).any(axis=1))[0, 0])
        raise ValidationError(f"{path}: missing predictor at data row {bad}")
    names = [header[i] for i in y_cols]
    return coords, Y, X, names


def write_dataset(path, coords, Y, X=None, outcome_names=None):
    coords = np.atleast_2d(coords)
    Y = np.atleast_2d(Y)
    d = coords.shape[1]
    q = Y.shape[1]
    names = outcome_names or [f"y_{j + 1}" for j in range(q)]
    header = [f"coord_{k + 1}" for k in range(d)]
    if X is not None:
        header += [f"x_{k + 1}" for k in range(X.shape[1])]
    header += names
    def rows():
        for i in range(coords.shape[0]):
            row = list(coords[i])
            if X is not None:
                row += list(X[i])
            row += list(Y[i])
            yield row
    write_csv(path, header, rows())


# ---------------------------------------------------------------------------
# chain files


def _pair_names(q, stem):
    return [f"{stem}_{i + 1}_{j + 1}" for i in range(q) for j in range(i, q)]


def write_chain(outdir, chain, config, s_hash, outcome_names):
    """Write one CSV per sampled quantity and meta.json; the CSV writes are
    timed under the ``io`` key of meta.json's timings."""
    t0 = time.perf_counter()
    os.makedirs(outdir, exist_ok=True)
    d = chain.draws
    nd = chain.meta["n_draws"]
    q = chain.meta["q"]
    p = chain.meta["p"]

    write_csv(os.path.join(outdir, "theta.csv"),
              ["draw"] + [f"phi_{j+1}" for j in range(q)]
              + [f"nu_{j+1}" for j in range(q)] + [f"tau2_{j+1}" for j in range(q)],
              ([i] + list(d["theta"][i, :, 0]) + list(d["theta"][i, :, 1])
               + list(d["theta"][i, :, 2]) for i in range(nd)))
    iu = [(a, b) for a in range(q) for b in range(a, q)]
    write_csv(os.path.join(outdir, "sigma.csv"),
              ["draw"] + _pair_names(q, "sigma"),
              ([i] + [d["sigma"][i, a, b] for a, b in iu] for i in range(nd)))
    write_csv(os.path.join(outdir, "beta.csv"),
              ["draw"] + [f"beta_{k+1}_{j+1}" for j in range(q) for k in range(p)],
              ([i] + [d["beta"][i, k, j] for j in range(q) for k in range(p)]
               for i in range(nd)))
    write_csv(os.path.join(outdir, "pi.csv"),
              ["draw"] + [f"pi_{j+1}" for j in range(q)],
              ([i] + list(d["pi"][i]) for i in range(nd)))
    write_csv(os.path.join(outdir, "loglik.csv"), ["draw", "loglik"],
              ([i, d["loglik"][i]] for i in range(nd)))
    if "delta" in d:
        write_csv(os.path.join(outdir, "delta.csv"),
                  ["draw"] + [f"delta_{j+1}" for j in range(q)],
                  ([i] + list(d["delta"][i]) for i in range(nd)))
    if chain.zero_corr is not None:
        zc = chain.zero_corr
        norm = np.empty_like(zc)
        for t in range(zc.shape[0]):
            dd = np.sqrt(np.diag(zc[t]))
            norm[t] = zc[t] / np.outer(dd, dd)
        write_csv(os.path.join(outdir, "zero_corr.csv"),
                  ["draw"] + _pair_names(q, "rho"),
                  ([chain.zero_corr_iters[t]] + [norm[t, a, b] for a, b in iu]
                   for t in range(zc.shape[0])))
    if chain.w_draws is not None:
        n = chain.w_draws.shape[1]
        write_csv(os.path.join(outdir, "w.csv"),
                  ["draw"] + [f"w_{s+1}_{j+1}" for j in range(q) for s in range(n)],
                  ([chain.w_draw_iters[t]]
                   + [chain.w_draws[t, s, j] for j in range(q) for s in range(n)]
                   for t in range(chain.w_draws.shape[0])))
    timings = dict(chain.timings, io=time.perf_counter() - t0)
    meta = dict(chain.meta)
    meta["s_hash"] = s_hash
    meta["outcome_names"] = list(outcome_names)
    meta["acceptance"] = {
        k: (v.tolist() if isinstance(v, np.ndarray) else int(v))
        for k, v in chain.acceptance.items()}
    meta["timings_sec"] = {k: round(v, 4) for k, v in timings.items()}
    meta["config"] = config.echo()
    with open(os.path.join(outdir, "meta.json"), "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=1, sort_keys=True, default=str)


def read_chain(outdir):
    """Load a chain directory back into plain arrays keyed by file stem."""
    with open(os.path.join(outdir, "meta.json"), "r", encoding="utf-8") as fh:
        meta = json.load(fh)
    out = {"meta": meta}
    for stem in ("theta", "sigma", "beta", "pi", "loglik", "delta",
                 "zero_corr", "w"):
        path = os.path.join(outdir, stem + ".csv")
        if os.path.exists(path):
            header, M = read_table(path)
            out[stem] = (header, M)
    return out


# ---------------------------------------------------------------------------
# summaries


def ess(x):
    """Effective sample size via Geyer's initial positive sequence; NaN for a
    series of two or more draws that never moved."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    if n <= 1:
        return float(n)
    if np.ptp(x) == 0:
        return float("nan")
    x = x - x.mean()
    nfft = int(2 ** np.ceil(np.log2(2 * n)))
    f = np.fft.rfft(x, nfft)
    acov = np.fft.irfft(f * np.conj(f))[:n].real / n
    rho = acov / acov[0]
    s = 0.0
    t = 1
    while t + 1 < n:
        pair = rho[t] + rho[t + 1]
        if pair < 0:
            break
        s += pair
        t += 2
    return float(min(n, n / (1.0 + 2.0 * s)))


def summary_rows(named_series, quantiles=(0.025, 0.975)):
    """(name, mean, sd, q_lo, q_hi, ess) tuples for each named series."""
    rows = []
    for name, x in named_series:
        x = np.asarray(x, dtype=float)
        if x.size == 0:
            continue
        qs = np.quantile(x, quantiles) if x.size > 1 else np.array([x[0], x[0]])
        rows.append((name, float(x.mean()),
                     float(x.std(ddof=1)) if x.size > 1 else 0.0,
                     float(qs[0]), float(qs[1]), ess(x)))
    return rows
