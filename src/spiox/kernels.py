"""Matern correlation functions with optional nugget, and matrix builders.

The correlation at distance d is

    M(d) = 2^(1-nu) / Gamma(nu) * (phi d)^nu * K_nu(phi d),

normalized so M(0) = 1, with the nugget tau2 added only at exactly zero
distance: rho(l, l') = M(||l - l'||) + tau2 * 1{l = l'}. The diagonal of a
correlation matrix over one set is therefore 1 + tau2.

nu in {1/2, 3/2, 5/2} has closed forms. Any other nu makes no Bessel call per
distance: x^nu K_nu(x) comes from piecewise Chebyshev polynomials in log x,
fitted on the fly to a few hundred ``scipy.special.kve`` values for the range
of x at hand (``_matern_bessel``). They match ``scipy.special.kv`` to 1e-12
relative wherever M is above 1e-300, and each value depends only on the
distance, not on the array around it. Fitted panels are cached per (nu, k),
so a repeated nu skips the ``kve`` calls and gets the same bits.
"""

import math
import threading
from dataclasses import dataclass, replace

import numpy as np
from scipy.spatial.distance import cdist
from scipy.special import gamma as gamma_fn
from scipy.special import kve

from .errors import ValidationError

# distances below this are treated as zero to dodge the K_nu(0) singularity
DIST_FLOOR = 1e-14

# K_nu by piecewise Chebyshev approximation in u = log x (see _matern_bessel):
# panel width, terms kept (polynomial degree + 1) and kve nodes per panel.
# Twice as many nodes as terms make each panel a discrete least-squares fit,
# which averages the rounding of the node values instead of amplifying it.
PANEL_WIDTH = 0.5
CHEB_TERMS = 15
CHEB_NODES = 2 * CHEB_TERMS
# M(x) is set to 1 below the x where a bound on 1 - M(x) reaches ONE_GAP
# (see _one_cutoff): half of 2^-54, the gap below which M rounds to 1
ONE_GAP = 2.0 ** -55
# bound on 2 ln(2 / x) + 1 for x >= DIST_FLOOR, the factor of (x/2)^2 in
# 1 - M(x) at nu = 1
LOG_FACTOR = 2.0 * math.log(2.0 / DIST_FLOOR) + 1.0
# largest nu accepted: far above it kve(nu, x) overflows at the smallest x
# the interpolant needs, and the Matern is already near its Gaussian limit
NU_MAX = 30.0
# e^(-x) is 0 in double precision from here on
EXP_UNDERFLOW = 745.2
# most entries in one Horner pass over a group of panels (_matern_bessel)
HORNER_BLOCK = 8192
# most panel coefficient columns kept, keyed by (nu, k), cleared when full;
# one call touches at most about 380 panels, so its misses always fit
COEF_CACHE_SIZE = 512
_coef_cache = {}
_coef_lock = threading.Lock()
_CHEB_T = np.cos(np.pi * (np.arange(CHEB_NODES) + 0.5) / CHEB_NODES)
# node values -> Chebyshev coefficients (DCT-II over first-kind nodes)
_CHEB_DCT = (2.0 / CHEB_NODES) * np.cos(
    np.pi * np.outer(np.arange(CHEB_TERMS), np.arange(CHEB_NODES) + 0.5) / CHEB_NODES)
_CHEB_DCT[0] *= 0.5
# Chebyshev coefficients -> power-basis coefficients in t, for Horner's rule:
# column j holds T_j, from T_0 = 1, T_1 = t and T_j = 2 t T_(j-1) - T_(j-2)
_CHEB_POWER = np.eye(CHEB_TERMS)
for _j in range(2, CHEB_TERMS):
    _CHEB_POWER[:, _j] = -_CHEB_POWER[:, _j - 2]
    _CHEB_POWER[1:, _j] += 2.0 * _CHEB_POWER[:-1, _j - 1]
del _j


@dataclass(frozen=True)
class KernelParams:
    """Per-outcome Matern parameters: decay phi (> 0, inverse range),
    smoothness nu (in (0, NU_MAX]), nugget variance tau2 (>= 0, relative to
    unit sill)."""

    phi: float
    nu: float
    tau2: float = 0.0

    def __post_init__(self):
        for name in ("phi", "nu", "tau2"):
            v = getattr(self, name)
            if not np.isfinite(v):
                raise ValidationError(f"{name} must be finite, got {v}")
        if self.phi <= 0:
            raise ValidationError(f"phi must be > 0, got {self.phi}")
        if not 0 < self.nu <= NU_MAX:
            raise ValidationError(f"nu must be in (0, {NU_MAX}], got {self.nu}")
        if self.tau2 < 0:
            raise ValidationError(f"tau2 must be >= 0, got {self.tau2}")


def _matern_halfint(x, nu):
    """Closed forms for nu in {1/2, 3/2, 5/2}; x = phi * dist, elementwise."""
    if nu == 0.5:
        return np.exp(-x)
    if nu == 1.5:
        return (1.0 + x) * np.exp(-x)
    if nu == 2.5:
        return (1.0 + x + x * x / 3.0) * np.exp(-x)
    raise ValueError(f"no closed form for nu={nu}")


def _panel_width(nu):
    """Lattice spacing H in u for smoothness nu. For large x, g grows like
    x^(nu - 1/2) = e^((nu - 1/2) u), so the spacing halves with each doubling
    of nu past 5 to keep the interpolation error at rounding level."""
    return PANEL_WIDTH / 2.0 ** max(0, math.ceil(math.log2(nu / 5.0)))


def _one_cutoff(nu):
    """x below which M(x) rounds to 1. For small x, 1 - M(x) is at most
    c (x/2)^(2 min(nu, 1)) with c = Gamma(1 - nu) / Gamma(1 + nu) for
    nu < 1 and c = 1 / (nu - 1) for nu > 1, the leading terms of the series
    of x^nu K_nu(x). Both grow without limit as nu -> 1, where the leading
    term is (x^2 / 2)(ln(2 / x) - gamma + 1/2); c is capped at LOG_FACTOR,
    which is a bound for nu near 1 on both sides (checked against 60-digit
    values for nu from 0.01 to 30).
    """
    if nu < 1.0:
        c = gamma_fn(1.0 - nu) / gamma_fn(1.0 + nu)
    else:
        c = 1.0 / (nu - 1.0) if nu > 1.0 else LOG_FACTOR
    c = min(c, LOG_FACTOR)
    return max(DIST_FLOOR, 2.0 * (ONE_GAP / c) ** (0.5 / min(nu, 1.0)))


def _panel_coefficients(panels, nu, width):
    """Power-basis coefficients, (CHEB_TERMS, len(panels)), of the Chebyshev
    fit to g(u) = 2^(1-nu) / Gamma(nu) * x^nu * kve(nu, x), x = e^u, in the
    coordinate t = 2 (u / H - k) - 1 of each panel [k H, (k + 1) H).

    The node values go to Chebyshev coefficients first (a well-conditioned
    DCT) and only then to powers of t: the coefficients decay fast, so the
    power form keeps their accuracy. Each column is summed term by term in a
    fixed order, so it depends only on (nu, k), never on the other panels.
    """
    x = np.exp((panels[None, :] + 0.5 * (1.0 + _CHEB_T[:, None])) * width)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        g = 2.0 ** (1.0 - nu) / gamma_fn(nu) * x ** nu * kve(nu, x)
    cheb = np.zeros((CHEB_TERMS, panels.size))
    for j in range(CHEB_NODES):
        cheb += _CHEB_DCT[:, j:j + 1] * g[j]
    power = np.zeros(cheb.shape)
    for j in range(CHEB_TERMS):
        power += _CHEB_POWER[:, j:j + 1] * cheb[j]
    return power


def _cached_coefficients(panels, nu, width):
    """``_panel_coefficients(panels, nu, width)``, with each column taken
    from the cache when (nu, k) is in it and the misses fitted in one call.
    Chains may run in threads: the cache changes under a lock, and the result
    is assembled from local references, so another caller's clear is harmless."""
    keys = [(nu, k) for k in panels.tolist()]
    cols = [_coef_cache.get(key) for key in keys]
    miss = [i for i, c in enumerate(cols) if c is None]
    if miss:
        fresh = _panel_coefficients(panels[miss], nu, width)
        with _coef_lock:
            if len(_coef_cache) + len(miss) > COEF_CACHE_SIZE:
                _coef_cache.clear()
            for i, col in zip(miss, fresh.T):
                cols[i] = _coef_cache[keys[i]] = col
    return np.stack(cols, axis=1)


def _matern_bessel(x, nu):
    """General-nu Matern, elementwise in x = phi * dist, from a piecewise
    Chebyshev approximation of K_nu.

    M(x) = g(log x) e^(-x) with g(u) = 2^(1-nu) / Gamma(nu) * x^nu *
    kve(nu, x), x = e^u. In u, g is smooth: it tends to 1 as x -> 0 and grows
    like x^(nu - 1/2) for large x. On each panel [k H, (k + 1) H) of a fixed
    lattice in u (H = PANEL_WIDTH up to nu = 5, see _panel_width), g is a
    polynomial of degree CHEB_TERMS - 1 fitted at CHEB_NODES Chebyshev
    points. Only the panels that ``x`` touches and the cache lacks are built,
    one ``kve`` call per node; each entry then costs a log, an exp and
    Horner's rule, run over groups of consecutive panels with at most
    HORNER_BLOCK entries in all (a larger panel is a group of its own). The
    scaled ``kve`` keeps relative accuracy out to x ~ 700, where ``kv``
    underflows.

    Accuracy: within 1e-12 relative of 2^(1-nu) / Gamma(nu) * x^nu *
    ``scipy.special.kv(nu, x)`` wherever that is above 1e-300 (measured
    worst case 6e-14 over nu in [0.01, NU_MAX]). Against 40-digit values
    the error is at most about 3e-15 relative off 0.1 < x < 10, and 6e-14
    inside, where it is ``kve``'s own. Entries below DIST_FLOOR, or below
    the x where M rounds to 1 (``_one_cutoff``), are 1; entries where e^(-x)
    underflows are 0.

    Each value depends only on (x, nu), never on the other entries or their
    order: the entries are sorted once (inputs from ``np.unique`` already
    are), an entry's panel is fixed by comparing it with e^(k H), each panel
    is evaluated on its contiguous slice by the same elementwise steps, and
    its coefficients depend only on (nu, k). Temporaries are the size of at
    most one group or one panel.
    """
    nu = float(nu)   # exact cache keys: equal nu, equal coefficients
    x = np.asarray(x, dtype=float)
    xs = x.ravel()
    order = None
    if np.any(xs[1:] < xs[:-1]):
        order = np.argsort(xs, kind="stable")
        xs = xs[order]
    lo = int(np.searchsorted(xs, _one_cutoff(nu)))
    hi = int(np.searchsorted(xs, EXP_UNDERFLOW))
    out = np.empty(xs.size)
    out[:lo] = 1.0
    out[hi:] = 0.0
    if hi <= lo:
        return out.reshape(x.shape)
    width = _panel_width(nu)
    # panel k holds the x with e^(k H) <= x < e^((k + 1) H), decided by that
    # comparison alone; the range is padded by one panel on each side so that
    # rounding in log cannot leave an entry outside it
    panels = np.arange(math.floor(math.log(xs[lo]) / width) - 1,
                       math.floor(math.log(xs[hi - 1]) / width) + 2, dtype=float)
    edges = lo + np.searchsorted(xs[lo:hi], np.exp(panels[1:] * width))
    starts, ends = np.r_[lo, edges], np.r_[edges, hi]
    used = starts < ends
    panels, starts, ends = panels[used], starts[used], ends[used]
    coef = _cached_coefficients(panels, nu, width)
    counts = ends - starts
    # one pass per group of panels (see above): a lone panel reads its
    # coefficients as scalars, a group repeats them over its panels' entries
    p0 = 0
    while p0 < panels.size:
        p1 = p0 + 1
        while p1 < panels.size and ends[p1] - starts[p0] <= HORNER_BLOCK:
            p1 += 1
        lone = p1 == p0 + 1
        rep = lambda v: v[p0] if lone else np.repeat(v[p0:p1], counts[p0:p1])
        a, b = starts[p0], ends[p1 - 1]
        t = np.log(xs[a:b])
        t /= width
        t -= rep(panels)
        t *= 2.0
        t -= 1.0
        g = out[a:b]
        g[:] = rep(coef[-1])
        for j in range(CHEB_TERMS - 2, -1, -1):
            g *= t
            g += rep(coef[j])
        g *= np.exp(-xs[a:b])
        np.minimum(g, 1.0, out=g)
        p0 = p1
    if order is not None:
        out[order] = out.copy()
    return out.reshape(x.shape)


def matern_correlation(dist, phi, nu):
    """Nugget-free Matern correlation of distances (scalar or array)."""
    x = phi * np.asarray(dist, dtype=float)
    if abs(nu - 0.5) < 1e-12:
        return _matern_halfint(x, 0.5)
    if abs(nu - 1.5) < 1e-12:
        return _matern_halfint(x, 1.5)
    if abs(nu - 2.5) < 1e-12:
        return _matern_halfint(x, 2.5)
    return _matern_bessel(x, nu)


def matern(dist, p):
    """Matern correlation value(s) of ``dist`` under params ``p``, nugget included
    at exactly zero distance. Rejects negative or non-finite distances."""
    d = np.asarray(dist, dtype=float)
    if not np.all(np.isfinite(d)) or np.any(d < 0):
        raise ValidationError("distances must be finite and >= 0")
    val = matern_correlation(np.where(d < DIST_FLOOR, 0.0, d), p.phi, p.nu)
    if p.tau2 > 0:
        val = val + np.where(d == 0.0, p.tau2, 0.0)
    if np.ndim(dist) == 0:
        return float(val)
    return val


def corr_matrix(A, B, p):
    """The n_A x n_B matrix with (i, j) entry matern(||a_i - b_j||, p).

    When A and B are the same object the result is exactly symmetric with
    diagonal 1 + tau2, and the nugget enters only there: two distinct sites
    whose distance underflows to 0 get correlation 1, not 1 + tau2.
    """
    same = A is B
    D = cdist(A.coords, B.coords)
    if same:
        D = 0.5 * (D + D.T)
        np.fill_diagonal(D, 0.0)
    M = matern(D, replace(p, tau2=0.0) if same else p)
    if same:
        M = 0.5 * (M + M.T)
        np.fill_diagonal(M, 1.0 + p.tau2)
    return M
