"""The inside-out cross-covariance model: pointwise and set evaluation,
joint and conditional log-likelihoods, and cross-correlation summaries.

An :class:`IoxModel` couples a reference location set S, one Matern
correlation per outcome (possibly shared across outcomes through a
cluster assignment), and a q x q covariance Sigma. Writing L_i for the
lower Cholesky factor of rho_i(S), h_i(l) = rho_i(l, S) rho_i(S)^{-1} and
r_i(l) = rho_i(l, l) - h_i(l) rho_i(S, l), the cross-covariance between
outcomes i and j is

    C_ij(l, l') = sigma_ij [ h_i(l) L_i L_j^T h_j(l')^T
                             + 1{l = l'} sqrt(r_i(l) r_j(l)) ].

On the sparse path rho_i is the DAG-implied (Vecchia) correlation: factors
come from :mod:`spiox.vecchia` and h_i(l) for l outside S is supported on
the m reference locations nearest to l.
"""

import hashlib
import math
from dataclasses import replace
from functools import cached_property

import numpy as np
import scipy.linalg as sla
from scipy.spatial.distance import cdist
from scipy.special import gammaln

from .errors import NumericalError, ValidationError
from .geom import LocationSet, build_nn_dag, prediction_parents
from .kernels import matern
from .vecchia import (VecchiaWorkspace, conditioning_blocks, conditioning_solve,
                      dense_chol_factor, retry_row)

_potrf, _potrs = sla.get_lapack_funcs(("potrf", "potrs"), dtype=float)

SET_GUARD = 5000  # largest N*q for dense cross-covariance materialization
# parents per row of the surrogate factors that screen kernel-parameter
# proposals before the full factors are built (delayed acceptance)
M1 = 3


class OutcomeMatrix:
    """Aligned multivariate observations: Y is n x q with (i, j) entry the jth
    outcome at the ith reference location; X an optional n x p predictor matrix."""

    def __init__(self, Y, X=None):
        Y = np.atleast_2d(np.asarray(Y, dtype=float))
        if not np.all(np.isfinite(Y)):
            bad = int(np.argwhere(~np.isfinite(Y))[0, 0])
            raise ValidationError(f"incomplete or non-finite outcome at row {bad}")
        self.Y = Y
        if X is None:
            X = np.ones((Y.shape[0], 1))
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[0] != Y.shape[0]:
            raise ValidationError("X and Y row counts differ")
        if not np.all(np.isfinite(X)):
            raise ValidationError("predictors must be finite")
        self.X = X

    @property
    def n(self):
        return self.Y.shape[0]

    @property
    def q(self):
        return self.Y.shape[1]

    @property
    def p(self):
        return self.X.shape[1]


def _row_keys(coords):
    """One opaque key per row of coords; two keys are equal exactly when the
    rows are equal as numbers (adding 0.0 turns -0.0 into 0.0)."""
    c = np.ascontiguousarray(np.atleast_2d(coords), dtype=float) + 0.0
    return c.view(np.dtype((np.void, c.itemsize * c.shape[1])))[:, 0]


def _coincidence(coords, table):
    """For each row of coords, the index of the row of S it equals, else -1.

    ``table`` is ``IoxModel.coincidence_table``: the sorted row keys of S and
    the order that sorts them.
    """
    keys, order = table
    k = _row_keys(coords)
    pos = np.minimum(np.searchsorted(keys, k), keys.size - 1)
    return np.where(keys[pos] == k, order[pos], -1)


class IoxModel:
    """IOX cross-covariance anchored at reference set S.

    Parameters
    ----------
    S : LocationSet
        Reference locations (in applications, the observed locations).
    theta : list of KernelParams
        One entry per correlation component. With the default assignment this
        is one entry per outcome.
    Sigma : (q, q) array
        Symmetric positive definite cross-outcome covariance.
    m : int
        Vecchia neighbor count; 0 selects the exact dense path.
    assignments : array of int, optional
        Outcome -> component map for the clustered variants; defaults to the
        identity (requires len(theta) == q).
    order_scheme, order_seed :
        Ordering of S for the neighbour DAG (see :func:`~spiox.geom.order_locations`).

    On the Vecchia path one nearest-neighbour DAG over S, built from m and
    the ordering, and its one workspace build every component's factor, so
    whitened columns of all outcomes are row-aligned. The DAG, the workspace
    and each component's factor are built on first use, so prediction on the
    Vecchia path, which reads only the kernel parameters, builds none of them.
    """

    def __init__(self, S, theta, Sigma, m=0, assignments=None,
                 order_scheme="random", order_seed=0):
        self.S = S
        self.theta = list(theta)
        Sigma = np.asarray(Sigma, dtype=float)
        q = Sigma.shape[0]
        if assignments is None:
            if len(self.theta) != q:
                raise ValidationError("per-outcome theta list must have length q")
            assignments = np.arange(q)
        self.assignments = np.asarray(assignments, dtype=int)
        if self.assignments.shape != (q,) or self.assignments.min() < 0 \
                or self.assignments.max() >= len(self.theta):
            raise ValidationError("assignments must map outcomes into theta components")
        self.order_scheme, self.order_seed = order_scheme, order_seed
        self.m = int(m)
        if self.m < 0:
            raise ValidationError("m must be >= 0")
        self.is_vecchia = self.m > 0
        self._factors = [None] * len(self.theta)
        self._surrogates = [None] * len(self.theta)
        self.set_sigma(Sigma)
        self._pred_cache = {}

    @cached_property
    def dag(self):
        """The nearest-neighbour DAG over S, or None on the exact path."""
        if not self.is_vecchia:
            return None
        return build_nn_dag(self.S, self.m, self.order_scheme, self.order_seed)

    @cached_property
    def workspace(self):
        """The VecchiaWorkspace of the DAG, or None on the exact path."""
        return VecchiaWorkspace(self.dag) if self.is_vecchia else None

    @cached_property
    def surrogate_workspace(self):
        """The VecchiaWorkspace of the M1-parent DAG under the same ordering,
        or None when the factors have no cheaper surrogate (the exact path,
        or rows with at most M1 parents)."""
        if not self.is_vecchia or min(self.m, self.n - 1) <= M1:
            return None
        return VecchiaWorkspace(build_nn_dag(self.S, M1, self.order_scheme, self.order_seed))

    @cached_property
    def coincidence_table(self):
        """Sorted row keys of S and the order that sorts them, for
        :func:`_coincidence`."""
        keys = _row_keys(self.S.coords)
        order = np.argsort(keys)
        return keys[order], order

    # -- parameter updates -------------------------------------------------

    def _build_factor(self, p):
        """The factor of kernel params p over S (not installed)."""
        if self.is_vecchia:
            return self.workspace.build(p)
        return dense_chol_factor(self.S, p)

    def set_sigma(self, Sigma):
        Sigma = np.asarray(Sigma, dtype=float)
        # np.allclose(Sigma, Sigma.T, atol=1e-10) for finite entries, cheaper
        if not np.all(np.abs(Sigma - Sigma.T) <= 1e-10 + 1e-5 * np.abs(Sigma.T)):
            raise ValidationError("Sigma must be symmetric")
        # LAPACK called directly, as sla.cho_factor / sla.cho_solve would
        c, info = _potrf(np.asarray_chkfinite(Sigma), lower=1, clean=0)
        if info > 0:
            raise ValidationError("Sigma must be positive definite")
        self.Sigma = 0.5 * (Sigma + Sigma.T)
        Q = _potrs(c, np.eye(Sigma.shape[0]), lower=1)[0]
        self.Q = 0.5 * (Q + Q.T)
        self.chol_sigma = np.tril(c)

    def set_theta(self, c, p, factor=None, surrogate=None):
        """Replace component c's kernel params. ``factor`` and ``surrogate``
        are its factor and surrogate factor under p when the caller built them
        (``_build_factor``, ``surrogate_workspace.build``); either one left
        out is rebuilt on next use."""
        self.theta[c] = p
        self._factors[c] = factor
        self._surrogates[c] = surrogate

    @property
    def factors(self):
        """The per-component factors, each built on first use."""
        return tuple(self._factor(c) for c in range(len(self.theta)))

    def _factor(self, c):
        f = self._factors[c]
        if f is None:
            f = self._factors[c] = self._build_factor(self.theta[c])
        return f

    @property
    def surrogate_factors(self):
        """The per-component surrogate factors, each built on first use."""
        for c, f in enumerate(self._surrogates):
            if f is None:
                self._surrogates[c] = self.surrogate_workspace.build(self.theta[c])
        return tuple(self._surrogates)

    # -- accessors ----------------------------------------------------------

    @property
    def n(self):
        return self.S.n

    @property
    def q(self):
        return self.Sigma.shape[0]

    @property
    def k(self):
        return len(self.theta)

    def factor_for(self, j):
        return self._factor(self.assignments[j])

    def params_for(self, j):
        return self.theta[self.assignments[j]]

    # -- h and r ------------------------------------------------------------

    def coincidence(self, T):
        """For each point of T, the index of the reference location it equals,
        else -1."""
        return _coincidence(T, self.coincidence_table)

    def _pred_geometry(self, T):
        """Geometry shared by every outcome and every parameter draw at points
        T: reference coincidences, and on the Vecchia path the prediction
        parents and their :func:`~spiox.vecchia.conditioning_blocks`. Cached
        by content digest so repeated prediction passes pay once.
        """
        key = (T.shape, hashlib.blake2b(np.ascontiguousarray(T).tobytes(),
                                        digest_size=16).digest())
        hitcache = self._pred_cache.get(key)
        if hitcache is not None:
            return hitcache
        if len(self._pred_cache) > 32:
            self._pred_cache.clear()
        coin = self.coincidence(T)
        if not self.is_vecchia:
            entry = {"coin": coin, "DT": cdist(T, self.S.coords)}
        else:
            # a saturated DAG is the exact process: condition new points on all of S
            nbr = prediction_parents(T, self.S, self.m if self.m < self.n - 1 else self.n)
            d_unique, idx = conditioning_blocks(T, self.S.coords, nbr)
            entry = {"coin": coin, "nbr": nbr, "d_unique": d_unique, "idx": idx}
        self._pred_cache[key] = entry
        return entry

    def h_r_compact(self, T, j):
        """Projection weights and residual variances at points T for outcome j.

        Returns (idx, vals, r): h_j(t) is supported on original-index columns
        idx[t] with values vals[t], and r[t] = r_j(t). Points coinciding with
        a reference location get a unit vector and r = 0 exactly. On the
        Vecchia path the weights come from the guarded solve that builds the
        factor rows (:func:`~spiox.vecchia.conditioning_solve`).
        """
        T = np.atleast_2d(np.asarray(T, dtype=float))
        p = self.params_for(j)
        geo = self._pred_geometry(T)
        coin = geo["coin"]
        hit = coin >= 0
        if not self.is_vecchia:
            Rts = matern(geo["DT"], replace(p, tau2=0.0))  # coincident rows are pinned below
            f = self.factor_for(j)
            H = f.whiten_t(f.whiten(Rts.T)).T
            r = (1.0 + p.tau2) - np.einsum("tk,tk->t", H, Rts)
            idx = np.tile(np.arange(self.n), (T.shape[0], 1))
        else:
            idx = geo["nbr"]

            def retry(Rpp, rps, one, t):  # a coincident row is replaced below
                return (0.0, 0.0) if hit[t] else retry_row(
                    Rpp, rps, one, f"prediction site {T[t].tolist()}")
            H, r = conditioning_solve(matern(geo["d_unique"], replace(p, tau2=0.0)),
                                      geo["idx"], 1.0 + p.tau2, retry)
        if hit.any():
            H[hit] = idx[hit] == coin[hit, None]
            r[hit] = 0.0
        return idx, H, np.maximum(r, 0.0)

    def hL_rows(self, T, j):
        """Rows a(t) = h_j(t) L_j for points T in original indexing, plus
        r_j(t), on either path: the weights of :meth:`h_r_compact` scattered
        into an n x N matrix and pushed through the factor's ``unwhiten_t``.
        Within one model all outcomes agree, so inner products a_i . a_j are
        always consistent.
        """
        idx, vals, r = self.h_r_compact(T, j)
        H = np.zeros((self.n, idx.shape[0]))  # column t: h_j(t)
        H[idx, np.arange(idx.shape[0])[:, None]] = vals
        return self.factor_for(j).unwhiten_t(H).T, r


# -- spec-level operations ---------------------------------------------------

def h_and_r(l, j, model):
    """h_j(l) as a dense n-vector (original indexing) and the scalar r_j(l)."""
    idx, vals, r = model.h_r_compact(np.atleast_2d(l), j)
    h = np.zeros(model.n)
    h[idx[0]] = vals[0]
    return h, float(r[0])


def cross_cov_point(l, lp, model):
    """The q x q cross-covariance matrix C(l, l')."""
    l = np.asarray(l, dtype=float).ravel()
    lp = np.asarray(lp, dtype=float).ravel()
    q = model.q
    A = np.empty((q, model.n))
    Ap = np.empty((q, model.n))
    r = np.empty(q)
    rp = np.empty(q)
    same = bool(np.array_equal(l, lp))
    for j in range(q):
        a, rj = model.hL_rows(l[None, :], j)
        A[j], r[j] = a[0], rj[0]
        if same:
            Ap[j], rp[j] = A[j], r[j]
        else:
            b, rjp = model.hL_rows(lp[None, :], j)
            Ap[j], rp[j] = b[0], rjp[0]
    K = A @ Ap.T
    if same:
        d = np.sqrt(np.maximum(r, 0.0))
        K = K + np.outer(d, d)
    return model.Sigma * K


def cross_cov_set(T, model):
    """Dense (Nq) x (Nq) cross-covariance over the points of T, in outcome-major
    block order (block (i, j) is the N x N covariance of outcome i against j).

    Validation-scale only: guarded to N * q <= 5000.
    """
    if isinstance(T, LocationSet):
        Tc = T.coords
    else:
        Tc = np.atleast_2d(np.asarray(T, dtype=float))
    N = Tc.shape[0]
    q = model.q
    if N * q > SET_GUARD:
        raise ValidationError(f"cross_cov_set guarded to N*q <= {SET_GUARD}")
    A = []
    r = np.empty((q, N))
    for j in range(q):
        Aj, rj = model.hL_rows(Tc, j)
        A.append(Aj)
        r[j] = rj
    C = np.empty((N * q, N * q))
    d = np.sqrt(np.maximum(r, 0.0))
    for i in range(q):
        for j in range(i, q):
            blk = model.Sigma[i, j] * (A[i] @ A[j].T)
            blk[np.diag_indices(N)] += model.Sigma[i, j] * d[i] * d[j]
            C[i * N:(i + 1) * N, j * N:(j + 1) * N] = blk
            if j > i:
                C[j * N:(j + 1) * N, i * N:(i + 1) * N] = blk.T
    return 0.5 * (C + C.T)


def _outcome_factor(model, j, factors):
    """Outcome j's factor: the model's, or its component's entry of
    ``factors`` (one factor per component) when given."""
    return model.factor_for(j) if factors is None else factors[model.assignments[j]]


def whiten_columns(Ytilde, model, factors=None):
    """V with column j = L_j^{-1} ytilde_j (the spatially whitened data).
    ``factors`` (one per component) stand in for the model's own."""
    Ytilde = np.asarray(Ytilde, dtype=float)
    V = np.empty_like(Ytilde)
    for j in range(model.q):
        V[:, j] = _outcome_factor(model, j, factors).whiten(Ytilde[:, j])
    return V


def loglik(Ytilde, model, V=None, factors=None):
    """Joint Gaussian log density of centered data under the model.

    Computed as -(nq/2) log 2pi + (n/2) log det Q + sum_j sum_k log G_j[k,k]
    - Tr(V Q V^T) / 2, where V holds the whitened columns. ``factors`` (one
    per component) stand in for the model's own.
    """
    n, q = model.n, model.q
    if V is None:
        V = whiten_columns(Ytilde, model, factors)
    sld = 0.0
    for j in range(q):
        s = _outcome_factor(model, j, factors).sum_log_diag()
        if not np.isfinite(s):
            raise NumericalError(f"non-finite factor log-determinant for outcome {j}")
        sld += s
    sign, logdet_q = np.linalg.slogdet(model.Q)
    if sign <= 0:
        raise NumericalError("Q is not positive definite")
    quad = float(np.einsum("nj,jk,nk->", V, model.Q, V))
    out = -0.5 * n * q * math.log(2 * math.pi) + 0.5 * n * logdet_q + sld - 0.5 * quad
    if not np.isfinite(out):
        for j in range(q):
            if not np.all(np.isfinite(V[:, j])):
                raise NumericalError(
                    f"non-finite whitened column under outcome {j}'s factor")
        raise NumericalError("non-finite log-likelihood")
    return out


def conditional_loglik(j, V, model):
    """log p(y_j | y_{j^c}, theta, Q) up to terms free of theta_j.

    Requires V current for all outcomes, with column j computed under the
    candidate theta_j (and the model's factor for j rebuilt to match):
    (n/2) log Q_jj + sum_k log G_j[k,k] - ||V Q_{j.}||^2 / (2 Q_jj).
    """
    n = model.n
    qj = model.Q[j]
    u = V @ qj
    val = 0.5 * n * math.log(model.Q[j, j]) + model.factor_for(j).sum_log_diag() \
        - float(u @ u) / (2.0 * model.Q[j, j])
    return val


def _pair_trace(model, probes=0, rng=None):
    """G[c1, c2] = Tr(L_c1 L_c2^T) / n per component pair, exact or probed."""
    k, n = model.k, model.n
    G = np.empty((k, k))
    if probes <= 0:
        Ls = [f.dense_l() for f in model.factors]
        for a in range(k):
            for b in range(a, k):
                G[a, b] = G[b, a] = float(np.sum(Ls[a] * Ls[b])) / n
        return G
    rng = rng if rng is not None else np.random.default_rng(0)
    Z = rng.standard_normal((n, probes))
    U = [model.factors[c].unwhiten(Z) for c in range(k)]
    for a in range(k):
        for b in range(a, k):
            G[a, b] = G[b, a] = float(np.sum(U[a] * U[b])) / (probes * n)
    return G


def zero_distance_cross_corr(model, probes=None, rng=None):
    """q x q matrix of domain-averaged zero-distance cross-covariances over S,
    C~_ij(0) = sigma_ij * Tr(L_i L_j^T) / n.

    Exact when feasible; for large sparse factors a Hutchinson trace estimate
    with ``probes`` random vectors is used.
    """
    if probes is None:
        probes = 0 if (not model.is_vecchia or model.n <= 800) else 64
    G = _pair_trace(model, probes=probes, rng=rng)
    P = G[np.ix_(model.assignments, model.assignments)]
    return model.Sigma * P


def avg_cross_corr(i, j, model, h, n_a=8, T=None):
    """Domain-averaged cross-covariance C~_ij(h): the mean of C_ij(l, l + h_a)
    over n_a directions and all probe sites l in T (default: the reference set).

    ``h`` is a displacement magnitude pair (h_x, h_y); a scalar is expanded to
    (h, h). h = 0 uses the exact zero-displacement reduction.
    """
    if np.isscalar(h):
        h = (float(h), float(h))
    hx, hy = float(h[0]), float(h[1])
    if T is None:
        Tc = model.S.coords
        t_is_ref = True
    else:
        Tc = T.coords if isinstance(T, LocationSet) else np.atleast_2d(np.asarray(T, dtype=float))
        t_is_ref = False
    if hx == 0.0 and hy == 0.0:
        if t_is_ref:
            return float(zero_distance_cross_corr(model)[i, j])
        Ai, ri = model.hL_rows(Tc, i)
        Aj, rj = model.hL_rows(Tc, j)
        vals = np.einsum("tk,tk->t", Ai, Aj) + np.sqrt(ri * rj)
        return float(model.Sigma[i, j] * vals.mean())
    angles = 2 * math.pi * np.arange(1, n_a + 1) / n_a
    offsets = np.column_stack([hx * np.cos(angles), hy * np.sin(angles)])
    Ai, _ = model.hL_rows(Tc, i)
    total = 0.0
    for off in offsets:
        Aj, _ = model.hL_rows(Tc + off[None, :], j)
        total += float(np.einsum("tk,tk->t", Ai, Aj).sum())
    return float(model.Sigma[i, j] * total / (n_a * Tc.shape[0]))


def matern_zero_cross_corr(nu_i, nu_j, sigma_ij):
    """Zero-distance cross-correlation implied by a parsimonious bivariate
    Matern in d = 2 with smoothness nu_i, nu_j and colocated scale sigma_ij."""
    if nu_i <= 0 or nu_j <= 0:
        raise ValidationError("smoothness parameters must be > 0")
    half = 0.5 * (nu_i + nu_j)
    lg = (0.5 * (gammaln(nu_i + 1) - gammaln(nu_i))
          + 0.5 * (gammaln(nu_j + 1) - gammaln(nu_j))
          + gammaln(half) - gammaln(half + 1))
    return sigma_ij * math.exp(lg)
