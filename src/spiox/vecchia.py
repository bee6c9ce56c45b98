"""Sparse inverse Cholesky factors from nearest-neighbor DAGs.

For a DAG over reference locations, row i of the factor G holds
-h_i / sqrt(r_i) at the parent columns and 1 / sqrt(r_i) at column i, where
h_i solves rho(parents) h_i = rho(parents, i) and
r_i = rho(i, i) - h_i . rho(parents, i). Then G G^T is the precision of the
DAG-implied Gaussian process at the reference set, and with m = n - 1 the
factor equals the inverse of the dense lower Cholesky factor of rho(S).

Rows live in DAG-order space; the solves accept and return vectors in the
original location indexing so that per-outcome factors built over the same
set always align row-wise.

The sparse factor and the dense factor of the exact path share one interface
(whiten = L^{-1} x, unwhiten = L x, whiten_t = L^{-T} x, unwhiten_t = L^T x,
col_sq, dense_l, sum_log_diag), so callers never need to know how a factor is
stored; the sparse factor also hands out its column blocks (column_blocks) for
the single-site latent sampler, and the dense one its precision rho(S)^{-1}.

A factor row and a prediction weight h(t) are the same computation: the
kriging weights and residual variance of one point given its parents.
:func:`conditioning_blocks` and :func:`conditioning_solve` do it for both,
with one Cholesky pass vectorized over the blocks.
"""

from dataclasses import replace
from functools import cached_property

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .errors import NumericalError, ValidationError
from .kernels import corr_matrix, matern

JITTER0 = 1e-10
JITTER_TRIES = 3


def jittered_cholesky(A, message):
    """Lower Cholesky factor of A, retried with JITTER0, 10 JITTER0, 100 JITTER0
    added to the diagonal; NumericalError(message) when every try fails."""
    jitter = 0.0
    for attempt in range(JITTER_TRIES + 1):
        try:
            return np.linalg.cholesky(A + jitter * np.eye(A.shape[0]))
        except np.linalg.LinAlgError:
            jitter = JITTER0 * 10 ** attempt
    raise NumericalError(message)


class SparseInvChol:
    """Sparse lower-triangular factor G = L^{-1} of a Vecchia process at S."""

    def __init__(self, dag, gamma, diag, params):
        self.dag = dag
        self.order = dag.order
        self.gamma = gamma      # csr, DAG-order space
        self.diag = diag        # 1/sqrt(r) per position
        self.params = params

    @property
    def n(self):
        return self.gamma.shape[0]

    @property
    def nnz(self):
        return self.gamma.nnz

    @cached_property
    def csc(self):
        return self.gamma.tocsc()

    def column_blocks(self):
        """Columns of G in DAG order as csc (indptr, indices, data): column i
        holds the entries of rows i and i's children. Factors built from one
        workspace share indptr and indices."""
        c = self.csc
        return c.indptr, c.indices, c.data

    @cached_property
    def gamma_t(self):
        """G^T, a csc view of the csr factor."""
        return self.gamma.T

    @cached_property
    def col_sq(self):
        """Column sums of squares of G in original indexing: diag of rho(S)^{-1}."""
        cpos = np.asarray(self.csc.multiply(self.csc).sum(axis=0)).ravel()
        out = np.empty_like(cpos)
        out[self.order] = cpos
        return out

    def whiten(self, y):
        y = np.asarray(y, dtype=float)
        out = np.empty_like(y)
        out[self.order] = self.gamma @ y[self.order]
        return out

    def whiten_t(self, s):
        """L^{-T} s = G^T s in original indexing."""
        out = np.empty_like(s)
        out[self.order] = self.gamma_t @ s[self.order]
        return out

    def unwhiten(self, v):
        """G^{-1} v for v of shape (n,) or (n, r), in original indexing."""
        # imported on first use: it adds ~3 MB of resident memory to every run
        from scipy.sparse.linalg import spsolve_triangular
        v = np.asarray(v, dtype=float)
        out = np.empty_like(v)
        out[self.order] = spsolve_triangular(self.gamma, v[self.order], lower=True)
        return out

    def unwhiten_t(self, x):
        """L^T x = G^{-T} x for x of shape (n,) or (n, r), in original indexing."""
        from scipy.sparse.linalg import spsolve_triangular
        out = np.empty_like(x)
        out[self.order] = spsolve_triangular(self.gamma_t, x[self.order], lower=False)
        return out

    def sum_log_diag(self):
        return float(np.log(self.diag).sum())

    def dense_l(self):
        """Dense L = G^{-1} in DAG order (rows and columns), built on each call."""
        return sla.solve_triangular(self.gamma.toarray(), np.eye(self.n), lower=True)


class DenseChol:
    """Dense lower Cholesky factor of rho(S) and its inverse (exact path)."""

    def __init__(self, L, Linv, params):
        self.L = L
        self.Linv = Linv
        self.params = params

    @property
    def n(self):
        return self.L.shape[0]

    def whiten(self, y):
        return self.Linv @ np.asarray(y, dtype=float)

    def unwhiten(self, v):
        return self.L @ np.asarray(v, dtype=float)

    def whiten_t(self, s):
        """L^{-T} s."""
        return self.Linv.T @ s

    def unwhiten_t(self, x):
        """L^T x."""
        return self.L.T @ x

    @cached_property
    def precision(self):
        """rho(S)^{-1} = L^{-T} L^{-1}."""
        return self.Linv.T @ self.Linv

    @cached_property
    def col_sq(self):
        """Column sums of squares of L^{-1}: diag of rho(S)^{-1}."""
        return (self.Linv ** 2).sum(axis=0)

    def dense_l(self):
        return self.L

    def sum_log_diag(self):
        return float(np.log(np.diag(self.Linv)).sum())


def dense_chol_factor(S, p, cap=4000):
    """Dense lower Cholesky factor of rho(S) under ``p`` plus its inverse.

    Guarded to n <= cap; jitter is added to the diagonal and the
    factorization retried on failure.
    """
    if S.n > cap:
        raise ValidationError(f"dense path limited to n <= {cap}, got n = {S.n}")
    L = jittered_cholesky(corr_matrix(S, S, p),
                          "dense Cholesky failed after jitter retries")
    Linv = sla.solve_triangular(L, np.eye(S.n), lower=True)
    return DenseChol(L, Linv, p)


def conditioning_blocks(targets, coords, par, pmask=None):
    """Deduplicated distances of the blocks that condition each target point
    on its parents ``coords[par[b]]``; slots where ``pmask`` is False are
    padding (default: none).

    Returns (d_unique, idx). ``d_unique`` holds each distinct parent-parent
    and parent-target distance once. ``idx`` (k, k+1, N) gathers the lower
    triangle of every augmented block [[Rpp, rps], [rps^T, one]] column by
    column: ``idx[j, i, b]`` is entry (i, j), i >= j, of block b, read from
    ``[rho(d_unique), 0.0, one]`` (:func:`conditioning_solve`). The diagonal
    reads ``one``; padding and the unused upper triangle read 0, so a padded
    block is block-diagonal with a zero right-hand side, which is exact.
    """
    N, k = par.shape
    if pmask is None:
        pmask = np.ones((N, k), dtype=bool)
    # point k of each augmented block is its target
    C = np.concatenate([coords[par], targets[:, None, :]], axis=1)   # (N, k+1, d)
    pm = np.concatenate([pmask, np.ones((N, 1), dtype=bool)], axis=1)
    iu, ju = np.triu_indices(k + 1, 1)
    # summed by coordinate, so no (N, pairs, d) temporary is made
    D = np.sqrt(sum((x[:, iu] - x[:, ju]) ** 2 for x in np.moveaxis(C, -1, 0)))
    valid = pm[:, iu] & pm[:, ju]
    # each (N, pairs) array is dropped once read: fewer of them are alive at
    # once, which lowers the peak memory of a workspace build
    shape, D = D.shape, D[valid]
    d_unique, inv = np.unique(D, return_inverse=True)
    del D
    src = np.full(shape, d_unique.size)
    src[valid] = inv
    del inv
    # intp, not a narrower type: the gather would cast it on every build
    idx = np.full((k, k + 1, N), d_unique.size, dtype=np.intp)
    idx[iu, ju] = src.T
    idx[np.arange(k), np.arange(k)] = d_unique.size + 1
    return d_unique, idx


def conditioning_solve(rho, idx, one, retry):
    """Kriging weights h (N, k) and residual variances r = one - h . rps (N,)
    of every block gathered by ``idx`` from ``[rho, 0.0, one]`` (see
    :func:`conditioning_blocks`); ``rho`` holds the nugget-free correlations
    of ``d_unique`` and ``one`` = 1 + tau2 the diagonal.

    One in-place Cholesky pass factors all N augmented blocks at once, one
    numpy step per column: its last row is v = L^{-1} rps, so r = one - v . v,
    and h = L^{-T} v by back substitution. A block that is not numerically
    positive definite gets a NaN or infinite row of its own; every row whose
    h or r is unusable (not finite, or r <= 0) is replaced by
    ``retry(Rpp[b], rps[b], one, b)``.
    """
    vals = np.concatenate([rho, [0.0, one]])
    A = vals[idx]                        # A[j, i, b] = L[i, j] once column j is done
    k = A.shape[0]
    with np.errstate(all="ignore"):
        for j in range(k):
            A[j, j:] -= np.einsum("lib,lb->ib", A[:j, j:], A[:j, j])
            A[j, j] = np.sqrt(A[j, j])
            A[j, j + 1:] /= A[j, j]
        v = A[:, k]
        r = one - np.einsum("lb,lb->b", v, v)
        h = np.empty_like(v)
        for i in range(k - 1, -1, -1):
            h[i] = (v[i] - np.einsum("lb,lb->b", A[i, i + 1:k], h[i + 1:])) / A[i, i]
    h = h.T
    bad = ~np.isfinite(r) | (r <= 0) | ~np.isfinite(h).all(axis=1)
    for b in np.flatnonzero(bad):
        low = vals[idx[:, :, b]].T                        # (k+1, k), lower
        Rpp = low[:k] + np.tril(low[:k], -1).T
        h[b], r[b] = retry(Rpp, low[k], one, b)
    return h, r


def retry_row(Rpp, rps, one, what):
    """h and r of one block, retried with JITTER0, 10 JITTER0, 100 JITTER0
    added to the diagonal; NumericalError naming ``what`` when every try
    leaves h or r unusable."""
    for attempt in range(JITTER_TRIES):
        jit = JITTER0 * 10 ** attempt
        try:
            h = np.linalg.solve(Rpp + jit * np.eye(len(rps)), rps)
        except np.linalg.LinAlgError:
            continue
        r = one - h @ rps
        if np.isfinite(r) and r > 0 and np.all(np.isfinite(h)):
            return h, r
    raise NumericalError(f"{what} is singular (r <= 0 after jitter)")


class VecchiaWorkspace:
    """Distance structure of a DAG, precomputed once so factors can be rebuilt
    cheaply for many kernel parameter proposals.

    All pairwise distances appearing in any parent block are deduplicated
    (:func:`conditioning_blocks`), so one rebuild evaluates the correlation
    function once per unique distance; rows with fewer than m parents are
    zero-padded so the whole factor comes out of one vectorized Cholesky
    pass (:func:`conditioning_solve`).
    """

    def __init__(self, dag):
        self.dag = dag
        n = dag.n
        # row pos of the factor: its parents, then pos itself
        kvec = np.fromiter(map(len, dag.parents), dtype=np.int64, count=n)
        flat = np.concatenate(dag.parents)
        kmax = int(kvec.max(initial=0))
        indptr = np.concatenate([[0], np.cumsum(kvec + 1)])
        nnz = int(indptr[-1])
        self_slot = indptr[1:] - 1
        is_par = np.ones(nnz, dtype=bool)
        is_par[self_slot] = False
        par_slot = np.flatnonzero(is_par)
        indices = np.empty(nnz, dtype=np.int32)
        indices[self_slot] = np.arange(n)
        indices[par_slot] = flat
        self.indptr = indptr
        self.indices = indices

        # padded parent array; pad slots hold 0 and are masked out
        pmask = np.arange(kmax)[None, :] < kvec[:, None]          # (n, kmax)
        par = np.zeros((n, kmax), dtype=np.int64)
        par[pmask] = flat
        coords = dag.S.coords[dag.order]
        self.d_unique, self.idx = conditioning_blocks(coords, coords, par, pmask)

        # scatter map for -h/sqrt(r): pad slots write to a scratch tail cell
        dest = np.full((n, kmax), nnz, dtype=np.int64)
        dest[pmask] = par_slot
        self.dest_par = dest
        self.dest_self = self_slot
        # last (phi, nu) and its nugget-free correlations of d_unique, which
        # a tau2-only change reuses. Builds on one workspace run one at a
        # time: each chain's model owns its own workspace
        self._rho_memo = (None, None)

    def build(self, p):
        """Assemble the factor for kernel params ``p``."""
        n = self.dag.n
        key, rho = self._rho_memo
        if key != (p.phi, p.nu):
            rho = matern(self.d_unique, replace(p, tau2=0.0))
            rho.setflags(write=False)
            self._rho_memo = ((p.phi, p.nu), rho)
        h, r = conditioning_solve(rho, self.idx, 1.0 + p.tau2, self._retry_row)
        sq = np.sqrt(r)
        nnz = int(self.indptr[-1])
        data = np.empty(nnz + 1)
        data[self.dest_par.ravel()] = (-h / sq[:, None]).ravel()
        data[self.dest_self] = 1.0 / sq
        gamma = sp.csr_matrix((data[:nnz], self.indices, self.indptr),
                              shape=(n, n), copy=False)
        return SparseInvChol(self.dag, gamma, 1.0 / sq, p)

    def _retry_row(self, Rpp, rps, one, pos):
        return retry_row(Rpp, rps, one,
                         f"Vecchia factor row for location {self.dag.order[pos]}")
