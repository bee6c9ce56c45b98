"""Spatial location containers, nearest-neighbor search, and DAG construction.

The directed acyclic graphs built here drive the sparse inverse-Cholesky
factorization in :mod:`spiox.vecchia`: locations are put in some order and
each node is conditioned on (at most) its ``m`` nearest predecessors.
"""

import numpy as np
from scipy.spatial import cKDTree

from .errors import ValidationError

# relative slack in the tree search's certification bound (see _tree_knn)
_CERT_SLACK = 1e-12


class LocationSet:
    """An ordered set of n points in R^d.

    Coordinates are stored as a read-only (n, d) float array. Duplicate
    coordinate rows are rejected because they make correlation matrices
    over the set exactly singular.
    """

    def __init__(self, coords):
        coords = np.array(coords, dtype=float, order="C")
        if coords.ndim == 1:
            coords = coords[:, None]
        if coords.ndim != 2 or 0 in coords.shape:
            raise ValidationError("coords must be a nonempty (n, d) array")
        if not np.all(np.isfinite(coords)):
            raise ValidationError("coordinates must all be finite")
        if coords.shape[0] > 1:
            srt = np.lexsort(coords.T[::-1])
            same = np.all(coords[srt[1:]] == coords[srt[:-1]], axis=1)
            if same.any():
                dup = srt[1:][same][0]
                raise ValidationError(f"duplicate coordinate row at index {dup}")
        coords.setflags(write=False)
        self.coords = coords

    @property
    def n(self):
        return self.coords.shape[0]

    @property
    def d(self):
        return self.coords.shape[1]

    @property
    def ids(self):
        return np.arange(self.n)

    def __len__(self):
        return self.n

    def diameter(self):
        """Length of the bounding-box diagonal (cheap upper bound on max distance)."""
        span = self.coords.max(axis=0) - self.coords.min(axis=0)
        return float(np.sqrt((span ** 2).sum())) if self.n > 1 else 0.0


def order_locations(S, scheme="random", seed=0):
    """Permutation of 0..n-1 ordering the locations of ``S``.

    scheme "coordinate-sum" sorts by the sum of coordinates (stable, ties by
    index); "random" is a seeded uniform shuffle. An explicit permutation
    array is also accepted and validated.
    """
    n = S.n
    if isinstance(scheme, (list, tuple, np.ndarray)):
        perm = np.asarray(scheme, dtype=int)
        if sorted(perm.tolist()) != list(range(n)):
            raise ValidationError("explicit order is not a permutation of 0..n-1")
        return perm
    if scheme == "coordinate-sum":
        return np.argsort(S.coords.sum(axis=1), kind="stable")
    if scheme == "random":
        return np.random.default_rng(seed).permutation(n)
    raise ValidationError(f"unknown ordering scheme {scheme!r}")


def _brute_knn(X, q, k):
    """Indices of the k rows of X nearest ``q``, ranked by (squared distance,
    index): the exact search that the tree search reproduces."""
    if k == 0:
        return np.empty(0, dtype=np.intp)
    d2 = ((X - q) ** 2).sum(axis=1)
    # lexsort keys: last key is primary
    return np.lexsort((np.arange(len(X)), d2))[:k]


def _tree_knn(X, Q, k, limit=None):
    """The k rows of X nearest each row of Q, ranked exactly as
    :func:`_brute_knn` ranks them; with ``limit``, row i searches only
    ``X[:limit[i]]``, which must hold at least k rows.

    A kd-tree over X proposes K candidates per row. Their squared distances
    are recomputed with the brute-force formula and ranked by (d2, index),
    with candidates at or past the row's limit dropped. A row is certified
    when its k-th kept d2 lies strictly below the d2 of the farthest candidate
    returned: every row of X the tree did not return is at least that far, so
    none can displace or tie with a kept one. Uncertified rows (too few
    candidates within the limit, or a tie at the edge) are queried again with
    twice as many candidates, twice at most, and the rest go to the
    brute-force search.
    """
    N, n = len(Q), len(X)
    out = np.empty((N, k), dtype=np.intp)
    tree = cKDTree(X)
    rows = np.arange(N)
    K = min(2 * k + 8, n)
    for _ in range(3):
        if not rows.size:
            break
        Qr = Q[rows]
        dist, idx = tree.query(Qr, k=K)
        dist, idx = dist.reshape(len(rows), K), idx.reshape(len(rows), K)
        d2 = ((X[idx] - Qr[:, None, :]) ** 2).sum(-1)
        if limit is not None:
            d2[idx >= limit[rows, None]] = np.inf
        rank = np.lexsort((idx, d2))[:, :k]
        kth = np.take_along_axis(d2, rank[:, -1:], axis=1)[:, 0]
        # the tree's own distances may differ from d2 in the last bits
        far = dist[:, -1] ** 2 * (1 - _CERT_SLACK) if K < n else np.inf
        ok = kth < far
        out[rows[ok]] = np.take_along_axis(idx[ok], rank[ok], axis=1)
        rows = rows[~ok]
        K = min(2 * K, n)
    for i in rows:
        out[i] = _brute_knn(X[:n if limit is None else limit[i]], Q[i], k)
    return out


def nearest_neighbors(query, candidates, k):
    """Indices of the k candidates closest to ``query`` in Euclidean distance.

    Sorted by ascending distance, ties broken by ascending index. Asking for
    more neighbors than there are candidates returns all of them.
    """
    if k < 0:
        raise ValidationError("k must be >= 0")
    q = np.asarray(query, dtype=float).ravel()
    return _brute_knn(candidates.coords, q, k)


class NeighborDag:
    """Nearest-neighbor DAG over an ordered location set.

    ``order[k]`` is the original index of the node at position k; parents are
    stored in position space, so ``parents[k]`` is a sorted array of positions
    strictly less than k (the min(k, m) nearest predecessors).
    """

    def __init__(self, S, order, parents, m):
        self.S = S
        self.order = np.asarray(order, dtype=int)
        self.inv_order = np.empty_like(self.order)
        self.inv_order[self.order] = np.arange(len(self.order))
        self.parents = parents
        self.m = int(m)

    @property
    def n(self):
        return len(self.order)

    def validate(self):
        """Check topological validity and parent-count bounds by exhaustive scan."""
        for k, par in enumerate(self.parents):
            if len(par) != min(k, self.m):
                raise ValidationError(f"node at position {k} has {len(par)} parents")
            if len(par) and (par.max() >= k or par.min() < 0):
                raise ValidationError(f"parent of node {k} does not precede it")


def build_nn_dag(S, m, scheme="random", seed=0):
    """Build the nearest-neighbor DAG: node k is parented by its min(k, m)
    nearest predecessors in the chosen ordering.

    The search is exact, with ties broken by ascending position, so the
    construction is fully deterministic. The first 4m positions are searched
    by brute force. The rest are taken in doubling blocks [a, 2a), each
    against a kd-tree over positions 0..2a-1 (the ordered search of Katzfuss
    & Guinness 2021), and certified row by row as in :func:`_tree_knn`: rows
    the tree cannot certify fall back to brute force, so the parents are
    those of brute force in O(n log n) time.
    """
    if m < 0:
        raise ValidationError("m must be >= 0")
    order = order_locations(S, scheme, seed)
    P = S.coords[order]
    n = S.n
    head = min(n, 4 * m) if m else n
    parents = [np.sort(_brute_knn(P[:pos], P[pos], min(pos, m)))
               for pos in range(head)]
    a = head
    while a < n:
        b = min(2 * a, n)
        parents.extend(np.sort(_tree_knn(P[:b], P[a:b], m, np.arange(a, b)),
                               axis=1))
        a = b
    return NeighborDag(S, order, parents, m)


def prediction_parents(T, S, m):
    """For each row of ``T`` (an (N, d) array), the positions in ``S`` of its m
    nearest reference locations, by ascending distance with ties broken by
    ascending position. m <= 0 or m >= n means all of S, in position order.

    One kd-tree query over S serves every row, with the certification and
    brute-force fallback of :func:`_tree_knn`, so each row equals
    ``nearest_neighbors(t, S, m)``.
    """
    T = np.atleast_2d(np.asarray(T, dtype=float))
    n = S.n
    if m <= 0 or m >= n:
        return np.tile(np.arange(n), (T.shape[0], 1))
    return _tree_knn(S.coords, T, m)
