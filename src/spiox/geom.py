"""Spatial location containers, nearest-neighbor search, and DAG construction.

The directed acyclic graphs built here drive the sparse inverse-Cholesky
factorization in :mod:`spiox.vecchia`: locations are put in some order and
each node is conditioned on (at most) its ``m`` nearest predecessors.
"""

import numpy as np

from .errors import ValidationError


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
        if coords.ndim != 2 or coords.shape[0] < 1:
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


def nearest_neighbors(query, candidates, k):
    """Indices of the k candidates closest to ``query`` in Euclidean distance.

    Sorted by ascending distance, ties broken by ascending index. Asking for
    more neighbors than there are candidates returns all of them.
    """
    if k < 0:
        raise ValidationError("k must be >= 0")
    if k == 0:
        return np.empty(0, dtype=int)
    q = np.asarray(query, dtype=float).ravel()
    d2 = ((candidates.coords - q) ** 2).sum(axis=1)
    k = min(k, candidates.n)
    # lexsort keys: last key is primary
    full = np.lexsort((np.arange(candidates.n), d2))
    return full[:k]


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

    Predecessor search is exact (vectorized brute force); ties are broken by
    ascending position so the construction is fully deterministic.
    """
    if m < 0:
        raise ValidationError("m must be >= 0")
    order = order_locations(S, scheme, seed)
    P = S.coords[order]
    n = S.n
    parents = []
    for k in range(n):
        take = min(k, m)
        if take == 0:
            parents.append(np.empty(0, dtype=int))
            continue
        d2 = ((P[:k] - P[k]) ** 2).sum(axis=1)
        sel = np.lexsort((np.arange(k), d2))[:take]
        parents.append(np.sort(sel))
    return NeighborDag(S, order, parents, m)


def prediction_parents(T, S, m):
    """For each row of ``T`` (an (N, d) array), the positions in ``S`` of its m
    nearest reference locations. m <= 0 or m >= n means all of S."""
    T = np.atleast_2d(np.asarray(T, dtype=float))
    n = S.n
    if m <= 0 or m >= n:
        return np.tile(np.arange(n), (T.shape[0], 1))
    out = np.empty((T.shape[0], m), dtype=int)
    for i, t in enumerate(T):
        out[i] = nearest_neighbors(t, S, m)
    return out
