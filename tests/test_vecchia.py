"""Tests for sparse inverse-Cholesky factors and the dense exact path."""

import os
import subprocess
import sys

import numpy as np
import pytest

from spiox.errors import NumericalError, ValidationError
from spiox.geom import LocationSet, NeighborDag, build_nn_dag
from spiox.kernels import KernelParams, corr_matrix, matern
from spiox.vecchia import (VecchiaWorkspace, conditioning_blocks, conditioning_solve,
                           dense_chol_factor)

from conftest import rand_locations


def identity_dag(S, m):
    return build_nn_dag(S, m, np.arange(S.n))


def standalone_row(dag, p, pos):
    """Row ``pos`` of the factor, computed from its own parent block alone."""
    coords = dag.S.coords[dag.order]
    par = dag.parents[pos]
    block = corr_matrix(LocationSet(coords[par]), LocationSet(coords[par]), p)
    rho_ps = matern(np.linalg.norm(coords[par] - coords[pos], axis=1), p)
    h = np.linalg.solve(block, rho_ps)
    r = (1.0 + p.tau2) - h @ rho_ps
    row = np.zeros(dag.n)
    row[par] = -h / np.sqrt(r)
    row[pos] = 1.0 / np.sqrt(r)
    return row


class TestBuild:
    def test_n1(self):
        S = LocationSet([[0.0, 0.0]])
        p = KernelParams(phi=1.0, nu=1.0, tau2=0.21)
        G = VecchiaWorkspace(identity_dag(S, 0)).build(p)
        assert G.gamma.toarray()[0, 0] == pytest.approx(1 / np.sqrt(1.21), rel=1e-14)

    def test_no_parents_exact_diagonal(self):
        # the batched build handles empty parent sets: r = 1 + tau2 exactly
        S = rand_locations(10, seed=22)
        G = VecchiaWorkspace(identity_dag(S, 0)).build(KernelParams(3.0, 1.0, 0.3))
        assert np.all(G.gamma.toarray() == np.diag(np.full(10, 1.0 / np.sqrt(1.3))))

    def test_saturated_matches_dense_inverse_cholesky(self):
        S = rand_locations(20, seed=3)
        p = KernelParams(phi=8.0, nu=1.1, tau2=0.02)
        G = VecchiaWorkspace(identity_dag(S, 19)).build(p)
        L = np.linalg.cholesky(corr_matrix(S, S, p))
        Li = np.linalg.inv(L)
        assert np.abs(G.gamma.toarray() - Li).max() <= 1e-8

    def test_far_points_identity(self):
        S = LocationSet([[0.0, 0.0], [1e6, 1e6]])
        p = KernelParams(phi=1.0, nu=0.5, tau2=0.0)
        G = VecchiaWorkspace(identity_dag(S, 1)).build(p)
        assert np.abs(G.gamma.toarray() - np.eye(2)).max() < 1e-12

    def test_precision_reproduces_correlation(self):
        S = rand_locations(25, seed=11)
        p = KernelParams(phi=12.0, nu=0.7, tau2=0.0)
        G = VecchiaWorkspace(identity_dag(S, 24)).build(p)
        Gd = G.whiten(np.eye(25))
        R = corr_matrix(S, S, p)
        implied = np.linalg.inv(Gd.T @ Gd)
        assert np.abs(implied - R).max() / np.abs(R).max() <= 1e-8

    def test_logdet_matches_dense(self):
        S = rand_locations(18, seed=2)
        p = KernelParams(phi=6.0, nu=1.4, tau2=0.01)
        G = VecchiaWorkspace(identity_dag(S, 17)).build(p)
        R = corr_matrix(S, S, p)
        assert -2.0 * G.sum_log_diag() == pytest.approx(
            np.linalg.slogdet(R)[1], rel=1e-8)

    def test_row_sparsity(self):
        S = rand_locations(60, seed=4)
        m = 7
        dag = build_nn_dag(S, m, "random", seed=1)
        G = VecchiaWorkspace(dag).build(KernelParams(10.0, 1.0, 0.0))
        assert G.nnz <= 60 * (m + 1)
        counts = np.diff(G.gamma.indptr)
        assert counts.max() <= m + 1

    def test_rebuild_via_workspace_identical(self):
        S = rand_locations(40, seed=5)
        dag = build_nn_dag(S, 5, "random", seed=3)
        ws = VecchiaWorkspace(dag)
        p = KernelParams(15.0, 0.8, 1e-3)
        G1 = ws.build(p)
        ws.build(KernelParams(9.0, 1.3, 0.1))
        G2 = ws.build(p)
        assert np.array_equal(G1.gamma.toarray(), G2.gamma.toarray())

    def test_tau2_change_reuses_matern_values(self, monkeypatch):
        import spiox.vecchia as vecchia
        S = rand_locations(60, seed=2)
        dag = build_nn_dag(S, 6, "random", seed=1)
        ws = VecchiaWorkspace(dag)
        ws.build(KernelParams(12.0, 0.8, 1e-3))
        calls = []
        monkeypatch.setattr(vecchia, "matern",
                            lambda d, p: calls.append(p) or matern(d, p))
        p = KernelParams(12.0, 0.8, 0.3)
        G = ws.build(p)
        assert calls == []
        fresh = VecchiaWorkspace(dag).build(p)
        # the blocks read nugget-free correlations; tau2 enters on the diagonal
        assert calls == [KernelParams(12.0, 0.8, 0.0)]
        assert np.array_equal(G.gamma.data, fresh.gamma.data)
        ws.build(KernelParams(12.0, 0.9, 0.3))
        assert len(calls) == 2

    def test_dag_freed_after_workspace_build(self):
        # the workspace and its factors keep the ordering, not the DAG's
        # parent lists
        import gc
        import weakref
        S = rand_locations(50, seed=6)
        dag = build_nn_dag(S, 4, "random", seed=2)
        order = dag.order.copy()
        ref = weakref.ref(dag)
        ws = VecchiaWorkspace(dag)
        p = KernelParams(10.0, 0.9, 1e-3)
        G = ws.build(p)
        del dag
        gc.collect()
        assert ref() is None
        assert np.array_equal(ws.order, order) and np.array_equal(G.order, order)
        assert np.array_equal(ws.build(p).gamma.data, G.gamma.data)
        y = np.random.default_rng(0).standard_normal(50)
        assert np.allclose(G.unwhiten(G.whiten(y)), y)
        with pytest.raises(NumericalError, match=f"location {order[7]} "):
            ws._retry_row(np.zeros((2, 2)), np.zeros(2), 0.0, 7)


class TestSolves:
    def test_whiten_zero_and_identity(self):
        S = rand_locations(12, seed=8)
        G = VecchiaWorkspace(identity_dag(S, 4)).build(KernelParams(9.0, 1.0))
        assert np.all(G.whiten(np.zeros(12)) == 0)
        far = LocationSet(1e5 * np.arange(1, 13, dtype=float)[:, None])
        Gf = VecchiaWorkspace(identity_dag(far, 2)).build(KernelParams(1.0, 0.5))
        y = np.random.default_rng(0).standard_normal(12)
        assert np.abs(Gf.whiten(y) - y).max() < 1e-10

    def test_whiten_matches_dense(self):
        S = rand_locations(15, seed=9)
        p = KernelParams(11.0, 1.2, 0.0)
        G = VecchiaWorkspace(identity_dag(S, 14)).build(p)
        y = np.random.default_rng(1).standard_normal(15)
        Li = np.linalg.inv(np.linalg.cholesky(corr_matrix(S, S, p)))
        assert np.abs(G.whiten(y) - Li @ y).max() <= 1e-8

    def test_roundtrip(self):
        S = rand_locations(30, seed=10)
        dag = build_nn_dag(S, 6, "random", seed=2)
        G = VecchiaWorkspace(dag).build(KernelParams(14.0, 0.9, 1e-2))
        y = np.random.default_rng(2).standard_normal(30)
        assert np.abs(G.unwhiten(G.whiten(y)) - y).max() <= 1e-10
        assert np.all(G.unwhiten(np.zeros(30)) == 0)

    def test_matrix_rhs(self):
        S = rand_locations(20, seed=12)
        dag = build_nn_dag(S, 5, "random", seed=4)
        G = VecchiaWorkspace(dag).build(KernelParams(8.0, 1.1, 0.0))
        Y = np.random.default_rng(3).standard_normal((20, 4))
        V = G.whiten(Y)
        cols = np.column_stack([G.whiten(Y[:, k]) for k in range(4)])
        assert np.abs(V - cols).max() == 0.0
        assert np.abs(G.unwhiten(V) - Y).max() <= 1e-10

    def test_unwhiten_diagonal_factor(self):
        # a purely diagonal factor with entries 2 halves the input
        import scipy.sparse as sp
        from spiox.vecchia import SparseInvChol
        S = rand_locations(6, seed=20)
        dag = identity_dag(S, 0)
        G = SparseInvChol(dag.order, sp.identity(6, format="csr") * 2.0,
                          np.full(6, 2.0), KernelParams(1.0, 1.0))
        v = np.arange(6, dtype=float)
        assert np.array_equal(G.unwhiten(v), v / 2.0)

    def test_rows_independent_of_build_path(self):
        # each row depends only on its own parent block: recomputing any row
        # in isolation reproduces the batched factor
        S = rand_locations(30, seed=21)
        p = KernelParams(12.0, 0.8, 1e-3)
        dag = build_nn_dag(S, 5, "random", seed=7)
        G = VecchiaWorkspace(dag).build(p)
        A = G.gamma.toarray()
        for pos in (3, 11, 29):
            assert np.abs(A[pos] - standalone_row(dag, p, pos)).max() <= 1e-10

    def test_irregular_parent_sets(self):
        # parent sets of uneven sizes, not nearest neighbours: the workspace's
        # sparsity pattern and every row follow the DAG row by row
        S = rand_locations(25, seed=23)
        rng = np.random.default_rng(9)
        parents = [np.sort(rng.choice(k, size=min(k, rng.integers(0, 5)), replace=False))
                   for k in range(25)]
        dag = NeighborDag(S, rng.permutation(25), parents, 4)
        ws = VecchiaWorkspace(dag)
        G = ws.build(KernelParams(6.0, 1.3, 0.01))
        A = G.gamma.toarray()
        for pos, par in enumerate(parents):
            row = ws.indices[ws.indptr[pos]:ws.indptr[pos + 1]]
            assert row.tolist() == par.tolist() + [pos]
            if par.size:
                assert np.abs(A[pos] - standalone_row(dag, G.params, pos)).max() <= 1e-10
        assert {p.size for p in parents} == {0, 1, 2, 3, 4}

    def test_transpose_solve(self):
        S = rand_locations(18, seed=13)
        dag = build_nn_dag(S, 4, "random", seed=5)
        G = VecchiaWorkspace(dag).build(KernelParams(9.0, 0.6, 0.0))
        rng = np.random.default_rng(4)
        Gd = G.whiten(np.eye(18))  # G in original indexing
        for b in (rng.standard_normal(18), rng.standard_normal((18, 5))):
            x = G.unwhiten_t(b)
            assert x.shape == b.shape
            assert np.abs(Gd.T @ x - b).max() <= 1e-10


    def test_retry_only_failing_rows(self):
        # two sites 1e-14 apart make the parent blocks that hold both singular;
        # the batched solve raises, yet only rows whose block (parents and the
        # node) holds both close sites go through the jitter retries
        coords = np.random.default_rng(5).uniform(size=(60, 2))
        coords[1] = coords[0] + 1e-14
        S = LocationSet(coords)
        p = KernelParams(10.0, 1.0, 0.0)
        dag = build_nn_dag(S, 6, "coordinate-sum", seed=0)
        ws = VecchiaWorkspace(dag)
        retried = []
        retry = ws._retry_row
        ws._retry_row = lambda *a: (retried.append(a[-1]), retry(*a))[1]
        G = ws.build(p)
        close = set(dag.inv_order[[0, 1]])
        holds_both = {pos for pos in range(60)
                      if close <= set(dag.parents[pos]) | {pos}}
        assert 0 < len(retried) and set(retried) <= holds_both
        A = G.gamma.toarray()
        for pos in set(range(1, 60)) - holds_both:  # position 0 has no parents
            assert np.abs(A[pos] - standalone_row(dag, p, pos)).max() <= 1e-10


class TestConditioningSolve:
    """The vectorized Cholesky pass against one np.linalg.solve per block, on
    Matern blocks with randomly padded parent sets."""

    @staticmethod
    def blocks(k, N=40, seed=0):
        rng = np.random.default_rng(seed)
        coords = rng.uniform(size=(80, 2))
        targets = rng.uniform(size=(N, 2))
        par = np.array([rng.choice(80, size=k, replace=False) for _ in range(N)],
                       dtype=np.int64).reshape(N, k)
        pmask = rng.uniform(size=(N, k)) < 0.7
        return targets, coords, par, pmask

    @staticmethod
    def oracle(p, targets, coords, par, pmask):
        H = np.zeros(par.shape)
        r = np.empty(len(par))
        for b in range(len(par)):
            C = coords[par[b, pmask[b]]]
            Rpp = matern(np.linalg.norm(C[:, None] - C[None], axis=-1), p)
            rps = matern(np.linalg.norm(C - targets[b], axis=1), p)
            H[b, pmask[b]] = np.linalg.solve(Rpp, rps)
            r[b] = (1.0 + p.tau2) - H[b, pmask[b]] @ rps
        return H, r

    @staticmethod
    def solve(p, targets, coords, par, pmask, retry=None):
        d_unique, idx = conditioning_blocks(targets, coords, par, pmask)
        rho = matern(d_unique, KernelParams(p.phi, p.nu, 0.0))
        return conditioning_solve(rho, idx, 1.0 + p.tau2, retry)

    @pytest.mark.parametrize("k", [0, 1, 15])
    def test_matches_per_block_solve(self, k):
        p = KernelParams(10.0, 1.0, 0.1)
        geo = self.blocks(k)
        h, r = self.solve(p, *geo)
        h0, r0 = self.oracle(p, *geo)
        assert h.shape == h0.shape == (40, k)
        assert np.all(h[~geo[3]] == 0.0)
        if k:
            assert np.abs(h - h0).max() <= 1e-12 * np.abs(h0).max()
        assert np.abs(r - r0).max() <= 1e-12 * r0.max()

    def test_singular_block_retries_its_own_row(self):
        # block 7 holds two parents at one site and nothing else: with
        # tau2 = 0 its second pivot is exactly 0, and only its row is retried
        p = KernelParams(10.0, 1.0, 0.0)
        targets, coords, par, pmask = self.blocks(15, seed=1)
        par[7, :2] = par[7, 0]
        pmask[7] = np.arange(15) < 2
        retried = []
        h, r = self.solve(p, targets, coords, par, pmask,
                          lambda *a: (retried.append(a), (0.0, 0.5))[1])
        assert [a[-1] for a in retried] == [7]
        Rpp, rps, one, _ = retried[0]
        want = np.eye(15)
        want[0, 1] = want[1, 0] = 1.0
        assert one == 1.0 and np.array_equal(Rpp, want)
        assert rps[0] == rps[1] > 0 and np.all(rps[2:] == 0.0)
        assert np.all(h[7] == 0.0) and r[7] == 0.5
        keep = np.arange(40) != 7
        h0, r0 = self.oracle(p, targets[keep], coords, par[keep], pmask[keep])
        assert np.abs(h[keep] - h0).max() <= 1e-12 * np.abs(h0).max()
        assert np.abs(r[keep] - r0).max() <= 1e-12 * r0.max()


def test_import_leaves_sparse_linalg_unloaded():
    # scipy.sparse.linalg is imported on first solve: importing it up front
    # adds ~3 MB to the peak memory of commands that never unwhiten
    code = ("import sys, spiox, spiox.cli; "
            "sys.exit('scipy.sparse.linalg' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


class TestDense:
    def test_n1(self):
        S = LocationSet([[0.4, 0.4]])
        f = dense_chol_factor(S, KernelParams(1.0, 1.0, tau2=0.44))
        assert f.L[0, 0] == pytest.approx(1.2, rel=1e-12)

    def test_reconstruction(self):
        S = rand_locations(50, seed=14)
        p = KernelParams(20.0, 1.7, 0.0)
        f = dense_chol_factor(S, p)
        R = corr_matrix(S, S, p)
        err = np.linalg.norm(f.L @ f.L.T - R) / np.linalg.norm(R)
        assert err <= 1e-10

    def test_matern_grid_success_no_nugget(self):
        S = rand_locations(35, seed=15)
        for nu in (0.5, 1.0, 2.0):
            for phi in (5.0, 25.0):
                dense_chol_factor(S, KernelParams(phi, nu, 0.0))

    def test_cap_guard(self):
        S = rand_locations(12, seed=16)
        with pytest.raises(ValidationError):
            dense_chol_factor(S, KernelParams(1.0, 1.0), cap=10)


def test_singularity_error_names_row():
    # jitter cannot rescue a genuinely indefinite parent block; the retry path
    # must fail with the offending location named
    S = rand_locations(5, seed=17)
    dag = identity_dag(S, 2)
    ws = VecchiaWorkspace(dag)
    bad = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(NumericalError, match="location 3"):
        ws._retry_row(bad, np.array([2.0, 2.0]), 1.0, 3)


class TestFactorInterface:
    """whiten_t, unwhiten_t, col_sq and dense_l of both storage formats against dense
    oracles on one set and ordering (a saturated DAG is the exact process)."""

    def setup_method(self):
        self.S = rand_locations(30, seed=21)
        self.p = KernelParams(8.0, 1.0, 0.05)
        self.dag = build_nn_dag(self.S, self.S.n - 1, "random", seed=3)
        self.R = corr_matrix(self.S, self.S, self.p)
        self.factors = {"sparse": VecchiaWorkspace(self.dag).build(self.p),
                        "dense": dense_chol_factor(self.S, self.p)}

    def oracle_l(self, kind):
        """Lower Cholesky factor of rho(S), in the DAG's order for the sparse
        factor."""
        o = self.dag.order if kind == "sparse" else np.arange(self.S.n)
        return np.linalg.cholesky(self.R[np.ix_(o, o)]), o

    @pytest.mark.parametrize("kind", ["sparse", "dense"])
    def test_whiten_t(self, kind):
        L, o = self.oracle_l(kind)
        s = np.random.default_rng(5).standard_normal(self.S.n)
        want = np.empty_like(s)
        want[o] = np.linalg.solve(L.T, s[o])
        got = self.factors[kind].whiten_t(s)
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()

    @pytest.mark.parametrize("kind", ["sparse", "dense"])
    def test_unwhiten_t(self, kind):
        L, o = self.oracle_l(kind)
        s = np.random.default_rng(6).standard_normal(self.S.n)
        want = np.empty_like(s)
        want[o] = L.T @ s[o]
        got = self.factors[kind].unwhiten_t(s)
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()

    @pytest.mark.parametrize("kind", ["sparse", "dense"])
    def test_col_sq_is_diag_of_inverse(self, kind):
        want = np.diag(np.linalg.inv(self.R))
        got = self.factors[kind].col_sq
        assert np.abs(got - want).max() <= 1e-10 * want.max()

    @pytest.mark.parametrize("kind", ["sparse", "dense"])
    def test_dense_l(self, kind):
        L, _ = self.oracle_l(kind)
        assert np.abs(self.factors[kind].dense_l() - L).max() <= 1e-10
