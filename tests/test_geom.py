"""Tests for spiox.geom: location sets, nearest neighbors, DAG construction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spiox.errors import ValidationError
from spiox.geom import (LocationSet, _brute_knn, build_nn_dag,
                        nearest_neighbors, order_locations, prediction_parents)

from conftest import rand_locations


class TestLocationSet:
    def test_basic(self):
        S = LocationSet([[0.0, 0.0], [1.0, 2.0]])
        assert S.n == 2 and S.d == 2
        assert list(S.ids) == [0, 1]

    def test_single_point(self):
        S = LocationSet([[0.5, 0.5]])
        assert S.n == 1

    def test_duplicate_rejected(self):
        with pytest.raises(ValidationError, match="duplicate"):
            LocationSet([[0.0, 0.0], [1.0, 1.0], [0.0, 0.0]])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValidationError):
            LocationSet([[0.0, np.nan]])

    def test_zero_dimensions_rejected(self):
        with pytest.raises(ValidationError, match="nonempty"):
            LocationSet(np.empty((3, 0)))

    def test_coords_readonly(self):
        S = rand_locations(5)
        with pytest.raises(ValueError):
            S.coords[0, 0] = 3.0


class TestOrdering:
    def test_coordinate_sum(self):
        S = LocationSet(np.array([[0.9], [0.1], [0.5]]))
        assert list(order_locations(S, "coordinate-sum")) == [1, 2, 0]

    def test_single(self):
        S = LocationSet([[0.3, 0.3]])
        assert list(order_locations(S, "coordinate-sum")) == [0]

    def test_random_deterministic(self):
        S = rand_locations(30, seed=4)
        a = order_locations(S, "random", seed=7)
        b = order_locations(S, "random", seed=7)
        assert np.array_equal(a, b)
        assert sorted(a.tolist()) == list(range(30))

    def test_explicit_permutation(self):
        S = rand_locations(4)
        assert list(order_locations(S, [3, 2, 1, 0])) == [3, 2, 1, 0]
        with pytest.raises(ValidationError):
            order_locations(S, [0, 0, 1, 2])


class TestNearestNeighbors:
    def test_by_distance(self):
        cands = LocationSet([[0.0, 1.0], [0.0, 3.0], [0.0, 2.0]])
        assert list(nearest_neighbors((0.0, 0.0), cands, 2)) == [0, 2]

    def test_k_zero(self):
        cands = rand_locations(5)
        assert len(nearest_neighbors((0.0, 0.0), cands, 0)) == 0

    def test_k_exceeds(self):
        cands = rand_locations(4, seed=2)
        assert len(nearest_neighbors((0.5, 0.5), cands, 10)) == 4

    def test_tie_break_ascending_index(self):
        # points at indices 2 and 4 equidistant from the query
        pts = np.array([[5.0, 5.0], [6.0, 6.0], [1.0, 0.0], [7.0, 7.0], [-1.0, 0.0]])
        out = nearest_neighbors((0.0, 0.0), LocationSet(pts), 2)
        assert list(out) == [2, 4]

    def test_distances_nondecreasing(self):
        cands = rand_locations(40, seed=9)
        idx = nearest_neighbors((0.2, 0.8), cands, 40)
        d = np.linalg.norm(cands.coords[idx] - np.array([0.2, 0.8]), axis=1)
        assert np.all(np.diff(d) >= 0)


class TestNnDag:
    def test_collinear_m2(self):
        S = LocationSet(np.array([[0.0], [1.0], [2.0]]))
        dag = build_nn_dag(S, 2, "coordinate-sum")
        assert [list(p) for p in dag.parents] == [[], [0], [0, 1]]

    def test_saturated(self):
        S = rand_locations(12, seed=3)
        dag = build_nn_dag(S, 11, "random", seed=1)
        for k, par in enumerate(dag.parents):
            assert list(par) == list(range(k))

    def test_chain_on_line(self):
        # m=1 on a left-to-right ordered line: parent is the previous point
        xs = np.sort(np.random.default_rng(0).uniform(0, 1, 15))
        S = LocationSet(xs[:, None])
        dag = build_nn_dag(S, 1, "coordinate-sum")
        # brute-force nearest predecessor oracle
        for k in range(1, 15):
            d = np.abs(xs[:k] - xs[k])
            assert dag.parents[k][0] == int(np.argmin(d)) == k - 1

    def test_topological_validity(self):
        S = rand_locations(40, seed=5)
        dag = build_nn_dag(S, 6, "random", seed=2)
        dag.validate()
        for k, par in enumerate(dag.parents):
            assert all(p < k for p in par)
            assert len(par) == min(k, 6)

    def test_m_zero(self):
        dag = build_nn_dag(rand_locations(5), 0)
        assert all(len(p) == 0 for p in dag.parents)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(2, 25), m=st.integers(0, 24), seed=st.integers(0, 10_000))
def test_dag_parents_precede_property(n, m, seed):
    rng = np.random.default_rng(seed)
    S = LocationSet(rng.uniform(0, 1, (n, 2)))
    dag = build_nn_dag(S, m, "random", seed=seed)
    for k, par in enumerate(dag.parents):
        assert len(par) == min(k, m)
        assert all(0 <= p < k for p in par)


def test_prediction_parents_all_when_m_large():
    S = rand_locations(6, seed=1)
    out = prediction_parents(np.array([[0.1, 0.1]]), S, 10)
    assert sorted(out[0].tolist()) == list(range(6))


# --- the kd-tree search against brute force --------------------------------

def brute_dag_parents(S, m, scheme, seed=0):
    """Reference DAG parents: per position, a full (squared distance,
    position) sort of all predecessors."""
    P = S.coords[order_locations(S, scheme, seed)]
    out = []
    for k in range(S.n):
        d2 = ((P[:k] - P[k]) ** 2).sum(axis=1)
        out.append(np.sort(np.lexsort((np.arange(k), d2))[:min(k, m)]).tolist())
    return out


def assert_dag_is_brute(S, m, scheme="random", seed=0):
    dag = build_nn_dag(S, m, scheme, seed)
    assert [p.tolist() for p in dag.parents] == brute_dag_parents(S, m, scheme, seed)


def lattice(side, d=2):
    g = np.arange(float(side))
    return LocationSet(np.array(np.meshgrid(*[g] * d)).reshape(d, -1).T)


def cross_polytope(d):
    """The 2d points +-e_i: every pair not opposite is sqrt(2) apart, so almost
    every neighbour set is a tie past any candidate count the tree asks for."""
    return LocationSet(np.concatenate([np.eye(d), -np.eye(d)]))


@pytest.fixture
def brute_calls(monkeypatch):
    """Candidate counts of every brute-force search made by spiox.geom."""
    import spiox.geom as geom
    calls = []

    def counted(X, q, k):
        calls.append(len(X))
        return _brute_knn(X, q, k)

    monkeypatch.setattr(geom, "_brute_knn", counted)
    return calls


class TestTreeDag:
    @pytest.mark.parametrize("n", [1, 2, 15, 16, 2000])
    def test_uniform(self, n):
        assert_dag_is_brute(rand_locations(n, seed=n), 15)

    @pytest.mark.parametrize("scheme", ["random", "coordinate-sum"])
    def test_lattice_ties(self, scheme):
        assert_dag_is_brute(lattice(40), 15, scheme, seed=3)

    @pytest.mark.parametrize("d", [1, 3])
    def test_other_dimensions(self, d):
        assert_dag_is_brute(rand_locations(600, d=d, seed=d), 15)
        assert_dag_is_brute(lattice(600 if d == 1 else 9, d), 15, "random", seed=d)

    @pytest.mark.parametrize("m", [0, 1, 15, 299, 300, 400])
    def test_parent_counts(self, m):
        assert_dag_is_brute(rand_locations(300, seed=7), m)

    def test_uncertified_rows_fall_back(self, brute_calls):
        assert_dag_is_brute(cross_polytope(40), 2, "random", seed=5)
        # positions past the 4m = 8 brute-force head that the tree left
        assert any(n_cand > 8 for n_cand in brute_calls)


class TestTreePredictionParents:
    def per_site(self, T, S, m):
        return np.array([nearest_neighbors(t, S, m) for t in T])

    def test_random_points(self):
        S = rand_locations(2000, seed=1)
        T = np.random.default_rng(2).uniform(-0.1, 1.1, (300, 2))
        assert np.array_equal(prediction_parents(T, S, 15), self.per_site(T, S, 15))

    def test_points_on_reference_sites(self):
        S = rand_locations(500, seed=3)
        T = S.coords[::7]
        out = prediction_parents(T, S, 10)
        assert np.array_equal(out, self.per_site(T, S, 10))
        assert np.array_equal(out[:, 0], np.arange(0, 500, 7))

    def test_lattice_ties(self):
        S = lattice(30)
        T = lattice(12).coords * 2.0 + 0.5  # cell centres: four-way ties
        assert np.array_equal(prediction_parents(T, S, 15), self.per_site(T, S, 15))

    def test_uncertified_rows_fall_back(self, brute_calls):
        S = cross_polytope(40)
        T = np.zeros((3, 40))
        T[1, 0] = 0.25
        out = prediction_parents(T, S, 5)
        assert len(brute_calls) == 3
        assert np.array_equal(out, self.per_site(T, S, 5))

    def test_single_row_and_m_one(self):
        S = rand_locations(50, seed=4)
        T = np.array([0.3, 0.6])
        assert np.array_equal(prediction_parents(T, S, 1), self.per_site([T], S, 1))

    @pytest.mark.parametrize("m", [0, 50, 80])
    def test_all_of_s(self, m):
        S = rand_locations(50, seed=5)
        out = prediction_parents(np.array([[0.2, 0.2], [0.9, 0.1]]), S, m)
        assert np.array_equal(out, np.tile(np.arange(50), (2, 1)))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 300), m=st.integers(0, 12), seed=st.integers(0, 10_000),
       on_grid=st.booleans(), coordinate_sum=st.booleans())
def test_tree_dag_matches_brute_property(n, m, seed, on_grid, coordinate_sum):
    rng = np.random.default_rng(seed)
    if on_grid:  # distinct cells of a small grid: ties everywhere
        cells = rng.choice(20 * 20, size=n, replace=False)
        coords = np.stack([cells // 20, cells % 20], axis=1).astype(float)
    else:
        coords = rng.uniform(0, 1, (n, 2))
    scheme = "coordinate-sum" if coordinate_sum else "random"
    assert_dag_is_brute(LocationSet(coords), m, scheme, seed)
