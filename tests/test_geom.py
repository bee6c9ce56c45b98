"""Tests for spiox.geom: location sets, nearest neighbors, DAG construction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spiox.errors import ValidationError
from spiox.geom import (LocationSet, build_nn_dag, nearest_neighbors,
                        order_locations, prediction_parents)

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
