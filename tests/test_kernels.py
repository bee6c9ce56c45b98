"""Tests for the Matern correlation machinery."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist
from scipy.special import gamma as gamma_fn
from scipy.special import kv

from spiox.errors import ValidationError
from spiox.geom import build_nn_dag
from spiox.ioxcore import IoxModel
from spiox.kernels import (DIST_FLOOR, NU_MAX, KernelParams, _matern_bessel,
                           _one_cutoff, _panel_width, corr_matrix, matern,
                           matern_correlation)
from spiox.vecchia import VecchiaWorkspace

from conftest import rand_locations


class TestParams:
    def test_validation(self):
        with pytest.raises(ValidationError):
            KernelParams(phi=-1.0, nu=1.0)
        with pytest.raises(ValidationError):
            KernelParams(phi=1.0, nu=0.0)
        with pytest.raises(ValidationError):
            KernelParams(phi=1.0, nu=NU_MAX * 1.01)
        KernelParams(phi=1.0, nu=NU_MAX)
        with pytest.raises(ValidationError):
            KernelParams(phi=1.0, nu=1.0, tau2=-0.1)
        with pytest.raises(ValidationError):
            KernelParams(phi=np.inf, nu=1.0)


class TestMatern:
    def test_zero_distance_includes_nugget(self):
        p = KernelParams(phi=3.0, nu=0.8, tau2=0.25)
        assert matern(0.0, p) == pytest.approx(1.25, abs=0)

    def test_exponential_reduction(self):
        p = KernelParams(phi=30.0, nu=0.5)
        assert matern(0.1, p) == pytest.approx(np.exp(-3.0), rel=1e-13)

    def test_nu_three_halves_closed_form(self):
        # general Bessel path against the half-integer closed form
        x = 10.0 * 0.2
        general = _matern_bessel(np.array([x]), 1.5)[0]
        assert general == pytest.approx((1 + x) * np.exp(-x), rel=1e-10)
        p = KernelParams(phi=10.0, nu=1.5)
        assert matern(0.2, p) == pytest.approx(3.0 * np.exp(-2.0), rel=1e-12)

    def test_half_integer_paths_match_bessel(self):
        d = np.geomspace(1e-8, 10.0, 60)
        for nu in (0.5, 1.5, 2.5):
            for phi in (1.0, 10.0, 30.0):
                closed = matern_correlation(d, phi, nu)
                general = _matern_bessel(phi * d, nu)
                tol = 1e-12 if nu == 0.5 else 1e-10
                assert np.max(np.abs(closed - general) / closed) < tol

    def test_monotone_decreasing(self):
        p = KernelParams(phi=7.0, nu=0.9)
        d = np.linspace(1e-6, 3.0, 400)
        v = matern(d, p)
        assert np.all(np.diff(v) <= 1e-15)
        assert np.all(v > 0) and np.all(v <= 1.0)

    def test_negative_distance_rejected(self):
        p = KernelParams(phi=1.0, nu=1.0)
        with pytest.raises(ValidationError):
            matern(-0.1, p)
        with pytest.raises(ValidationError):
            matern(np.nan, p)

    def test_floor_below_1e14(self):
        p = KernelParams(phi=5.0, nu=0.7, tau2=0.3)
        # tiny but nonzero distance: correlation 1 without the nugget
        assert matern(1e-15, p) == pytest.approx(1.0, abs=0)


class TestBesselInterpolant:
    """The piecewise Chebyshev K_nu inside _matern_bessel."""

    NUS = (0.25, 0.3, 0.8, 1.0, 1.2, 2.7, 3.0, 8.0, 20.0, NU_MAX)

    @staticmethod
    def kv_matern(x, nu):
        with np.errstate(over="ignore", invalid="ignore"):
            return 2.0 ** (1.0 - nu) / gamma_fn(nu) * x ** nu * kv(nu, x)

    def test_matches_scipy_kv(self):
        x = np.geomspace(1e-13, 750.0, 4000)
        perm = np.random.default_rng(0).permutation(x.size)
        back = np.argsort(perm)
        for nu in self.NUS:
            want = self.kv_matern(x, nu)
            cases = {
                "scalar": (np.array([_matern_bessel(v, nu) for v in x[::37]]),
                           want[::37]),
                "unsorted 1-D": (_matern_bessel(x[perm], nu)[back], want),
                "2-D": (_matern_bessel(x[perm].reshape(40, 100), nu).ravel()[back],
                        want),
            }
            for name, (got, ref) in cases.items():
                assert np.all((got >= 0.0) & (got <= 1.0)), (nu, name)
                # kv overflows at the smallest x once nu is above about 20
                keep = np.isfinite(ref) & (ref > 1e-300)
                rel = np.abs(got[keep] - ref[keep]) / ref[keep]
                assert rel.max() <= 1e-12, (nu, name, rel.max())

    def test_values_depend_only_on_x(self):
        rng = np.random.default_rng(3)
        for nu in self.NUS:
            width = _panel_width(nu)
            edges = np.exp(np.arange(math.floor(-30 / width), 6.6 / width) * width)
            x = np.sort(np.concatenate([rng.uniform(0.0, 2.0, 300),
                                        np.geomspace(1e-13, 700.0, 300), edges,
                                        np.nextafter(edges, 0.0)]))
            perm = rng.permutation(x.size)
            whole = _matern_bessel(x, nu)
            alone = np.array([_matern_bessel(x[i:i + 1], nu)[0] for i in range(x.size)])
            assert np.array_equal(whole, alone)
            assert np.array_equal(_matern_bessel(x[perm], nu), whole[perm])
            assert np.array_equal(_matern_bessel(x[perm].reshape(-1, 2), nu),
                                  whole[perm].reshape(-1, 2))

    def test_one_only_where_m_rounds_to_one(self):
        # below _one_cutoff M is set to 1, so there the leading terms of the
        # series of 1 - M must stay under half the spacing of doubles below 1
        def gap(x, nu):
            if nu == 1.0:
                return x ** 2 / 2 * (np.log(2 / x) - np.euler_gamma + 0.5)
            lead = -(x / 2) ** 2 / (1 - nu)
            if nu < 2:
                lead += gamma_fn(1 - nu) / gamma_fn(1 + nu) * (x / 2) ** (2 * nu)
            return lead

        checked = 0
        for nu in self.NUS + (0.999, 1.001):
            cut = _one_cutoff(nu)
            if cut == DIST_FLOOR:   # small nu: only the distance floor applies
                continue
            x = np.geomspace(DIST_FLOOR, cut, 200)[:-1]
            assert gap(x, nu).max() < 2.0 ** -54, nu
            assert np.all(_matern_bessel(x, nu) == 1.0)
            checked += 1
        assert checked >= 8

    def test_paths_agree_bitwise(self):
        # a distance gives the same correlation bits in the workspace
        # (sorted d_unique), prediction (its own d_unique) and dense
        # corr_matrix paths
        S = rand_locations(80, seed=11)
        p = KernelParams(phi=12.0, nu=1.3, tau2=0.1)
        ws = VecchiaWorkspace(build_nn_dag(S, 6, "random", seed=0))
        model = IoxModel(S, [p], np.eye(1), m=6)
        d_pred = model._pred_geometry(rand_locations(15, seed=12).coords)["d_unique"]
        _, iw, ip = np.intersect1d(ws.d_unique, d_pred, return_indices=True)
        assert iw.size > 0
        rho_ws = matern(ws.d_unique, p)
        assert np.array_equal(rho_ws[iw], matern(d_pred, p)[ip])
        D = cdist(S.coords, S.coords)
        D = 0.5 * (D + D.T)
        iu = np.triu_indices(S.n, 1)
        dense = corr_matrix(S, S, p)[iu]
        assert np.array_equal(dense, [matern(d, p) for d in D[iu]])
        _, iw, idn = np.intersect1d(ws.d_unique, D[iu], return_indices=True)
        assert iw.size > 0
        assert np.array_equal(rho_ws[iw], dense[idn])


class TestCorrMatrix:
    def test_single_point(self):
        S = rand_locations(1)
        p = KernelParams(phi=2.0, nu=1.0, tau2=0.1)
        M = corr_matrix(S, S, p)
        assert M.shape == (1, 1) and M[0, 0] == pytest.approx(1.1)

    def test_symmetric_psd(self):
        S = rand_locations(30, seed=7)
        p = KernelParams(phi=9.0, nu=1.3, tau2=0.0)
        M = corr_matrix(S, S, p)
        assert np.array_equal(M, M.T)
        assert np.all(np.diag(M) == 1.0)
        assert np.linalg.eigvalsh(M).min() >= -1e-12

    def test_disjoint_sets_no_unit_entries(self):
        A = rand_locations(6, seed=1)
        B = rand_locations(7, seed=2)
        p = KernelParams(phi=4.0, nu=0.6, tau2=0.2)
        M = corr_matrix(A, B, p)
        assert M.shape == (6, 7)
        assert np.all(M < 1.0 + p.tau2)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 50), seed=st.integers(0, 9999),
       phi=st.floats(0.5, 40.0), nu=st.floats(0.3, 2.9),
       tau2=st.floats(0.0, 0.5))
def test_corr_matrix_psd_property(n, seed, phi, nu, tau2):
    S = rand_locations(n, seed=seed)
    M = corr_matrix(S, S, KernelParams(phi=phi, nu=nu, tau2=tau2))
    assert np.linalg.eigvalsh(M).min() >= -1e-10 * n
