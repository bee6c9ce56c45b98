"""Posterior prediction (full-vector and partly observed co-kriging) and
prior simulation for IOX models.

Given the data at the reference set, prediction at a new site t factorizes
site by site: the conditional mean stacks h_j(t) projections per outcome and
the conditional covariance is R(t) = D(t) Sigma D(t) with
D(t) = diag(sqrt(r_j(t))). Distinct test sites are conditionally independent
given the reference-set values, so everything here is vectorized over sites.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import NumericalError, ValidationError


@dataclass
class PosteriorDraw:
    """One set of sampled parameters: B (p x q), Sigma, per-outcome kernel
    params; Delta and the latent field W only for the latent model."""

    B: np.ndarray
    Sigma: np.ndarray
    theta: list
    Delta: np.ndarray = None
    W: np.ndarray = None


class PredictionRequest:
    """Test sites plus optional predictors and partially observed outcomes.

    ``y_obs`` is an N x q array with NaN marking the entries to predict; None
    (or all-NaN) requests full-vector prediction everywhere. Sites may overlap
    the reference set.
    """

    def __init__(self, T, X_T=None, y_obs=None, q=None):
        self.T = T if hasattr(T, "coords") else np.atleast_2d(np.asarray(T, dtype=float))
        N = self.T.coords.shape[0] if hasattr(self.T, "coords") else self.T.shape[0]
        self.X_T = np.ones((N, 1)) if X_T is None else np.atleast_2d(X_T)
        if self.X_T.shape[0] != N:
            raise ValidationError("X_T row count does not match T")
        self.y_obs = None
        if y_obs is not None:
            y_obs = np.atleast_2d(np.asarray(y_obs, dtype=float))
            if y_obs.shape[0] != N:
                raise ValidationError("y_obs row count does not match T")
            if q is not None and y_obs.shape[1] != q:
                raise ValidationError("y_obs column count does not match q")
            if not np.isnan(y_obs).all():
                self.y_obs = y_obs

    @property
    def coords(self):
        return self.T.coords if hasattr(self.T, "coords") else self.T


def apply_draw(model, draw):
    """Point the model's kernel parameters and Sigma at a posterior draw.

    On the Vecchia path the prediction projections read kernel parameters
    directly (parent-block solves), so the sparse factors are left stale
    rather than rebuilt per draw; do not evaluate likelihoods on the model
    afterwards without rebuilding. The dense path rebuilds what changed.
    """
    for c, p in enumerate(draw.theta):
        if model.theta[c] != p:
            if model.is_vecchia:
                model.theta[c] = p
            else:
                model.set_theta(c, p)
    if not np.array_equal(model.Sigma, draw.Sigma):
        model.set_sigma(draw.Sigma)


def _site_moments(T, X_T, draw, data, model, include_noise=True):
    """Per-site predictive means and diagonal scale factors.

    Returns (mean, dvec): mean is (N, q); dvec is (N, q) with
    dvec[t, j] = sqrt(r_j(t)), so cov at site t is D Sigma D (response) with
    Delta added separately for the latent model.
    """
    T = np.atleast_2d(np.asarray(T, dtype=float))
    N = T.shape[0]
    q = model.q
    trend = X_T @ draw.B
    mean = np.empty((N, q))
    r = np.empty((N, q))
    G = draw.W if draw.W is not None else (data.Y - data.X @ draw.B)
    for j in range(q):
        idx, vals, rj = model.h_r_compact(T, j)
        mean[:, j] = trend[:, j] + np.einsum("tk,tk->t", vals, G[idx, j])
        r[:, j] = rj
    if not include_noise and draw.W is None:
        # response model: the nugget rides inside r_j; strip it per outcome
        for j in range(q):
            r[:, j] = np.maximum(r[:, j] - model.params_for(j).tau2, 0.0)
    return mean, np.sqrt(np.maximum(r, 0.0))


def predict_full(t, draw, data, model, rng, X_t=None, include_noise=True):
    """One draw of the full outcome vector at site t given a posterior draw.

    Response model: y(t) ~ N(x(t)^T B + H(t)(y - X B), D Sigma D).
    Latent model: w(t) ~ N(H(t) w, D Sigma D), then y(t) adds the trend and,
    when include_noise, Delta^(1/2) u.
    """
    t = np.asarray(t, dtype=float).ravel()
    X_t = np.ones((1, data.p)) if X_t is None else np.atleast_2d(X_t)
    mean, dvec = _site_moments(t[None, :], X_t, draw, data, model,
                               include_noise=include_noise)
    Ls = np.linalg.cholesky(draw.Sigma)
    y = mean[0] + dvec[0] * (Ls @ rng.standard_normal(model.q))
    if draw.W is not None and include_noise:
        y = y + np.sqrt(draw.Delta) * rng.standard_normal(model.q)
    return y


def predict_partial(t, y_obs, draw, data, model, rng, X_t=None,
                    include_noise=True):
    """Draw the missing outcomes at t given the observed ones (co-kriging).

    ``y_obs`` is a length-q vector with NaN marking the missing entries m; the
    draw targets p(y_m(t) | y_o(t), y) with conditional covariance
    D_m Q_m^{-1} D_m, where Q_m is the missing-block of Sigma^{-1}.

    When t coincides with a reference site every r_j(t) is zero and the
    observed-side scaling is degenerate; the site is then pinned to the
    reference-set values (exact conditioning), with measurement noise still
    added for the latent model. Any other site, however close to S, takes the
    general formula; an exactly zero observed-side r_j(t) there is a
    NumericalError.
    """
    t = np.asarray(t, dtype=float).ravel()
    y_obs = np.asarray(y_obs, dtype=float).ravel()
    m_idx = np.flatnonzero(np.isnan(y_obs))
    o_idx = np.flatnonzero(~np.isnan(y_obs))
    if len(m_idx) == 0:
        raise ValidationError("no missing outcomes at this site")
    if len(o_idx) == 0:
        raise ValidationError("predict_partial needs at least one observed outcome")
    X_t = np.ones((1, data.p)) if X_t is None else np.atleast_2d(X_t)
    mean, dvec = _site_moments(t[None, :], X_t, draw, data, model,
                               include_noise=True)
    mean, dvec = mean[0], dvec[0]
    Q = np.linalg.inv(draw.Sigma)
    latent = draw.W is not None

    k = int(model._pred_geometry(t[None, :])["coin"][0])  # cached by _site_moments
    if k >= 0:
        # t sits on the reference set: the GP part is the stored value there
        if latent:
            base = X_t[0] @ draw.B + draw.W[k]
            out = base[m_idx]
            if include_noise:
                out = out + np.sqrt(draw.Delta[m_idx]) * rng.standard_normal(len(m_idx))
            return out
        return data.Y[k, m_idx]
    if np.any(dvec[o_idx] == 0.0):
        raise NumericalError(
            f"co-kriging at site {t.tolist()}: zero residual variance for an "
            "observed outcome at a site that is not a reference location")

    Qm = Q[np.ix_(m_idx, m_idx)]
    Qmo = Q[np.ix_(m_idx, o_idx)]
    Dm = dvec[m_idx]
    Do = dvec[o_idx]
    resid_o = (y_obs[o_idx] - mean[o_idx]) / Do
    Qm_chol = np.linalg.cholesky(Qm)
    H_mo = -sla.cho_solve((Qm_chol, True), Qmo)
    cond_mean = mean[m_idx] + Dm * (H_mo @ resid_o)
    # covariance D_m Q_m^{-1} D_m: draw via the Cholesky of Q_m
    z = sla.solve_triangular(Qm_chol.T, rng.standard_normal(len(m_idx)), lower=False)
    out = cond_mean + Dm * z
    if latent and include_noise:
        out = out + np.sqrt(draw.Delta[m_idx]) * rng.standard_normal(len(m_idx))
    return out


def simulate_prior_reference(model, rng):
    """Exact draw of an n x q outcome matrix from N(0, C(S)): correlated
    vectors at each site, pushed through the per-outcome factors."""
    n, q = model.n, model.q
    V = rng.standard_normal((n, q)) @ model.chol_sigma.T
    Y = np.empty((n, q))
    for j in range(q):
        Y[:, j] = model.factor_for(j).unwhiten(V[:, j])
    return Y


def simulate_prior_nonreference(T, model, rng):
    """Draw outcomes at non-reference sites T: simulate at S, then draw each
    site from N(H(t) y_S, D Sigma D) (sites conditionally independent)."""
    Tc = T.coords if hasattr(T, "coords") else np.atleast_2d(np.asarray(T, dtype=float))
    coin = np.array([(model.S.coords == t).all(axis=1).any() for t in Tc])
    if coin.any():
        raise ValidationError(
            "T overlaps the reference set; simulate at S with "
            "simulate_prior_reference and read the matching rows instead")
    Ys = simulate_prior_reference(model, rng)
    N, q = Tc.shape[0], model.q
    mean = np.empty((N, q))
    r = np.empty((N, q))
    for j in range(q):
        idx, vals, rj = model.h_r_compact(Tc, j)
        mean[:, j] = np.einsum("tk,tk->t", vals, Ys[idx, j])
        r[:, j] = rj
    D = np.sqrt(np.maximum(r, 0.0))
    Z = rng.standard_normal((N, q)) @ model.chol_sigma.T
    return mean + D * Z


def posterior_predictive(T, X_T, draws, data, model, rng, include_noise=True,
                         y_obs=None, max_draws=None):
    """Predictive draws at every site of T for a sequence of posterior draws.

    ``T`` may be a PredictionRequest (then X_T/y_obs are taken from it).
    Returns an (n_draws, N, q) array; entries for observed outcomes (through
    ``y_obs``, NaN = missing) are carried through unchanged so summaries can
    mask them. Each posterior draw re-anchors the model's parameters.
    """
    if isinstance(T, PredictionRequest):
        X_T = T.X_T
        y_obs = T.y_obs
        Tc = T.coords
    else:
        Tc = T.coords if hasattr(T, "coords") else np.atleast_2d(np.asarray(T, dtype=float))
    N = Tc.shape[0]
    q = model.q
    use = draws if max_draws is None else draws[:max_draws]
    out = np.empty((len(use), N, q))
    for di, draw in enumerate(use):
        apply_draw(model, draw)
        if y_obs is None:
            mean, dvec = _site_moments(Tc, X_T, draw, data, model,
                                       include_noise=include_noise)
            Z = rng.standard_normal((N, q)) @ np.linalg.cholesky(draw.Sigma).T
            Y = mean + dvec * Z
            if draw.W is not None and include_noise:
                Y = Y + np.sqrt(draw.Delta) * rng.standard_normal((N, q))
            out[di] = Y
        else:
            Y = np.array(y_obs, dtype=float)
            for tix in range(N):
                row = y_obs[tix]
                miss = np.isnan(row)
                if miss.all():
                    draw_row = predict_full(Tc[tix], draw, data, model, rng,
                                            X_t=X_T[tix], include_noise=include_noise)
                    Y[tix] = draw_row
                elif miss.any():
                    Y[tix, miss] = predict_partial(
                        Tc[tix], row, draw, data, model, rng, X_t=X_T[tix],
                        include_noise=include_noise)
            out[di] = Y
    return out
