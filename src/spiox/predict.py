"""Posterior prediction (full-vector and partly observed co-kriging) and
prior simulation for IOX models.

Given the data at the reference set, prediction at a new site t factorizes
site by site: the conditional mean stacks h_j(t) projections per outcome and
the conditional covariance is R(t) = D(t) Sigma D(t) with
D(t) = diag(sqrt(r_j(t))). Distinct test sites are conditionally independent
given the reference-set values, so every draw goes through one site-by-site
path, ``predict_partial``: a fully missing row takes the full-vector formula,
a partly observed row the co-kriging conditional. ``predict_full`` and
``posterior_predictive`` call it, and it is vectorized over sites.
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
    """Test sites (an N x d coordinate array) plus optional predictors and
    partially observed outcomes.

    ``X_T`` defaults to an intercept column. ``y_obs`` is an N x q array with
    NaN marking the entries to predict; None (or all-NaN) requests
    full-vector prediction everywhere. Sites may overlap the reference set.
    """

    def __init__(self, coords, X_T=None, y_obs=None, q=None):
        self.coords = np.atleast_2d(np.asarray(coords, dtype=float))
        N = self.coords.shape[0]
        self.X_T = np.ones((N, 1)) if X_T is None else np.atleast_2d(X_T)
        if self.X_T.shape[0] != N:
            raise ValidationError("X_T row count does not match coords")
        self.y_obs = None
        if y_obs is not None:
            y_obs = np.atleast_2d(np.asarray(y_obs, dtype=float))
            if y_obs.shape[0] != N:
                raise ValidationError("y_obs row count does not match coords")
            if q is not None and y_obs.shape[1] != q:
                raise ValidationError("y_obs column count does not match q")
            if not np.isnan(y_obs).all():
                self.y_obs = y_obs


def apply_draw(model, draw):
    """Point the model's kernel parameters and Sigma at a posterior draw.

    A component whose parameters change drops its factor, and the model
    rebuilds it on first use: the dense path's projections read it, the
    Vecchia path's parent-block solves do not. Likelihoods evaluated on the
    model afterwards are those of the draw.
    """
    for c, p in enumerate(draw.theta):
        if model.theta[c] != p:
            model.set_theta(c, p)
    if not np.array_equal(model.Sigma, draw.Sigma):
        model.set_sigma(draw.Sigma)


def _site_mean_r(T, X_T, draw, data, model):
    """Per-site predictive means and residual variances, both (N, q), from
    one ``h_r_compact`` call per outcome; r_j(t) includes the nugget."""
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
    return mean, r


def _scale(r, draw, model, include_noise):
    """dvec = sqrt(r); without noise the response model's nugget, which rides
    inside r_j, is stripped per outcome."""
    if not include_noise and draw.W is None:
        r = np.maximum(r - [model.params_for(j).tau2 for j in range(model.q)], 0.0)
    return np.sqrt(np.maximum(r, 0.0))


def _site_moments(T, X_T, draw, data, model, include_noise=True):
    """Per-site predictive means and diagonal scale factors.

    Returns (mean, dvec): mean is (N, q); dvec is (N, q) with
    dvec[t, j] = sqrt(r_j(t)), so cov at site t is D Sigma D (response) with
    Delta added separately for the latent model.
    """
    mean, r = _site_mean_r(T, X_T, draw, data, model)
    return mean, _scale(r, draw, model, include_noise)


def _draw_full(mean, dvec, draw, U):
    """Full-vector draws mean + D Ls z (+ Delta^(1/2) u) for rows of per-site
    moments; row t of U holds z (q values), then u when it is drawn."""
    q = mean.shape[1]
    Y = mean + dvec * (U[:, :q] @ np.linalg.cholesky(draw.Sigma).T)
    if U.shape[1] > q:
        Y = Y + np.sqrt(draw.Delta) * U[:, q:]
    return Y


def predict_full(t, draw, data, model, rng, X_t=None, include_noise=True):
    """One draw of the full outcome vector at site t, or at each row of a
    stack of sites, given a posterior draw: ``predict_partial`` with every
    outcome missing.

    Response model: y(t) ~ N(x(t)^T B + H(t)(y - X B), D Sigma D).
    Latent model: w(t) ~ N(H(t) w, D Sigma D), then y(t) adds the trend and,
    when include_noise, Delta^(1/2) u.
    """
    missing = np.full((np.atleast_2d(t).shape[0], model.q), np.nan)
    return predict_partial(t, missing, draw, data, model, rng, X_t=X_t,
                           include_noise=include_noise)


def predict_partial(t, y_obs, draw, data, model, rng, X_t=None, include_noise=True):
    """Draw the NaN entries of ``y_obs`` at t given its other entries.

    ``t`` is one site with a length-q ``y_obs``, or a stack of sites with one
    row of ``y_obs`` each, in any mix of missingness patterns. A stack
    returns ``y_obs`` with its NaN entries drawn, a single site the drawn
    values alone. Each row takes one of three forms:

    * every outcome missing: the full-vector draw from N(mean, D Sigma D);
    * some missing (m) and some observed (o): co-kriging from
      p(y_m(t) | y_o(t), y), with conditional covariance D_m Q_m^{-1} D_m
      where Q_m is the missing block of Sigma^{-1}. Rows are grouped by
      pattern, so each pattern takes one Cholesky of Q_m per call;
    * every outcome observed: carried through unchanged.

    Without ``include_noise`` fully missing rows drop the response model's
    nugget; co-kriged cells keep it. The standard normals come from one
    ``rng.standard_normal`` call, laid out site by site in row order, so a
    stack draws what that many single-site calls with the same ``rng``
    would.

    When a co-kriged t coincides with a reference site every r_j(t) is zero
    and the observed-side scaling is degenerate; the site is then pinned to
    the reference-set values (exact conditioning), with measurement noise
    still added for the latent model. Any other site, however close to S,
    takes the general formula; an exactly zero observed-side r_j(t) there is
    a NumericalError naming the first such site.
    """
    single = np.ndim(t) == 1
    T = np.atleast_2d(np.asarray(t, dtype=float))
    y_obs = np.atleast_2d(np.asarray(y_obs, dtype=float))
    q = y_obs.shape[1]
    miss = np.isnan(y_obs)
    full = miss.all(axis=1)
    part = miss.any(axis=1) & ~full
    X_t = np.ones((T.shape[0], data.p)) if X_t is None else np.atleast_2d(X_t)
    mean, r = _site_mean_r(T, X_t, draw, data, model)
    dvec = _scale(r, draw, model, True)
    coin = model._pred_geometry(T)["coin"]  # cached by _site_mean_r
    on_ref = coin >= 0
    latent = draw.W is not None
    # standard normals per predicted entry: the field's, plus the noise's
    width = 2 if latent and include_noise else 1
    counts = np.where(full, q * width,
                      miss.sum(axis=1) * np.where(on_ref, width - 1, width))
    normals = rng.standard_normal(int(counts.sum()))
    start = np.cumsum(counts) - counts
    # where in ``normals`` each missing entry's first standard normal sits
    slot = start[:, None] + np.cumsum(miss, axis=1) - 1

    bad = part & ~on_ref & ((dvec == 0.0) & ~miss).any(axis=1)
    if bad.any():
        raise NumericalError(
            f"co-kriging at site {T[np.argmax(bad)].tolist()}: zero residual "
            "variance for an observed outcome at a site that is not a reference "
            "location")

    out = y_obs.copy()
    if full.any():
        out[full] = _draw_full(mean[full], _scale(r[full], draw, model, include_noise),
                               draw, normals[start[full, None] + np.arange(q * width)])
    ref = np.flatnonzero(part & on_ref)
    if ref.size:
        # t sits on the reference set: the GP part is the stored value there
        ri, cj = np.nonzero(miss[ref])
        rows = ref[ri]
        if latent:
            vals = (X_t[ref] @ draw.B + draw.W[coin[ref]])[ri, cj]
            if include_noise:
                vals = vals + np.sqrt(draw.Delta[cj]) * normals[slot[rows, cj]]
        else:
            vals = data.Y[coin[rows], cj]
        out[rows, cj] = vals
    free = np.flatnonzero(part & ~on_ref)
    if free.size:
        Q = np.linalg.inv(draw.Sigma)
        # one integer code per missingness pattern (bit j set: outcome j missing)
        code = miss[free] @ (1 << np.arange(q))
        for c in np.unique(code):
            rows = free[code == c]
            pat = miss[rows[0]]
            Qm = Q[pat]
            Qm_chol = np.linalg.cholesky(Qm[:, pat])
            H_mo = -sla.cho_solve((Qm_chol, True), Qm[:, ~pat], check_finite=False)
            mean_r, dvec_r = mean[rows], dvec[rows]
            Dm = dvec_r[:, pat]
            resid_o = (y_obs[rows][:, ~pat] - mean_r[:, ~pat]) / dvec_r[:, ~pat]
            cond_mean = mean_r[:, pat] + Dm * (resid_o @ H_mo.T)
            # covariance D_m Q_m^{-1} D_m: draw via the Cholesky of Q_m
            s = slot[rows][:, pat]
            z = sla.solve_triangular(Qm_chol.T, normals[s].T, lower=False,
                                     check_finite=False).T
            vals = cond_mean + Dm * z
            if latent and include_noise:
                vals = vals + np.sqrt(draw.Delta[pat]) * normals[s + Dm.shape[1]]
            out[rows[:, None], np.flatnonzero(pat)] = vals
    return out[0, miss[0]] if single else out


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
    if (model.coincidence(Tc) >= 0).any():
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


def posterior_predictive(request, draws, data, model, rng, include_noise=True):
    """Predictive draws at every site of a PredictionRequest for a sequence
    of posterior draws.

    Returns an (n_draws, N, q) array; entries for observed outcomes (through
    ``request.y_obs``, NaN = missing; None = all missing) are carried through
    unchanged so summaries can mask them. Each posterior draw re-anchors the
    model's parameters and makes one ``predict_partial`` call over all sites,
    so its draws equal those of a site-by-site loop with the same ``rng``.
    """
    Tc, X_T, y_obs = request.coords, request.X_T, request.y_obs
    if y_obs is None:
        y_obs = np.full((Tc.shape[0], model.q), np.nan)
    out = np.empty((len(draws),) + y_obs.shape)
    for di, draw in enumerate(draws):
        apply_draw(model, draw)
        out[di] = predict_partial(Tc, y_obs, draw, data, model, rng, X_t=X_T,
                                  include_noise=include_noise)
    return out
