"""MCMC machinery for IOX Gaussian process models.

Implements the Gibbs/Metropolis updates for both observation models:

* response model: y ~ N(X_q beta, C) with C the IOX covariance at S;
* latent model: y = X_q beta + w + eps, eps ~ N(0, Delta x I_n) and
  w ~ N(0, C), with Delta diagonal.

beta and Sigma have conjugate Gaussian / inverse-Wishart full conditionals;
kernel parameters move by adaptive random-walk Metropolis (componentwise
blocks, or one joint proposal screened by delayed acceptance on the Vecchia
path); the latent field w is updated either one
outcome column at a time (sparse precision solves) or one site at a time
(q x q full conditionals read off the sparse factors, drawn for a whole colour
class of conditionally independent sites at once); cluster assignments get
sequential discrete Gibbs draws.
"""

import math
import time
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .errors import NumericalError, ValidationError
from .ioxcore import (IoxModel, conditional_loglik, loglik, whiten_columns,
                      zero_distance_cross_corr)
from .kernels import NU_MAX, KernelParams
from .vecchia import jittered_cholesky

# the LAPACK routines behind sla.cho_solve and sla.solve_triangular, called
# directly (with the arguments the wrappers would pass) in the small solves of
# every update, where the wrappers' argument checks cost more than the solves
_potrs, _trtrs = sla.get_lapack_funcs(("potrs", "trtrs"), dtype=float)

# ---------------------------------------------------------------------------
# priors


@dataclass
class Priors:
    """Hyperparameters: Gaussian beta, inverse-Wishart Sigma, inverse-gamma
    nugget variances, and box supports for the kernel parameters (phi and nu
    uniform, tau2 log-uniform)."""

    beta_mean: float = 0.0
    beta_var: float = 100.0
    sigma_df: float = 5.0
    sigma_scale: np.ndarray = None
    delta_a: float = 2.0
    delta_b: float = 1.0
    phi_bounds: tuple = (0.5, 80.0)
    nu_bounds: tuple = (0.25, 3.0)
    tau2_bounds: tuple = (1e-6, 1.0)

    def validate(self, q):
        if self.sigma_scale is None:
            self.sigma_scale = np.eye(q)
        S = self.sigma_scale = np.asarray(self.sigma_scale, dtype=float)
        if S.shape != (q, q) or not np.all(np.isfinite(S)) or np.linalg.eigvalsh(S)[0] <= 0:
            raise ValidationError("sigma_scale must be a positive definite q x q matrix")
        if self.sigma_df <= q - 1:
            raise ValidationError(f"sigma_df must exceed q - 1 = {q - 1}")
        if self.delta_a <= 0 or self.delta_b <= 0:
            raise ValidationError("delta_a and delta_b must be > 0")
        if self.beta_var <= 0:
            raise ValidationError("beta_var must be > 0")
        for name in ("phi_bounds", "nu_bounds", "tau2_bounds"):
            lo, hi = getattr(self, name)
            if not (np.isfinite(lo) and np.isfinite(hi)) or lo <= 0 or hi < lo:
                raise ValidationError(f"bad {name}: ({lo}, {hi})")
        if self.nu_bounds[1] > NU_MAX:
            raise ValidationError(f"nu_bounds must stay <= {NU_MAX}, got {self.nu_bounds}")
        return self


def default_priors(S, q):
    """Default priors with the phi box scaled to the domain diameter."""
    diam = max(S.diameter(), 1e-8)
    return Priors(phi_bounds=(1.0 / diam, 100.0 / diam), sigma_df=q + 2).validate(q)


# ---------------------------------------------------------------------------
# distribution samplers


@lru_cache(maxsize=None)
def _strict_lower(q):
    """np.tril_indices(q, -1), built once per q: the samplers draw Sigma every
    iteration, where building the indices costs more than the draw."""
    return np.tril_indices(q, -1)


def draw_inverse_wishart(nu, Psi, rng):
    """One draw from the inverse Wishart with density proportional to
    det(S)^{-(nu+q+1)/2} exp(-tr(Psi S^{-1}) / 2); mean Psi / (nu - q - 1).

    Uses the Bartlett decomposition: with A A^T ~ Wishart(nu, I) and
    T T^T = Psi^{-1}, the precision T A A^T T^T is Wishart(nu, Psi^{-1}),
    so Sigma = M^T M with M = A^{-1} chol(Psi)^T.
    """
    Psi = np.atleast_2d(np.asarray(Psi, dtype=float))
    q = Psi.shape[0]
    if nu <= q - 1:
        raise ValidationError("inverse Wishart needs nu > q - 1")
    try:
        Lp = np.linalg.cholesky(Psi)
    except np.linalg.LinAlgError:
        raise NumericalError("inverse-Wishart scale is not positive definite") from None
    A = np.zeros((q, q))
    A.flat[::q + 1] = np.sqrt(rng.chisquare(nu - np.arange(q)))
    if q > 1:
        A[_strict_lower(q)] = rng.standard_normal(q * (q - 1) // 2)
    M = _trtrs(A.T, Lp.T, lower=0, trans=1)[0]  # A M = Lp^T
    Sigma = M.T @ M
    return 0.5 * (Sigma + Sigma.T)


# ---------------------------------------------------------------------------
# state


class McmcState:
    """Current values of all sampled quantities plus the maintained whitened
    matrix V (columns L_j^{-1} of the centered data or latent field)."""

    def __init__(self, model, data, B, Delta=None, W=None):
        self.model = model
        self.data = data
        self.B = np.asarray(B, dtype=float)
        self.Delta = None if Delta is None else np.asarray(Delta, dtype=float)
        self.W = None if W is None else np.asarray(W, dtype=float)
        self.refresh_V()

    def gp_matrix(self):
        """The matrix the GP-IOX prior applies to: centered data (response
        model) or the latent field (latent model)."""
        if self.W is not None:
            return self.W
        return self.data.Y - self.data.X @ self.B

    def refresh_V(self):
        self.V = whiten_columns(self.gp_matrix(), self.model)

    def check_V(self, tol=1e-8):
        fresh = whiten_columns(self.gp_matrix(), self.model)
        return float(np.abs(fresh - self.V).max()) <= tol


# ---------------------------------------------------------------------------
# conjugate updates


def update_sigma(state, priors, rng):
    """Inverse-Wishart full-conditional draw of Sigma given the whitened
    columns state.V; posterior scale Psi + V^T V with df nu + n. Refreshes Q
    on the model."""
    V = state.V
    Sigma = draw_inverse_wishart(priors.sigma_df + V.shape[0],
                                 priors.sigma_scale + V.T @ V, rng)
    state.model.set_sigma(Sigma)
    return Sigma


def _beta_prior_vecs(priors, p, q):
    m0 = np.full(p * q, priors.beta_mean, dtype=float)
    prec0 = np.full(p * q, 1.0 / priors.beta_var, dtype=float)
    return m0, prec0


def _draw_gaussian_from_precision(P, rhs, rng):
    R = jittered_cholesky(P, "posterior precision for beta is not SPD after jitter")
    mean = _potrs(R, rhs, lower=1)[0]
    z = rng.standard_normal(P.shape[0])
    return mean + _trtrs(R.T, z, lower=0)[0]


def update_beta_response(state, priors, rng):
    """Exact Gaussian draw of beta in the response model. C^{-1} is applied
    through the per-outcome factors (never forming C): the posterior precision
    has (j, r) block Q_jr Xw_j^T Xw_r with Xw_j = L_j^{-1} X."""
    data, model = state.data, state.model
    p, q = data.p, data.q
    Xw = [model.factor_for(j).whiten(data.X) for j in range(q)]
    Vy = np.column_stack([model.factor_for(j).whiten(data.Y[:, j]) for j in range(q)])
    m0, prec0 = _beta_prior_vecs(priors, p, q)
    P = np.zeros((p * q, p * q))
    rhs = prec0 * m0
    VyQ = Vy @ model.Q
    for j in range(q):
        for r in range(j, q):
            blk = model.Q[j, r] * (Xw[j].T @ Xw[r])
            P[j * p:(j + 1) * p, r * p:(r + 1) * p] = blk
            if r > j:
                P[r * p:(r + 1) * p, j * p:(j + 1) * p] = blk.T
        rhs[j * p:(j + 1) * p] += Xw[j].T @ VyQ[:, j]
    P[np.diag_indices(p * q)] += prec0
    beta = _draw_gaussian_from_precision(P, rhs, rng)
    state.B = beta.reshape(q, p).T
    state.refresh_V()
    return state.B


def update_beta_latent(state, priors, rng):
    """Gaussian draw of beta in the latent model, conditioning on w and Delta."""
    data = state.data
    p, q = data.p, data.q
    m0, prec0 = _beta_prior_vecs(priors, p, q)
    P = np.zeros((p * q, p * q))
    rhs = prec0 * m0
    XtX = data.X.T @ data.X
    for j in range(q):
        sl = slice(j * p, (j + 1) * p)
        P[sl, sl] = XtX / state.Delta[j]
        rhs[sl] += data.X.T @ (data.Y[:, j] - state.W[:, j]) / state.Delta[j]
    P[np.diag_indices(p * q)] += prec0
    beta = _draw_gaussian_from_precision(P, rhs, rng)
    state.B = beta.reshape(q, p).T
    return state.B


def update_delta(state, priors, rng):
    """Independent inverse-gamma draws of the noise variances delta_jj with
    shape a + n/2 and scale b + ||y_j - X beta_j - w_j||^2 / 2."""
    data = state.data
    resid = data.Y - data.X @ state.B - state.W
    a_post = priors.delta_a + 0.5 * data.n
    b_post = priors.delta_b + 0.5 * (resid ** 2).sum(axis=0)
    state.Delta = b_post / rng.gamma(a_post, 1.0, size=data.q)
    return state.Delta


# ---------------------------------------------------------------------------
# kernel parameter updates


PARAM_NAMES = ("phi", "nu", "tau2")


def _bounds_for(priors, name):
    return getattr(priors, f"{name}_bounds")


def free_components(priors):
    """Names of kernel parameters whose prior box has positive width."""
    return [nm for nm in PARAM_NAMES if _bounds_for(priors, nm)[0] < _bounds_for(priors, nm)[1]]


def _log_prior_transformed(p, priors):
    """Log prior of a KernelParams in log-parameter space (Jacobian included);
    -inf outside the support boxes. tau2 is log-uniform, phi and nu uniform."""
    total = 0.0
    for nm in PARAM_NAMES:
        lo, hi = _bounds_for(priors, nm)
        v = getattr(p, nm)
        if v < lo or v > hi:
            return -math.inf
        if nm != "tau2":
            total += math.log(v)
    return total


class AdaptiveScale:
    """Robbins-Monro adaptation of a log step size toward a target acceptance."""

    def __init__(self, dim=1, target=0.44, init=-0.7):
        self.log_s = np.full(dim, float(init))
        self.target = target
        self.count = 0
        self.frozen = False

    def step(self, idx, alpha):
        if self.frozen:
            return
        self.count += 1
        gain = 1.0 / self.count ** 0.6
        self.log_s[idx] = np.clip(
            self.log_s[idx] + gain * (alpha - self.target), -10.0, 4.0
        )

    def scale(self, idx=0):
        return math.exp(self.log_s[idx])


class JointAdaptive:
    """Adaptive multivariate random-walk proposal: Robbins-Monro tuning of a
    global log scale toward the target acceptance, with the proposal shape
    taken from the running empirical covariance of the visited states once
    enough history has accumulated. Adaptation freezes at burn-in end."""

    def __init__(self, dim, target=0.23, init=-1.2):
        self.dim = dim
        self.target = target
        self.log_s = float(init)
        self.count = 0
        self.mean = np.zeros(dim)
        self.m2 = np.zeros((dim, dim))
        self._chol = None
        self.frozen = False

    def step_vector(self, rng):
        z = rng.standard_normal(self.dim)
        if self._chol is None:
            return math.exp(self.log_s) * 0.3 * z
        return math.exp(self.log_s) * (self._chol @ z)

    def update(self, alpha, x):
        if self.frozen:
            return
        self.count += 1
        gain = 1.0 / self.count ** 0.6
        self.log_s = float(np.clip(self.log_s + gain * (alpha - self.target),
                                   -8.0, 3.0))
        delta = x - self.mean
        self.mean += delta / self.count
        self.m2 += np.outer(delta, x - self.mean)
        if self.count >= 10 * self.dim and self.count % 25 == 0:
            cov = self.m2 / (self.count - 1)
            cov = (2.38 ** 2 / self.dim) * cov + 1e-9 * np.eye(self.dim)
            try:
                self._chol = np.linalg.cholesky(cov)
            except np.linalg.LinAlgError:
                self._chol = None


def _accept_prob(logr):
    return min(1.0, math.exp(min(logr, 0.0)))


def _new_counts():
    """Event counters of the kernel-parameter steps (see :func:`_two_stage_accept`)."""
    return {"theta_stage2_runs": 0, "theta_build_failures": 0}


def _two_stage_accept(rng, stage1, stage2, counts):
    """Metropolis decision on one symmetric proposal x -> y, with delayed
    acceptance when ``stage1`` is given (Christen & Fox 2005).

    ``stage1()`` returns the surrogate's log ratio log pi1(y) - log pi1(x)
    and ``stage2()`` the target's log pi(y) - log pi(x), both with the prior
    terms. Stage 1 accepts with min(1, pi1(y) / pi1(x)); only a survivor runs
    stage 2, which accepts with min(1, pi(y) pi1(x) / (pi(x) pi1(y))), so pi
    stays the stationary law. Without ``stage1`` the step is plain
    Metropolis on pi. A NumericalError (a factor that fails to build) rejects.

    Returns (accepted, alpha): alpha is the acceptance probability of the
    last stage that ran (0 after a stage-1 rejection or a failed build), so
    its mean is the overall acceptance rate. ``counts`` gains one
    ``theta_stage2_runs`` per proposal that reached stage 2 (every proposal
    on the single-stage path) and one ``theta_build_failures`` per
    NumericalError.
    """
    try:
        r1 = 0.0
        if stage1 is not None:
            r1 = stage1()
            if not rng.random() < _accept_prob(r1):
                return False, 0.0
        counts["theta_stage2_runs"] += 1
        r = stage2()
        alpha = _accept_prob(r - r1 if stage1 is not None else r)
        return rng.random() < alpha, alpha
    except NumericalError:
        counts["theta_build_failures"] += 1
        return False, 0.0


def _update_theta_componentwise(c, cols, target, state, priors, rng, scales,
                                counts=None):
    """Componentwise adaptive random-walk Metropolis on log(phi), log(nu),
    log(tau2) of component c.

    ``target(G, V)`` is the log density the moves are accepted against, given
    the GP matrix G and whitened columns V; ``cols`` are the outcome columns
    that component c whitens. The moves are single-stage
    (:func:`_two_stage_accept` without a surrogate, which also fills
    ``counts``). A factor that fails to build rejects the move. Returns the
    number of accepted component moves.
    """
    model, G = state.model, state.gp_matrix()
    counts = _new_counts() if counts is None else counts
    accepted = 0
    for idx, nm in enumerate(free_components(priors)):
        cur = model.theta[c]
        prop_val = math.exp(math.log(getattr(cur, nm))
                            + scales.scale(idx) * rng.standard_normal())
        lo, hi = _bounds_for(priors, nm)
        if prop_val < lo or prop_val > hi:
            scales.step(idx, 0.0)
            continue
        prop = replace(cur, **{nm: prop_val})
        lp_new = _log_prior_transformed(prop, priors)
        lp_old = _log_prior_transformed(cur, priors)
        val_old = target(G, state.V)
        old_factor = model.factors[c]
        V_try = state.V.copy()

        def stage2():
            f = model._build_factor(prop)
            model.set_theta(c, prop, f)
            for j in cols:
                V_try[:, j] = f.whiten(G[:, j])
            return target(G, V_try) - val_old + lp_new - lp_old

        ok, alpha = _two_stage_accept(rng, None, stage2, counts)
        if ok:
            state.V = V_try
            accepted += 1
        else:
            model.set_theta(c, cur, old_factor)
        scales.step(idx, alpha)
    return accepted


def update_theta_block(j, state, priors, rng, scales=None, counts=None):
    """Componentwise Metropolis on outcome j's kernel params, targeting
    p(y_j | y_{j^c}, theta) p(theta_j).

    Only valid when outcome j is the sole user of its component (the full,
    unclustered model). ``counts`` is a dict whose ``theta_stage2_runs`` and
    ``theta_build_failures`` entries are incremented (see
    :func:`_two_stage_accept`). Returns the number of accepted component
    moves and the component's params.
    """
    model = state.model
    c = int(model.assignments[j])
    if scales is None:
        scales = AdaptiveScale(dim=len(free_components(priors)))
    accepted = _update_theta_componentwise(
        c, [j], lambda G, V: conditional_loglik(j, V, model),
        state, priors, rng, scales, counts)
    return accepted, model.theta[c]


def _pack_log_theta(thetas, names):
    return np.array([math.log(getattr(p, nm)) for p in thetas for nm in names])


def _unpack_log_theta(x, thetas, names):
    vals = iter(x)
    return [replace(p, **{nm: math.exp(next(vals)) for nm in names})
            for p in thetas]


def update_theta_joint(state, priors, rng, scale=None, counts=None):
    """One joint adaptive RWM proposal over the stacked log parameters of all
    components, accepted against the full log-likelihood. When the model has
    surrogate factors the proposal is screened first against the
    log-likelihood under them (:func:`_two_stage_accept`), and only a
    survivor builds the full factors. ``counts`` is as in
    :func:`update_theta_block`. Returns the accept flag and the components'
    params."""
    model = state.model
    names = free_components(priors)
    counts = _new_counts() if counts is None else counts
    if scale is None:
        scale = JointAdaptive(dim=len(names) * model.k)
    cur = list(model.theta)
    x = _pack_log_theta(cur, names)
    x_prop = x + scale.step_vector(rng)
    try:
        prop = _unpack_log_theta(x_prop, cur, names)
        lp_new = sum(_log_prior_transformed(p, priors) for p in prop)
    except (ValidationError, OverflowError):
        lp_new = -math.inf
    if not np.isfinite(lp_new):
        scale.update(0.0, x)
        return False, model.theta
    lp_old = sum(_log_prior_transformed(p, priors) for p in cur)
    G = state.gp_matrix()
    new = {"s": [None] * len(prop)}

    def stage1():
        # the surrogate at the current state: Sigma, beta, W moved since the
        # last theta step, so the columns are whitened afresh
        cur1 = model.surrogate_factors
        ll1_old = loglik(G, model, whiten_columns(G, model, cur1), cur1)
        new["s"] = [model.surrogate_workspace.build(p) for p in prop]
        return loglik(G, model, None, new["s"]) - ll1_old + lp_new - lp_old

    def stage2():
        ll_old = loglik(G, model, state.V)
        new["f"] = [model._build_factor(p) for p in prop]
        new["V"] = whiten_columns(G, model, new["f"])
        return loglik(G, model, new["V"], new["f"]) - ll_old + lp_new - lp_old

    screened = model.surrogate_workspace is not None
    ok, alpha = _two_stage_accept(rng, stage1 if screened else None, stage2, counts)
    if ok:
        for c, p in enumerate(prop):
            model.set_theta(c, p, new["f"][c], new["s"][c])
        state.V = new["V"]
        scale.update(alpha, x_prop)
    else:
        scale.update(alpha, x)
    return ok, model.theta


def update_cluster_assignments(state, rng):
    """Sequential Gibbs scan over outcomes: each pi(j) is drawn from the
    discrete full conditional over the k components, evaluated through the
    single-outcome conditional density under each candidate factor."""
    model, G = state.model, state.gp_matrix()
    n, q, k = model.n, model.q, model.k
    Q = model.Q
    sld = np.array([f.sum_log_diag() for f in model.factors])
    for j in range(q):
        base = state.V @ Q[j] - Q[j, j] * state.V[:, j]
        logits = np.empty(k)
        cands = []
        for c in range(k):
            vjc = model.factors[c].whiten(G[:, j])
            u = base + Q[j, j] * vjc
            logits[c] = 0.5 * n * math.log(Q[j, j]) + sld[c] \
                - float(u @ u) / (2.0 * Q[j, j])
            cands.append(vjc)
        if not np.any(np.isfinite(logits)):
            raise NumericalError(f"all cluster candidates non-finite for outcome {j}")
        w = np.exp(logits - logits.max())
        w /= w.sum()
        c_new = int(np.searchsorted(np.cumsum(w), rng.random()))
        c_new = min(c_new, k - 1)
        model.assignments[j] = c_new
        state.V[:, j] = cands[c_new]
    return model.assignments


# ---------------------------------------------------------------------------
# latent-field updates


def pcg_solve(matvec, b, diag, tol=1e-8, maxiter=None):
    """Conjugate gradients for A x = b with the Jacobi preconditioner diag(A).

    Stops when ||r|| < tol * ||b|| (at most maxiter steps, default 5n);
    raises NumericalError, reporting the residual norm, if that is not met.
    """
    # imported on first use: it adds ~3 MB of resident memory to every run
    import scipy.sparse.linalg as spla
    n = len(b)
    A = spla.LinearOperator((n, n), matvec=matvec, dtype=float)
    M = spla.LinearOperator((n, n), matvec=lambda r: r / diag, dtype=float)
    x, info = spla.cg(A, b, rtol=tol, atol=0.0, M=M,
                      maxiter=5 * n if maxiter is None else maxiter)
    if info:
        res = float(np.linalg.norm(b - matvec(x)))
        raise NumericalError(f"PCG did not converge in {info} iterations: "
                             f"residual norm {res:.3e}")
    return x


def update_w_single_outcome(j, state, rng):
    """Draw the full latent column w_j from its Gaussian full conditional with
    precision Q_jj rho_j(S)^{-1} + I_n / delta_jj.

    The prior-side mean term is -L_j^{-T} W~_{j^c} Q_{j^c, j}; a fresh draw is
    obtained by solving against a perturbed right-hand side so the solution is
    an exact sample (up to solver tolerance).
    """
    data, model = state.data, state.model
    f = model.factor_for(j)
    Q = model.Q
    qjj = Q[j, j]
    delta = state.Delta[j]
    n = data.n
    s = state.V @ Q[:, j] - qjj * state.V[:, j]
    b_prior = -f.whiten_t(s)
    yc = data.Y[:, j] - data.X @ state.B[:, j]
    rhs = b_prior + yc / delta
    z1 = rng.standard_normal(n)
    z2 = rng.standard_normal(n)
    perturb = math.sqrt(qjj) * f.whiten_t(z1) + z2 / math.sqrt(delta)
    if model.is_vecchia:
        def matvec(x):
            return qjj * f.whiten_t(f.whiten(x)) + x / delta
        diag = qjj * f.col_sq + 1.0 / delta
        w_j = pcg_solve(matvec, rhs + perturb, diag)
    else:
        A = qjj * f.precision + np.eye(n) / delta
        w_j = sla.cho_solve(sla.cho_factor(A, lower=True), rhs + perturb)
    state.W[:, j] = w_j
    state.V[:, j] = f.whiten(w_j)
    return w_j


def _site_class(indptr, indices, sites):
    """Gather arrays of a set of DAG positions: (sites, slots, rows, owners,
    starts). ``slots`` lists the csc entries of the sites' columns one site
    after another, ``rows`` their support rows, ``owners`` the index in
    ``sites`` of each slot, and ``starts`` the first slot of each site (the
    np.add.reduceat offsets; every column holds at least its own row)."""
    lens = indptr[sites + 1] - indptr[sites]
    starts = np.concatenate([[0], np.cumsum(lens)[:-1]])
    slots = np.arange(int(lens.sum())) + np.repeat(indptr[sites] - starts, lens)
    owners = np.repeat(np.arange(len(sites)), lens)
    return sites, slots, indices[slots], owners, starts


class SiteSweep:
    """Precomputed structure for chromatic single-site latent updates.

    Every factor of a model comes from its one workspace and shares one
    sparsity pattern. The support of column i is node i and its children, and
    w(l_i) enters the whitened columns only at those rows, so two sites whose
    supports are disjoint (neither is a parent of the other and they share no
    child) are conditionally independent given the rest of w. A greedy
    colouring of this moral graph of the DAG, B B^T with B the site x
    support-row incidence, is built once; each colour class is then one
    batched Gibbs step (Gonzalez et al. 2011, chromatic Gibbs). Per iteration
    only the numeric column values are re-gathered.
    """

    def __init__(self, model):
        if not model.is_vecchia:
            raise ValidationError("single-site updates require the Vecchia path")
        f0 = model.factor_for(0)
        indptr, indices, _ = f0.column_blocks()
        self.indptr, self.indices = indptr.copy(), indices.copy()
        self.order = f0.order
        n = model.n
        B = sp.csr_matrix((np.ones(len(indices)), indices, indptr), shape=(n, n))
        A = (B @ B.T).tocsr()
        colour = np.full(n, -1)
        for i in range(n):  # greedy, in DAG order: the smallest colour unused
            taken = set(colour[A.indices[A.indptr[i]:A.indptr[i + 1]]].tolist())
            colour[i] = next(c for c in range(n) if c not in taken)
        self.classes = [_site_class(self.indptr, self.indices, np.flatnonzero(colour == c))
                        for c in range(colour.max() + 1)]
        self.refresh(model)

    def refresh(self, model):
        """Re-gather column values after any factor rebuild, and form every
        site's M M^T (M the q x |support| column values of the q factors)."""
        # (q, nnz) csc-ordered
        self.coldata = np.vstack([model.factor_for(j).column_blocks()[2]
                                  for j in range(model.q)])
        C = self.coldata.T
        self.mmt = np.add.reduceat(C[:, :, None] * C[:, None, :], self.indptr[:-1],
                                   axis=0)                          # (n, q, q)


def _update_site_class(cls, state, rng, sweep, Up, E):
    """Draw w at every site of one class from the sites' full conditionals;
    the sites' supports must be disjoint, so the draws are independent given
    the rest of w. Writes the draws into state.W and their effect into Up;
    returns the (|class|, q) draws."""
    sites, slots, rows, owners, starts = cls
    Q = state.model.Q
    M = sweep.coldata[:, slots].T        # (slots, q): [k, r] = G_r[rows[k], site]
    P = Q * sweep.mmt[sites]             # (c, q, q): P(i, i) of each site
    # row block of P @ w at each site: [c, r] = sum_s Q_rs G_r[:, i] . U_s
    pw = np.add.reduceat(M * (Up[rows] @ Q), starts)
    idx = sweep.order[sites]
    w = state.W[idx]
    b = E[sites] / state.Delta - pw + np.einsum("crs,cs->cr", P, w)
    L = np.linalg.cholesky(P + np.diag(1.0 / state.Delta))
    z = rng.standard_normal(b.shape)
    # mean + L^{-T} z = L^{-T} (L^{-1} b + z)
    y = np.linalg.solve(L, b[:, :, None])[:, :, 0]
    draw = np.linalg.solve(L.transpose(0, 2, 1), (y + z)[:, :, None])[:, :, 0]
    state.W[idx] = draw
    Up[rows] += M * (draw - w)[owners]   # rows of one class never repeat
    return draw


def update_w_single_site(i, state, rng, sweep=None, Up=None, E=None):
    """Draw the q-vector w(l_i) (i a DAG position) from its full conditional
    using the Markov blanket: the conditional precision is
    P(i, i) + Delta^{-1} with P(i, i) = Q hadamard [G_r[:, i]^T G_s[:, i]].

    Standalone calls build the support structure on the fly; callers that
    pass the precomputed pieces (sweep, permuted whitened matrix Up, permuted
    centered data E) must keep them consistent.
    """
    standalone = sweep is None
    if standalone:
        sweep = SiteSweep(state.model)
        Up = state.V[sweep.order]
        E = (state.data.Y - state.data.X @ state.B)[sweep.order]
    one = _site_class(sweep.indptr, sweep.indices, np.array([i]))  # a class of one site
    draw = _update_site_class(one, state, rng, sweep, Up, E)[0]
    if standalone:
        state.V[sweep.order] = Up
    return draw


def sweep_w_sites(state, rng, sweep):
    """One full single-site Gibbs sweep: the colour classes in colour order,
    each class one batched draw."""
    Up = state.V[sweep.order]
    E = (state.data.Y - state.data.X @ state.B)[sweep.order]
    for cls in sweep.classes:
        _update_site_class(cls, state, rng, sweep, Up, E)
    state.V[sweep.order] = Up


# ---------------------------------------------------------------------------
# chain driver


class Chain:
    """Stored draws plus acceptance and timing metadata."""

    def __init__(self, draws, acceptance, timings, meta, w_draws=None,
                 w_draw_iters=None, zero_corr=None, zero_corr_iters=None):
        self.draws = draws
        self.acceptance = acceptance
        self.timings = timings
        self.meta = meta
        self.w_draws = w_draws
        self.w_draw_iters = w_draw_iters
        self.zero_corr = zero_corr
        self.zero_corr_iters = zero_corr_iters


def _init_theta(priors, free):
    vals = {}
    for nm in PARAM_NAMES:
        lo, hi = _bounds_for(priors, nm)
        vals[nm] = math.exp(0.5 * (math.log(lo) + math.log(hi))) if nm in free else lo
    return KernelParams(**vals)


def _profile_loglik_init(resid, S, priors, free, order_seed=0):
    """Deterministic starting values from a coarse per-outcome grid search.

    For each outcome, the univariate Vecchia log-likelihood with the sill
    profiled out is maximized over a small (phi, nu, tau2) grid; the whitened
    columns under those kernels then give a moment estimate of Sigma. This
    lands the chain near the posterior mode, which matters because the
    (theta_j, sigma_jj) pairs are strongly coupled.
    """
    from .geom import build_nn_dag
    from .vecchia import VecchiaWorkspace
    n, q = resid.shape
    m0 = min(10, n - 1)
    dag = build_nn_dag(S, m0, "random", order_seed)
    ws = VecchiaWorkspace(dag)

    def axis(nm, count, log=True):
        lo, hi = _bounds_for(priors, nm)
        if nm not in free:
            return [lo]
        if log:
            return list(np.geomspace(lo * 1.2, hi / 1.2, count))
        return list(np.linspace(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo), count))

    grid = [KernelParams(phi=p, nu=v, tau2=t)
            for p in axis("phi", 6) for v in axis("nu", 5, log=False)
            for t in axis("tau2", 3)]
    best = [None] * q      # per outcome: (ll, p, v), scored as each factor is built
    for p in grid:
        try:
            G = ws.build(p)
        except NumericalError:
            continue
        for j in range(q):
            v = G.whiten(resid[:, j])
            rss = float(v @ v)
            ll = G.sum_log_diag() - 0.5 * n * math.log(max(rss / n, 1e-300))
            if best[j] is None or ll > best[j][0]:
                best[j] = (ll, p, v)
    thetas = [b[1] for b in best]
    V = np.column_stack([b[2] for b in best])
    Sigma = V.T @ V / n
    Sigma = 0.5 * (Sigma + Sigma.T) + 1e-4 * np.trace(Sigma) / q * np.eye(q)
    return thetas, Sigma


def _init_sigma(resid):
    q = resid.shape[1]
    if resid.shape[0] > q + 1:
        Sig = np.cov(resid, rowvar=False)
        Sig = np.atleast_2d(Sig) + 1e-4 * np.eye(q) * max(np.trace(np.atleast_2d(Sig)) / q, 1e-8)
        try:
            np.linalg.cholesky(Sig)
            return Sig
        except np.linalg.LinAlgError:
            pass
    return np.eye(q)


def _initial_state(config, data, S, priors, free):
    """Starting model and state: least-squares beta, then kernel params and
    Sigma from the profile grid search (full mode) or the prior box."""
    n, q = data.n, data.q
    latent = config.model == "latent"
    B0 = np.linalg.lstsq(data.X, data.Y, rcond=None)[0]
    resid0 = data.Y - data.X @ B0
    assignments = None
    if config.theta_mode == "full":
        if free and n > 2 * q:
            thetas, Sigma0 = _profile_loglik_init(resid0, S, priors, free,
                                                  order_seed=config.seed)
        else:
            thetas, Sigma0 = [_init_theta(priors, free)] * q, _init_sigma(resid0)
    else:
        if config.theta_mode == "grid":
            thetas = config.grid_thetas(priors)
        else:
            thetas = [_init_theta(priors, free)] * config.cluster_k1
        Sigma0 = _init_sigma(resid0)
        assignments = np.arange(q) % len(thetas)
    model = IoxModel(S, thetas, Sigma0, m=config.vecchia_m,
                     assignments=assignments, order_seed=config.seed,
                     order_scheme=config.order_scheme)
    return McmcState(model, data, B0,
                     Delta=(0.1 * resid0.var(axis=0).clip(1e-6) if latent else None),
                     W=(resid0.copy() if latent else None))


class Sampler:
    """One MCMC chain: the state, the adaptation scales, the draw buffers and
    the named steps of one scan.

    Scan order: theta (not for a fixed grid of kernels, nor when every prior
    box has zero width), cluster assignments
    pi (clustered and grid kernels), Sigma, beta, then for the latent model
    the w sweep and Delta, then the store step. ``run`` times each step under
    its name in ``timings`` (``init`` is the set-up) and reports a
    NumericalError with the iteration and step it came from. The steps call the module-level update
    functions by name at call time, so wrappers bound over them take effect.
    """

    def __init__(self, config, data, S):
        t0 = time.perf_counter()
        self.config, self.data = config, data
        self.rng = np.random.default_rng(config.seed)
        self.priors = config.priors(S, data.q)
        self.free = free_components(self.priors)
        self.latent = config.model == "latent"
        self.state = _initial_state(config, data, S, self.priors, self.free)
        self.model = model = self.state.model
        k, q, p = model.k, data.q, data.p

        self.theta_update = config.theta_update
        if self.theta_update == "auto":
            self.theta_update = "joint" if (config.theta_mode == "full" and q <= 4) else "block"
        self.joint_scale = JointAdaptive(dim=max(1, len(self.free) * k), target=0.23)
        self.block_scales = [AdaptiveScale(dim=len(self.free), target=0.44)
                             for _ in range(k)]
        self.sweep = SiteSweep(model) if self.latent and config.w_update == "site" else None

        # stored iterations are burn, burn + thin, ... below iters
        n_stored = len(range(config.burn, config.iters, config.thin))
        shapes = {"beta": (p, q), "sigma": (q, q), "theta": (q, 3), "pi": (q,), "loglik": ()}
        if self.latent:
            shapes["delta"] = (q,)
        self.draws = {nm: np.empty((n_stored,) + sh, dtype=int if nm == "pi" else float)
                      for nm, sh in shapes.items()}
        def every(count):  # keep every k-th stored draw, about count in all
            return max(1, -(-n_stored // count)) if count > 0 and n_stored > 0 else None
        self.w_every = every(config.store_w) if self.latent else None
        self.zc_every = every(config.zero_corr_draws)
        self.w_draws, self.w_iters, self.zc_draws, self.zc_iters = [], [], [], []
        self.stored = 0
        self.acc = {"theta_proposals": 0, "theta_accepts": 0,
                    "block_proposals": np.zeros(k, dtype=int),
                    "block_accepts": np.zeros(k, dtype=int), **_new_counts()}

        self.steps = []
        if config.theta_mode != "grid" and self.free:
            self.steps.append(("theta", self.theta_joint if self.theta_update == "joint"
                               else self.theta_components))
        if config.theta_mode != "full":
            self.steps.append(("pi", self.pi))
        self.steps += [("sigma", self.sigma), ("beta", self.beta)]
        if self.latent:
            self.steps += [("w", self.w), ("delta", self.delta)]
        self.steps.append(("store", self.store))
        self.timings = dict.fromkeys(
            ("theta", "sigma", "beta", "w", "delta", "pi", "store"), 0.0)
        self.timings["init"] = time.perf_counter() - t0

    # -- steps ---------------------------------------------------------------

    def theta_joint(self):
        ok, _ = update_theta_joint(self.state, self.priors, self.rng,
                                   scale=self.joint_scale, counts=self.acc)
        self.acc["theta_proposals"] += 1
        self.acc["theta_accepts"] += int(ok)

    def theta_components(self):
        """Componentwise moves on each component c: against outcome c's
        conditional density in the full model (where c is outcome c's sole
        component), against the joint likelihood of c's members otherwise."""
        model, acc, n_free = self.model, self.acc, len(self.free)
        for c in range(model.k):
            if self.config.theta_mode == "full":
                a, _ = update_theta_block(c, self.state, self.priors, self.rng,
                                          scales=self.block_scales[c], counts=acc)
            else:
                a = _update_theta_componentwise(
                    c, np.flatnonzero(model.assignments == c),
                    lambda G, V: loglik(G, model, V),
                    self.state, self.priors, self.rng, self.block_scales[c], acc)
            acc["theta_proposals"] += n_free
            acc["theta_accepts"] += a
            acc["block_proposals"][c] += n_free
            acc["block_accepts"][c] += a

    def pi(self):
        update_cluster_assignments(self.state, self.rng)

    def sigma(self):
        update_sigma(self.state, self.priors, self.rng)

    def beta(self):
        update = update_beta_latent if self.latent else update_beta_response
        update(self.state, self.priors, self.rng)

    def w(self):
        if self.sweep is not None:
            self.sweep.refresh(self.model)
            sweep_w_sites(self.state, self.rng, self.sweep)
            return
        for j in range(self.data.q):
            update_w_single_outcome(j, self.state, self.rng)

    def delta(self):
        update_delta(self.state, self.priors, self.rng)

    def store(self):
        burn, it = self.config.burn, self.it
        if it < burn or (it - burn) % self.config.thin:
            return
        state, model, d, s = self.state, self.model, self.draws, self.stored
        d["beta"][s] = state.B
        d["sigma"][s] = model.Sigma
        d["theta"][s] = [[getattr(model.params_for(j), nm) for nm in PARAM_NAMES]
                         for j in range(model.q)]
        d["pi"][s] = model.assignments
        d["loglik"][s] = loglik(state.gp_matrix(), model, state.V)
        if self.latent:
            d["delta"][s] = state.Delta
        if self.w_every is not None and s % self.w_every == 0:
            self.w_draws.append(state.W.copy())
            self.w_iters.append(s)
        if self.zc_every is not None and s % self.zc_every == 0:
            self.zc_draws.append(zero_distance_cross_corr(model))
            self.zc_iters.append(s)
        self.stored += 1

    # -- driver --------------------------------------------------------------

    def run(self):
        """Run every iteration and return the Chain."""
        for it in range(self.config.iters):
            self.it = it
            for name, step in self.steps:
                t0 = time.perf_counter()
                try:
                    step()
                except NumericalError as e:
                    raise NumericalError(
                        f"iteration {it}, component {name}: {e}") from e
                self.timings[name] += time.perf_counter() - t0
            if it == self.config.burn - 1:  # adaptation ends with burn-in
                self.joint_scale.frozen = True
                for sc in self.block_scales:
                    sc.frozen = True

        # scan-invariant sanity: Sigma stayed SPD, Delta positive
        np.linalg.cholesky(self.model.Sigma)
        if self.latent and np.any(self.state.Delta <= 0):
            raise NumericalError("negative noise variance in final state")

        config, data, acc = self.config, self.data, self.acc
        meta = {
            "n": data.n, "q": data.q, "p": data.p, "iters": config.iters,
            "burn": config.burn, "thin": config.thin, "seed": config.seed,
            "model": config.model, "theta_mode": config.theta_mode,
            "theta_update": self.theta_update, "vecchia_m": config.vecchia_m,
            "n_draws": self.stored,
            "acceptance_rate": (acc["theta_accepts"] / acc["theta_proposals"]
                                if acc["theta_proposals"] else float("nan")),
        }

        def stack(xs, dtype=None):
            return np.array(xs, dtype=dtype) if xs else None
        return Chain(self.draws, acc, self.timings, meta,
                     w_draws=stack(self.w_draws), w_draw_iters=stack(self.w_iters, int),
                     zero_corr=stack(self.zc_draws),
                     zero_corr_iters=stack(self.zc_iters, int))


def run_chain(config, data, S):
    """Run one MCMC chain per the validated RunConfig; deterministic given the
    seed. See :class:`Sampler` for the scan."""
    return Sampler(config, data, S).run()
