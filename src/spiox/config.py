"""Run configuration: a flat key = value text format and its validation.

Example::

    model = response
    theta_mode = full
    vecchia_m = 15
    iters = 5000
    burn = 2500
    thin = 1
    seed = 42
    prior.nu = 0.25, 3

Unknown keys are rejected so typos surface immediately.
"""

from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ValidationError
from .kernels import KernelParams


def _parse_floats(s):
    return [float(v) for v in str(s).replace(";", ",").split(",") if v.strip() != ""]


def _parse_matrix(s):
    rows = [r for r in str(s).split(";") if r.strip() != ""]
    M = np.array([[float(v) for v in r.split(",")] for r in rows])
    return M


@dataclass
class RunConfig:
    """Validated settings for simulation, fitting, and prediction."""

    model: str = "response"
    theta_mode: str = "full"
    cluster_k1: int = 1
    grid_nu_values: list = field(default_factory=list)
    grid_phi: float = None
    grid_tau2: float = None
    vecchia_m: int = 15
    iters: int = 2000
    burn: int = 1000
    thin: int = 1
    seed: int = 0
    threads: int = 1
    chains: int = 1
    w_update: str = "outcome"
    store_w: int = 200
    zero_corr_draws: int = 128
    order_scheme: str = "random"
    # prior overrides; None keeps the domain-scaled defaults
    prior_phi: tuple = None
    prior_nu: tuple = (0.25, 3.0)
    prior_tau2: tuple = (1e-6, 1.0)
    prior_sigma_df: float = None
    prior_sigma_scale: float = 1.0
    prior_delta_a: float = 2.0
    prior_delta_b: float = 1.0
    prior_beta_mean: float = 0.0
    prior_beta_var: float = 100.0
    # simulation block
    sim_n: int = 500
    sim_q: int = 3
    sim_d: int = 2
    sim_phi: list = field(default_factory=lambda: [30.0, 30.0, 30.0])
    sim_nu: list = field(default_factory=lambda: [0.5, 0.8, 1.2])
    sim_tau2: list = field(default_factory=lambda: [1e-3, 1e-3, 1e-3])
    sim_sigma: np.ndarray = None
    sim_vecchia_m: int = 0
    sim_domain: tuple = (0.0, 1.0)

    def validate(self):
        if self.model not in ("response", "latent"):
            raise ValidationError(f"model must be response or latent, got {self.model}")
        if self.theta_mode not in ("full", "grid", "cluster"):
            raise ValidationError(f"bad theta_mode {self.theta_mode}")
        if self.w_update not in ("outcome", "site"):
            raise ValidationError(f"bad w_update {self.w_update}")
        if self.order_scheme not in ("random", "coordinate-sum"):
            raise ValidationError(f"bad order_scheme {self.order_scheme}")
        if self.iters < 0 or self.burn < 0:
            raise ValidationError("iters and burn must be >= 0")
        # burn == iters is allowed and yields an empty draw set
        if self.burn > self.iters:
            raise ValidationError("burn must be <= iters")
        if self.thin < 1:
            raise ValidationError("thin must be >= 1")
        if self.chains < 1 or self.threads < 1:
            raise ValidationError("chains and threads must be >= 1")
        if self.vecchia_m < 0:
            raise ValidationError("vecchia_m must be >= 0")
        if self.cluster_k1 < 1:
            raise ValidationError("cluster.k1 must be >= 1")
        if self.theta_mode == "grid" and not self.grid_nu_values:
            raise ValidationError("grid mode needs grid.nu_values")
        if self.sim_sigma is not None:
            S = np.asarray(self.sim_sigma, dtype=float)
            if S.ndim != 2 or S.shape[0] != S.shape[1]:
                raise ValidationError("sim.sigma must be square")
            if not np.allclose(S, S.T):
                raise ValidationError("sim.sigma must be symmetric")
            try:
                np.linalg.cholesky(S)
            except np.linalg.LinAlgError:
                raise ValidationError("sim.sigma must be positive definite")
        return self

    def priors(self, S, q):
        from .inference import default_priors
        pr = default_priors(S, q)
        if self.prior_phi is not None:
            pr.phi_bounds = tuple(self.prior_phi)
        pr.nu_bounds = tuple(self.prior_nu)
        pr.tau2_bounds = tuple(self.prior_tau2)
        if self.prior_sigma_df is not None:
            pr.sigma_df = self.prior_sigma_df
        pr.sigma_scale = self.prior_sigma_scale * np.eye(q)
        pr.delta_a = self.prior_delta_a
        pr.delta_b = self.prior_delta_b
        pr.beta_mean = self.prior_beta_mean
        pr.beta_var = self.prior_beta_var
        return pr.validate(q)

    def grid_thetas(self, priors):
        phi = self.grid_phi if self.grid_phi is not None else \
            float(np.exp(0.5 * (np.log(priors.phi_bounds[0]) + np.log(priors.phi_bounds[1]))))
        tau2 = self.grid_tau2 if self.grid_tau2 is not None else 1e-3
        return [KernelParams(phi=phi, nu=float(nu), tau2=tau2)
                for nu in self.grid_nu_values]

    def sim_kernels(self):
        q = self.sim_q
        phi, nu, tau2 = self.sim_phi, self.sim_nu, self.sim_tau2
        if len(phi) == 1:
            phi = phi * q
        if len(nu) == 1:
            nu = nu * q
        if len(tau2) == 1:
            tau2 = tau2 * q
        if not (len(phi) == len(nu) == len(tau2) == q):
            raise ValidationError("sim.phi / sim.nu / sim.tau2 must have length sim.q")
        return [KernelParams(phi=phi[j], nu=nu[j], tau2=tau2[j]) for j in range(q)]

    def sim_sigma_matrix(self):
        if self.sim_sigma is not None:
            return np.asarray(self.sim_sigma, dtype=float)
        return np.eye(self.sim_q)

    def echo(self):
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, np.ndarray):
                v = v.tolist()
            out[f.name] = v
        return out


def _parse_pair(s):
    v = _parse_floats(s)
    if len(v) != 2:
        raise ValueError(f"needs exactly two values, got {len(v)}")
    return tuple(v)


# a key is its field's name, with the first "_" of a grouped field a "."
_GROUPS = ("prior", "sim", "grid", "cluster")
_CONVERTERS = {int: int, float: float, str: str, list: _parse_floats,
               tuple: _parse_pair, np.ndarray: _parse_matrix}
_KEYMAP = {
    (f.name.replace("_", ".", 1) if f.name.split("_", 1)[0] in _GROUPS else f.name):
        (f.name, _CONVERTERS[f.type])
    for f in fields(RunConfig)
}


def parse_config(text):
    """Parse flat key = value text into a validated RunConfig."""
    cfg = RunConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"config line {lineno}: expected key = value, got {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in _KEYMAP:
            raise ValidationError(f"config line {lineno}: unknown key {key!r}")
        attr, conv = _KEYMAP[key]
        try:
            setattr(cfg, attr, conv(val))
        except Exception as e:
            raise ValidationError(f"config line {lineno}: bad value for {key}: {e}")
    return cfg.validate()


def load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
