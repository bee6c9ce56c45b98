"""spiox: multivariate spatial Gaussian processes with inside-out
cross-covariance.

Core entry points: build an :class:`IoxModel` over a reference location set,
evaluate cross-covariances and likelihoods, run MCMC with
:func:`spiox.inference.run_chain`, and predict or simulate with
:mod:`spiox.predict`. The ``spiox`` console script wraps the same machinery
for CSV datasets.
"""

from .errors import NumericalError, ValidationError
from .geom import LocationSet, NeighborDag, build_nn_dag, nearest_neighbors, order_locations
from .kernels import KernelParams, corr_matrix, matern
from .vecchia import SparseInvChol, VecchiaWorkspace, dense_chol_factor
from .ioxcore import (IoxModel, OutcomeMatrix, avg_cross_corr, conditional_loglik,
                      cross_cov_point, cross_cov_set, h_and_r, loglik,
                      matern_zero_cross_corr, zero_distance_cross_corr)
from .inference import (Chain, McmcState, Priors, default_priors,
                        draw_inverse_wishart, run_chain, update_beta_response,
                        update_cluster_assignments, update_delta, update_sigma,
                        update_theta_joint,
                        update_w_single_outcome, update_w_single_site)
from .predict import (PosteriorDraw, PredictionRequest, posterior_predictive,
                      predict_full, predict_partial,
                      simulate_prior_nonreference, simulate_prior_reference)
from .config import RunConfig, load_config, parse_config

__version__ = "0.1.0"

__all__ = [
    "Chain", "IoxModel", "KernelParams", "LocationSet", "McmcState",
    "NeighborDag", "NumericalError", "OutcomeMatrix", "PosteriorDraw",
    "PredictionRequest", "Priors", "RunConfig", "SparseInvChol",
    "ValidationError",
    "VecchiaWorkspace", "avg_cross_corr", "build_nn_dag",
    "conditional_loglik", "corr_matrix",
    "cross_cov_point", "cross_cov_set", "default_priors", "dense_chol_factor",
    "draw_inverse_wishart", "h_and_r", "load_config", "loglik", "matern",
    "matern_zero_cross_corr", "nearest_neighbors", "order_locations",
    "parse_config", "posterior_predictive", "predict_full", "predict_partial",
    "run_chain", "simulate_prior_nonreference", "simulate_prior_reference",
    "update_beta_response", "update_cluster_assignments",
    "update_delta", "update_sigma", "update_theta_joint",
    "update_w_single_outcome", "update_w_single_site",
    "zero_distance_cross_corr",
]
