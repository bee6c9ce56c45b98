"""Co-kriging: predicting held-out outcomes using the observed ones.

Fits the response model on training sites, then at each test site reveals two
of the three outcomes and predicts the third. Compares the root mean squared
prediction error against (a) full-vector prediction (no outcomes revealed)
and (b) the non-spatial intercept-only baseline.

Run:  python demos/04_cokriging_prediction.py

It takes about 70 s on one core of a 2-vCPU Xeon VM: about 60 s for the
2000-iteration fit and about 7 s for the two prediction passes (150 draws x
120 sites each).
"""

import numpy as np

from spiox import (IoxModel, KernelParams, LocationSet, OutcomeMatrix,
                   PosteriorDraw, PredictionRequest, RunConfig,
                   posterior_predictive, run_chain, simulate_prior_reference)

rng = np.random.default_rng(12)
n_train, n_test, q = 400, 120, 3
S_all = LocationSet(rng.uniform(0, 1, size=(n_train + n_test, 2)))
truth = [KernelParams(30.0, 0.5, 1e-3), KernelParams(30.0, 0.8, 1e-3),
         KernelParams(30.0, 1.2, 1e-3)]
Sigma = np.array([[1.0, -0.9, 0.7], [-0.9, 1.0, -0.5], [0.7, -0.5, 1.0]])
Y_all = simulate_prior_reference(IoxModel(S_all, truth, Sigma, m=0), rng)

S = LocationSet(S_all.coords[:n_train])
Y = Y_all[:n_train]
T = S_all.coords[n_train:]
Y_test = Y_all[n_train:]

config = RunConfig(model="response", vecchia_m=15,
                   iters=2000, burn=1000, seed=5, zero_corr_draws=0).validate()
data = OutcomeMatrix(Y)
chain = run_chain(config, data, S)

# rebuild posterior draws (thinned) for the prediction pass
keep = np.linspace(0, chain.meta["n_draws"] - 1, 150).astype(int)
draws = [PosteriorDraw(B=chain.draws["beta"][i], Sigma=chain.draws["sigma"][i],
                       theta=[KernelParams(*chain.draws["theta"][i, j])
                              for j in range(q)])
         for i in keep]
model = IoxModel(S, draws[0].theta, draws[0].Sigma, m=15, order_seed=5)
X_T = np.ones((n_test, 1))

# full-vector prediction
pred_full = posterior_predictive(PredictionRequest(T, X_T=X_T), draws, data, model,
                                 np.random.default_rng(1)).mean(axis=0)

# partial: reveal outcomes 1 and 2, predict outcome 3
y_obs = Y_test.copy()
y_obs[:, 2] = np.nan
pred_part = posterior_predictive(PredictionRequest(T, X_T=X_T, y_obs=y_obs), draws,
                                 data, model, np.random.default_rng(2)).mean(axis=0)


def rmspe(est, truth_vals):
    return float(np.sqrt(np.mean((est - truth_vals) ** 2)))


baseline = rmspe(np.tile(Y.mean(axis=0), (n_test, 1))[:, 2], Y_test[:, 2])
print("predicting outcome 3 at held-out sites:")
print(f"  non-spatial (training mean):      RMSPE = {baseline:.3f}")
print(f"  spatial, full-vector prediction:  RMSPE = {rmspe(pred_full[:, 2], Y_test[:, 2]):.3f}")
print(f"  co-kriging on outcomes 1 and 2:   RMSPE = {rmspe(pred_part[:, 2], Y_test[:, 2]):.3f}")
print("\nrevealing correlated outcomes at the site sharpens the prediction"
      "\n(the conditional variance drops from r_3 * sigma_33 to r_3 / Q_33).")
