"""End-to-end CLI tests: simulate / fit / predict / summarize round trips."""

import json
import os
from dataclasses import fields

import numpy as np
import pytest

from spiox.cli import main
from spiox.config import RunConfig, parse_config
from spiox.dataio import (ess, read_dataset, read_mixed, read_table,
                          summary_rows, write_dataset)
from spiox.errors import ValidationError


def write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


SIM_CFG = """
# trivariate toy settings
seed = 11
sim.n = 60
sim.q = 3
sim.phi = 30
sim.nu = 0.5, 0.8, 1.2
sim.tau2 = 1e-3
sim.sigma = 1, -0.9, 0.7; -0.9, 1, -0.5; 0.7, -0.5, 1
"""

FIT_CFG = """
model = response
theta_mode = full
theta_update = joint
vecchia_m = 8
iters = 10
burn = 5
thin = 1
seed = 3
zero_corr_draws = 5
"""


@pytest.fixture
def sim_file(tmp_path):
    cfg = tmp_path / "sim.cfg"
    write(cfg, SIM_CFG)
    out = tmp_path / "data.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    return out


class TestSimulate:
    def test_writes_dataset_and_truth(self, sim_file, tmp_path):
        coords, Y, X, names = read_dataset(sim_file)
        assert coords.shape[0] == 60 and Y.shape == (60, 3) and X is None
        assert names == ["y_1", "y_2", "y_3"]
        truth = json.loads((str(sim_file) + ".truth.json",))[0] if False else \
            json.load(open(str(sim_file) + ".truth.json"))
        assert truth["nu"] == [0.5, 0.8, 1.2]
        assert len(truth["zero_corr"]) == 3

    def test_single_row(self, tmp_path):
        cfg = tmp_path / "one.cfg"
        write(cfg, "seed = 1\nsim.n = 1\nsim.q = 2\nsim.phi = 5\n"
                   "sim.nu = 1\nsim.tau2 = 0\n")
        out = tmp_path / "one.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        coords, Y, _, _ = read_dataset(out)
        assert coords.shape[0] == 1 and Y.shape == (1, 2)

    def test_same_seed_identical_files(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        write(cfg, SIM_CFG)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["simulate", "--config", str(cfg), "--out", str(a)])
        main(["simulate", "--config", str(cfg), "--out", str(b)])
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_bad_sigma_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        write(cfg, "sim.q = 2\nsim.phi = 5\nsim.nu = 1\nsim.tau2 = 0\n"
                   "sim.sigma = 1, 2; 2, 1\n")
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "x.csv")]) == 2


class TestFit:
    def test_draw_count_and_files(self, sim_file, tmp_path):
        cfg = tmp_path / "fit.cfg"
        write(cfg, FIT_CFG)
        out = tmp_path / "chain"
        assert main(["fit", "--config", str(cfg), "--data", str(sim_file),
                     "--out", str(out)]) == 0
        header, TH = read_table(out / "theta.csv")
        assert TH.shape[0] == 5  # (10 - 5) / 1 stored draws
        assert header[0] == "draw"
        for stem in ("sigma", "beta", "pi", "loglik", "zero_corr", "meta.json",
                     "summary.csv", "summary.txt"):
            assert (out / stem).exists() or (out / f"{stem}.csv").exists()
        # m = 8 > M1: every in-box proposal is screened, and only a stage-1
        # survivor can be accepted
        acc = json.load(open(out / "meta.json"))["acceptance"]
        assert acc["theta_proposals"] == 10
        assert acc["theta_accepts"] <= acc["theta_stage2_runs"] <= acc["theta_proposals"]
        assert acc["theta_build_failures"] == 0
        line = next(ln for ln in (out / "summary.txt").read_text().splitlines()
                    if ln.startswith("theta acceptance rate"))
        assert f"stage-2 runs: {acc['theta_stage2_runs']}" in line
        assert "failed builds: 0" in line

    def test_missing_cell_rejected_with_row(self, tmp_path):
        p = tmp_path / "bad.csv"
        write(p, "coord_1,coord_2,y_1,y_2\n0.1,0.2,1.0,2.0\n0.3,0.4,,2.0\n")
        cfg = tmp_path / "fit.cfg"
        write(cfg, FIT_CFG)
        rc = main(["fit", "--config", str(cfg), "--data", str(p),
                   "--out", str(tmp_path / "c")])
        assert rc == 2

    @pytest.mark.parametrize("mode", ["theta_mode = cluster\ncluster.k1 = 2",
                                      "theta_mode = grid\ngrid.nu_values = 0.5, 1.5"],
                             ids=["cluster", "grid"])
    def test_joint_update_needs_full_mode(self, sim_file, tmp_path, capsys, mode):
        cfg = tmp_path / "fit.cfg"
        write(cfg, FIT_CFG.replace("theta_mode = full", mode))
        rc = main(["fit", "--config", str(cfg), "--data", str(sim_file),
                   "--out", str(tmp_path / "chain")])
        assert rc == 2
        assert "theta_update = joint needs theta_mode = full" in capsys.readouterr().err
        assert not (tmp_path / "chain").exists()

    def test_thin_not_dividing_stored_span(self, sim_file, tmp_path):
        # iterations 0, 3, 6 and 9 are stored: the ceiling of 10 / 3
        cfg = tmp_path / "fit.cfg"
        write(cfg, FIT_CFG.replace("burn = 5", "burn = 0").replace("thin = 1", "thin = 3"))
        out = tmp_path / "chain"
        assert main(["fit", "--config", str(cfg), "--data", str(sim_file),
                     "--out", str(out)]) == 0
        _, TH = read_table(out / "theta.csv")
        assert TH.shape[0] == 4
        meta = json.load(open(out / "meta.json"))
        assert meta["n_draws"] == 4
        assert meta["timings_sec"]["init"] > 0.0
        assert meta["timings_sec"]["io"] > 0.0
        assert '"io": ' in (out / "summary.txt").read_text()

    def test_fixed_kernels(self, sim_file, tmp_path):
        # every prior box has zero width: the scan has no theta step
        cfg = tmp_path / "fit.cfg"
        write(cfg, FIT_CFG + "prior.phi = 10, 10\nprior.nu = 1.2, 1.2\n"
                             "prior.tau2 = 0.01, 0.01\n")
        out = tmp_path / "chain"
        assert main(["fit", "--config", str(cfg), "--data", str(sim_file),
                     "--out", str(out)]) == 0
        header, TH = read_table(out / "theta.csv")
        fixed = {"phi": 10.0, "nu": 1.2, "tau2": 0.01}
        for col, name in enumerate(header[1:], start=1):
            assert np.all(TH[:, col] == fixed[name.split("_")[0]])

    def test_deterministic_chain_files(self, sim_file, tmp_path):
        cfg = tmp_path / "fit.cfg"
        write(cfg, FIT_CFG)
        d1, d2 = tmp_path / "c1", tmp_path / "c2"
        main(["fit", "--config", str(cfg), "--data", str(sim_file), "--out", str(d1)])
        main(["fit", "--config", str(cfg), "--data", str(sim_file), "--out", str(d2)])
        for stem in ("theta.csv", "sigma.csv", "beta.csv", "loglik.csv"):
            assert open(d1 / stem, "rb").read() == open(d2 / stem, "rb").read()


@pytest.fixture
def fitted(sim_file, tmp_path):
    cfg = tmp_path / "fit.cfg"
    write(cfg, FIT_CFG.replace("iters = 10", "iters = 40")
                       .replace("burn = 5", "burn = 20"))
    out = tmp_path / "chain"
    assert main(["fit", "--config", str(cfg), "--data", str(sim_file),
                 "--out", str(out)]) == 0
    return out


class TestPredict:
    def test_duplicate_training_site_sd_zero(self, sim_file, fitted, tmp_path):
        coords, Y, _, names = read_dataset(sim_file)
        test = tmp_path / "test.csv"
        write(test, "coord_1,coord_2,y_1,y_2,y_3\n"
                    f"{coords[7,0]:.17g},{coords[7,1]:.17g},,,\n")
        out = tmp_path / "pred.csv"
        rc = main(["predict", "--chain", str(fitted), "--data", str(sim_file),
                   "--test", str(test), "--out", str(out),
                   "--noise-free-prediction"])
        assert rc == 0
        header, rows = read_mixed(out)
        sd_col = header.index("sd")
        mean_col = header.index("mean")
        assert len(rows) == 3
        assert max(abs(r[sd_col]) for r in rows) <= 1e-10
        assert max(abs(r[mean_col] - Y[7][i]) for i, r in enumerate(rows)) <= 1e-10

    def test_partial_prediction_rows(self, sim_file, fitted, tmp_path):
        coords, Y, _, _ = read_dataset(sim_file)
        test = tmp_path / "partial.csv"
        write(test, "coord_1,coord_2,y_1,y_2,y_3\n"
                    "0.41,0.13,0.5,,-0.2\n0.9,0.9,,,\n")
        out = tmp_path / "pred.csv"
        assert main(["predict", "--chain", str(fitted), "--data", str(sim_file),
                     "--test", str(test), "--out", str(out)]) == 0
        header, rows = read_mixed(out)
        # one missing outcome at site 0, all three at site 1
        assert len(rows) == 4
        sites = [int(r[0]) for r in rows]
        assert sites == [0, 1, 1, 1]
        assert rows[0][header.index("outcome")] == "y_2" 

    def test_grid_prediction_emits_all_cells(self, sim_file, fitted, tmp_path):
        g = np.linspace(0.05, 0.95, 7)
        test = tmp_path / "grid.csv"
        lines = ["coord_1,coord_2,y_1,y_2,y_3"]
        lines += [f"{a:.17g},{b:.17g},,," for a in g for b in g]
        write(test, "\n".join(lines) + "\n")
        out = tmp_path / "grid_pred.csv"
        assert main(["predict", "--chain", str(fitted), "--data", str(sim_file),
                     "--test", str(test), "--out", str(out),
                     "--max-draws", "20"]) == 0
        header, rows = read_mixed(out)
        assert len(rows) == 49 * 3  # N x q summary rows
        sd_col = header.index("sd")
        assert all(r[sd_col] > 0 for r in rows)

    def test_hash_mismatch_rejected(self, sim_file, fitted, tmp_path):
        coords, Y, _, names = read_dataset(sim_file)
        other = tmp_path / "other.csv"
        write_dataset(other, coords + 0.001, Y, outcome_names=names)
        test = tmp_path / "t.csv"
        write(test, "coord_1,coord_2,y_1,y_2,y_3\n0.5,0.5,,,\n")
        rc = main(["predict", "--chain", str(fitted), "--data", str(other),
                   "--test", str(test), "--out", str(tmp_path / "p.csv")])
        assert rc == 2


    def test_cokriging_next_to_reference_site(self, sim_file, tmp_path):
        # nugget-free, nu = 2.5 kernels make r_j(t) underflow 1e-12 at 1e-7
        # from a reference site; the site is not on S, so it is co-kriged
        coords, Y, _, names = read_dataset(sim_file)
        chain = constructed_chain(tmp_path / "chain", coords, names, nu=2.5, tau2=0.0)
        t = coords[7] + 1e-7
        test = tmp_path / "near.csv"
        write(test, "coord_1,coord_2,y_1,y_2,y_3\n"
                    f"{t[0]:.17g},{t[1]:.17g},{Y[7, 0]:.17g},,\n")
        out = tmp_path / "pred.csv"
        assert main(["predict", "--chain", str(chain), "--data", str(sim_file),
                     "--test", str(test), "--out", str(out)]) == 0
        header, rows = read_mixed(out)
        assert len(rows) == 2
        assert all(np.isfinite(r[header.index("mean")]) for r in rows)

    def test_negative_zero_coordinate_pinned(self, tmp_path):
        # the reference site 0.0,0.5 and the test site -0.0,0.5 are one point
        rng = np.random.default_rng(8)
        coords = rng.uniform(0.0, 1.0, size=(30, 2))
        coords[4] = [0.0, 0.5]
        Y = rng.standard_normal((30, 3))
        data = tmp_path / "data.csv"
        write_dataset(data, coords, Y)
        chain = constructed_chain(tmp_path / "chain", coords, ["y_1", "y_2", "y_3"],
                                  nu=0.8, tau2=1e-3)
        for site in ("-0.0,0.5", "0.0,0.5"):
            out = tmp_path / "pred.csv"
            write(tmp_path / "t.csv", f"coord_1,coord_2,y_1,y_2,y_3\n{site},0.1,,\n")
            assert main(["predict", "--chain", str(chain), "--data", str(data),
                         "--test", str(tmp_path / "t.csv"), "--out", str(out)]) == 0
            header, rows = read_mixed(out)
            np.testing.assert_allclose([r[header.index("mean")] for r in rows],
                                       Y[4, 1:], rtol=1e-12)
            assert all(r[header.index("sd")] <= 1e-12 for r in rows)

    def test_repeated_test_sites(self, tmp_path):
        # two co-kriging requests at one site, and -0.0,0.5 next to 0.0,0.5
        rng = np.random.default_rng(8)
        coords = rng.uniform(0.0, 1.0, size=(30, 2))
        coords[4] = [0.0, 0.5]
        Y = rng.standard_normal((30, 3))
        data = tmp_path / "data.csv"
        write_dataset(data, coords, Y)
        chain = constructed_chain(tmp_path / "chain", coords, ["y_1", "y_2", "y_3"],
                                  nu=0.8, tau2=1e-3)
        write(tmp_path / "t.csv", "coord_1,coord_2,y_1,y_2,y_3\n"
                                  "0.3,0.6,1.5,,\n0.3,0.6,-1.5,,\n0.3,0.6,,,\n"
                                  "-0.0,0.5,0.1,,\n0.0,0.5,0.1,,\n")
        out = tmp_path / "pred.csv"
        assert main(["predict", "--chain", str(chain), "--data", str(data),
                     "--test", str(tmp_path / "t.csv"), "--out", str(out)]) == 0
        header, rows = read_mixed(out)
        assert [r[0] for r in rows] == [0, 0, 1, 1, 2, 2, 2, 3, 3, 4, 4]
        mean = np.array([r[header.index("mean")] for r in rows])
        assert np.all(np.abs(mean[0:2] - mean[2:4]) > 1e-6)
        np.testing.assert_allclose(mean[7:9], Y[4, 1:], rtol=1e-12)
        np.testing.assert_allclose(mean[9:11], Y[4, 1:], rtol=1e-12)

    @pytest.mark.parametrize("option, value", [
        ("--max-draws", "-1"), ("--quantiles", "abc"), ("--quantiles", "2"),
        ("--quantiles", "0.1,nan")])
    def test_bad_option_exits_2(self, sim_file, fitted, tmp_path, capsys, option, value):
        write(tmp_path / "t.csv", "coord_1,coord_2,y_1,y_2,y_3\n0.5,0.5,,,\n")
        rc = main(["predict", "--chain", str(fitted), "--data", str(sim_file),
                   "--test", str(tmp_path / "t.csv"), "--out", str(tmp_path / "p.csv"),
                   option, value])
        assert rc == 2
        assert option in capsys.readouterr().err

    def test_chain_without_draws_exits_2(self, sim_file, tmp_path, capsys):
        cfg = tmp_path / "fit.cfg"
        write(cfg, FIT_CFG.replace("iters = 10", "iters = 0").replace("burn = 5", "burn = 0"))
        assert main(["fit", "--config", str(cfg), "--data", str(sim_file),
                     "--out", str(tmp_path / "chain")]) == 0
        write(tmp_path / "t.csv", "coord_1,coord_2,y_1,y_2,y_3\n0.5,0.5,,,\n")
        rc = main(["predict", "--chain", str(tmp_path / "chain"), "--data", str(sim_file),
                   "--test", str(tmp_path / "t.csv"), "--out", str(tmp_path / "p.csv")])
        assert rc == 2
        assert "no stored draws" in capsys.readouterr().err

    def test_vecchia_predict_builds_no_dag_or_factor(self, sim_file, fitted, tmp_path,
                                                      monkeypatch):
        from spiox import ioxcore

        def forbidden(*a, **k):
            raise AssertionError("spiox predict built a DAG or a workspace")
        monkeypatch.setattr(ioxcore, "build_nn_dag", forbidden)
        monkeypatch.setattr(ioxcore, "VecchiaWorkspace", forbidden)
        write(tmp_path / "t.csv", "coord_1,coord_2,y_1,y_2,y_3\n"
                                  "0.41,0.13,0.5,,-0.2\n0.9,0.9,,,\n")
        assert main(["predict", "--chain", str(fitted), "--data", str(sim_file),
                     "--test", str(tmp_path / "t.csv"),
                     "--out", str(tmp_path / "p.csv")]) == 0


@pytest.fixture
def twin_file(tmp_path):
    """60 uniform sites and q = 2 outcomes, two of the sites 1e-300 apart:
    their squared distance underflows, so with tau2 = 0 every correlation
    block that holds both is exactly singular."""
    rng = np.random.default_rng(0)
    coords = rng.uniform(size=(60, 2))
    coords[0], coords[1] = [1e-300, 0.5], [2e-300, 0.5]
    out = tmp_path / "twin.csv"
    write_dataset(out, coords, rng.standard_normal((60, 2)))
    return out


class TestExitCodes:
    """Inputs that cannot give a result exit with a code and a message, never
    a traceback; the twin-site data fit and predict."""

    @pytest.mark.parametrize("command, text, code", [
        ("simulate", "sim.d = 0\n", 2),
        ("fit", "prior.sigma_scale = 0\n", 2),
        ("fit", "prior.sigma_scale = -1\n", 2),
        ("fit", "vecchia_m = 15\n", 0),
        ("fit", "chains = 0\n", 2),
        ("fit", "threads = 0\n", 2),
    ], ids=["sim_d_0", "sigma_scale_0", "sigma_scale_neg", "twin_default",
            "chains_0", "threads_0"])
    def test_exit_code(self, twin_file, tmp_path, capsys, command, text, code):
        cfg = tmp_path / "c.cfg"
        write(cfg, text + "iters = 3\nburn = 1\n")
        data = [] if command == "simulate" else ["--data", str(twin_file)]
        assert main([command, "--config", str(cfg), "--out",
                     str(tmp_path / "out")] + data) == code
        if code:
            err = capsys.readouterr().err
            assert err and "Traceback" not in err
        else:
            # the nugget sits only on the diagonal, so with tau2 > 0 the
            # blocks that hold both twins are positive definite, and Sigma
            # stays near the data's unit variances
            _, sigma = read_table(tmp_path / "out" / "sigma.csv")
            diag = sigma[:, [1, 3]]
            assert np.all(np.isfinite(sigma)) and np.all((diag > 0.1) & (diag < 10.0))

    def test_threads_flag_validated(self, twin_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["fit", "--data", str(twin_file), "--out", str(out),
                     "--threads", "0"]) == 2
        err = capsys.readouterr().err
        assert "threads" in err and "Traceback" not in err
        assert not out.exists()

    def test_twin_sites_predict(self, twin_file, tmp_path):
        cfg = tmp_path / "fit.cfg"
        write(cfg, "vecchia_m = 8\niters = 4\nburn = 2\n")
        chain = tmp_path / "chain"
        assert main(["fit", "--config", str(cfg), "--data", str(twin_file),
                     "--out", str(chain)]) == 0
        write(tmp_path / "t.csv", "coord_1,coord_2,y_1,y_2\n0.01,0.5,,\n")
        out = tmp_path / "pred.csv"
        assert main(["predict", "--chain", str(chain), "--data", str(twin_file),
                     "--test", str(tmp_path / "t.csv"), "--out", str(out)]) == 0
        header, rows = read_mixed(out)
        assert len(rows) == 2
        assert np.all(np.isfinite([r[header.index("mean")] for r in rows]))
        assert np.all(np.isfinite([r[header.index("sd")] for r in rows]))


def constructed_chain(path, coords, names, nu, tau2, nd=3):
    """A response chain of nd identical draws (phi = 5, Sigma = I, m = 8)
    written with the program's chain writer."""
    from spiox.config import RunConfig
    from spiox.dataio import dataset_hash, write_chain
    from spiox.inference import Chain
    q = len(names)
    theta = np.empty((nd, q, 3))
    theta[:, :, 0], theta[:, :, 1], theta[:, :, 2] = 5.0, nu, tau2
    draws = {"beta": np.zeros((nd, 1, q)), "sigma": np.tile(np.eye(q), (nd, 1, 1)),
             "theta": theta, "pi": np.tile(np.arange(q), (nd, 1)),
             "loglik": np.zeros(nd)}
    meta = {"n": coords.shape[0], "q": q, "p": 1, "iters": nd, "burn": 0, "thin": 1,
            "seed": 5, "model": "response", "theta_mode": "full",
            "theta_update": "joint", "vecchia_m": 8, "n_draws": nd,
            "acceptance_rate": 0.5}
    write_chain(path, Chain(draws, {}, {}, meta),
                RunConfig(vecchia_m=8, seed=5).validate(), dataset_hash(coords), names)
    return path


class TestLatentCli:
    def test_latent_fit_and_predict(self, sim_file, tmp_path):
        cfg = tmp_path / "lat.cfg"
        write(cfg, "model = latent\nvecchia_m = 6\niters = 16\nburn = 8\n"
                   "seed = 4\ntheta_update = joint\nstore_w = 4\n"
                   "zero_corr_draws = 2\n")
        out = tmp_path / "lchain"
        assert main(["fit", "--config", str(cfg), "--data", str(sim_file),
                     "--out", str(out)]) == 0
        assert (out / "w.csv").exists() and (out / "delta.csv").exists()
        test = tmp_path / "t.csv"
        write(test, "coord_1,coord_2,y_1,y_2,y_3\n0.5,0.5,,,\n0.2,0.9,0.3,,\n")
        pred = tmp_path / "lpred.csv"
        assert main(["predict", "--chain", str(out), "--data", str(sim_file),
                     "--test", str(test), "--out", str(pred)]) == 0
        header, rows = read_mixed(pred)
        assert len(rows) == 3 + 2  # full vector at site 0, two missing at site 1

    def test_parallel_chains(self, sim_file, tmp_path):
        cfg = tmp_path / "fit.cfg"
        s_cfg = FIT_CFG + "chains = 2\n"
        write(cfg, s_cfg)
        out = tmp_path / "multi"
        assert main(["fit", "--config", str(cfg), "--data", str(sim_file),
                     "--out", str(out)]) == 0
        for i in range(2):
            assert (out / f"chain_{i}" / "theta.csv").exists()
        a = open(out / "chain_0" / "theta.csv").read()
        b = open(out / "chain_1" / "theta.csv").read()
        assert a != b  # independent sub-streams

    def test_chain_threads_same_files(self, sim_file, tmp_path):
        cfg = tmp_path / "fit.cfg"
        write(cfg, FIT_CFG + "chains = 2\n")
        outs = {}
        for threads in ("1", "2"):
            out = outs[threads] = tmp_path / f"threads{threads}"
            assert main(["fit", "--config", str(cfg), "--data", str(sim_file),
                         "--out", str(out), "--threads", threads]) == 0
        for i in range(2):
            names = sorted(p.name for p in (outs["1"] / f"chain_{i}").glob("*.csv"))
            assert "theta.csv" in names
            for name in names:
                assert (outs["1"] / f"chain_{i}" / name).read_bytes() == \
                    (outs["2"] / f"chain_{i}" / name).read_bytes(), name


class TestSummarize:
    def test_single_draw_chain(self, sim_file, tmp_path):
        cfg = tmp_path / "fit.cfg"
        write(cfg, FIT_CFG.replace("iters = 10", "iters = 6"))
        out = tmp_path / "chain1"
        main(["fit", "--config", str(cfg), "--data", str(sim_file), "--out", str(out)])
        assert main(["summarize", "--chain", str(out)]) == 0
        header, rows = read_mixed(out / "summary.csv")
        sd = [r[header.index("sd")] for r in rows]
        es = [r[header.index("ess")] for r in rows]
        assert all(v == 0.0 for v in sd)
        assert all(v == 1.0 for v in es)

    def test_table_contains_expected_rows(self, fitted):
        header, rows = read_mixed(fitted / "summary.csv")
        names = [r[0] for r in rows]
        for want in ("phi_1", "nu_3", "tau2_2", "sigma_1_2", "rho_1_2", "beta_1_1"):
            assert want in names


class TestHelpers:
    def test_constant_series_sd_zero(self):
        rows = summary_rows([("c", np.full(50, 3.25))])
        assert rows[0][2] == 0.0

    def test_ess_iid_close_to_n(self):
        x = np.random.default_rng(0).standard_normal(4000)
        assert ess(x) > 2000

    def test_ess_correlated_small(self):
        rng = np.random.default_rng(1)
        x = np.empty(4000)
        x[0] = 0.0
        for i in range(1, 4000):
            x[i] = 0.98 * x[i - 1] + rng.standard_normal()
        assert ess(x) < 400

    def test_float_roundtrip_17_digits(self, tmp_path):
        vals = np.random.default_rng(2).standard_normal(50) * 1e3
        p = tmp_path / "x.csv"
        write_dataset(p, np.arange(50, dtype=float)[:, None] / 7.0, vals[:, None])
        _, Y, _, _ = read_dataset(p)
        assert np.array_equal(Y[:, 0], vals)

    def test_theta_update_mode_combinations(self):
        for mode in ("cluster", "grid"):
            with pytest.raises(ValidationError, match="needs theta_mode = full"):
                parse_config(f"theta_mode = {mode}\ntheta_update = joint\n"
                             "grid.nu_values = 0.5\n")
            for update in ("auto", "block"):
                parse_config(f"theta_mode = {mode}\ntheta_update = {update}\n"
                             "grid.nu_values = 0.5\n")
        parse_config("theta_mode = full\ntheta_update = joint\n")

    def test_unknown_config_key(self):
        for text in ("modle = response\n", "predict.quantiles = 0.1, 0.9\n",
                     "predict.max_draws = 1\n", "pcg_tol = 1e-8\n"):
            with pytest.raises(ValidationError, match="unknown key"):
                parse_config(text)

    def test_every_config_field_round_trips_through_its_key(self):
        # the key is the field name, its first "_" a "." in a grouped field
        groups = ("prior", "sim", "grid", "cluster")
        samples = {int: None, float: (0.5, "0.5"), str: None,
                   list: ([0.5, 1.5], "0.5, 1.5"), tuple: ((0.5, 2.0), "0.5, 2"),
                   np.ndarray: ([[2.0, 0.5], [0.5, 1.0]], "2, 0.5; 0.5, 1")}
        for f in fields(RunConfig):
            head = f.name.split("_", 1)[0]
            key = f.name.replace("_", ".", 1) if head in groups else f.name
            default = getattr(RunConfig(), f.name)
            if f.type is int:
                value, text = default + 1, str(default + 1)
            elif f.type is str:
                value, text = default, default
            else:
                value, text = samples[f.type]
            got = getattr(parse_config(f"{key} = {text}\n"), f.name)
            assert isinstance(got, f.type) and np.array_equal(got, value), key
        with pytest.raises(ValidationError, match="unknown key 'k1'"):
            parse_config("k1 = 2\n")
        with pytest.raises(ValidationError, match="prior.nu: needs exactly two"):
            parse_config("prior.nu = 0.5, 1, 2\n")

    def test_truncated_chain_file_offset(self, tmp_path):
        p = tmp_path / "theta.csv"
        write(p, "draw,phi_1\n0,1.5\n1,2.5,9\n")
        with pytest.raises(ValidationError, match="byte offset"):
            read_table(p)
