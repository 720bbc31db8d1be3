"""End-to-end acceptance checks, one per headline guarantee.

Each test prints a single [PASS]/[FAIL] line so the whole contract can be
read off a `pytest -v -s` run.  Tolerances are 4 Monte Carlo standard
errors unless a quantity is exact, in which case 1e-10.
"""
import json
import math
import os
import time

import numpy as np

from steinsure import (RegressionProblem, RngStream, core, divergence_mc,
                       harness, selection, solvers, stein)


def _report(tag, ok, detail=""):
    print("\n[%s] %s %s" % ("PASS" if ok else "FAIL", tag, detail))
    assert ok, "%s %s" % (tag, detail)


# 1 -------------------------------------------------------------------------

def test_acceptance_01_second_order_identity():
    start = time.time()
    res = harness.experiment_sos(reps=100000, seed=11, n_list=(5, 20))
    elapsed = time.time() - start

    # population-exact cases: f(z) = z and f(z) = c
    n = 12
    c = np.linspace(-2.0, 3.0, n)
    exact_id = (2.0 * n, 2.0 * n)          # both sides of the identity
    exact_const = (float(c @ c), float(c @ c))
    ok = (res["max_z"] <= 4.0 and elapsed < 30.0
          and exact_id[0] == exact_id[1] and exact_const[0] == exact_const[1])
    _report("criterion-01 identity-corpus", ok,
            "max_z=%.2f runtime=%.1fs" % (res["max_z"], elapsed))


# 2 -------------------------------------------------------------------------

def test_acceptance_02_exact_risk_algebra():
    gen = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        n = int(gen.integers(2, 30))
        y = gen.standard_normal(n)
        sig = float(gen.uniform(0.3, 2.5))
        rep = stein.sure_for_sure(y, y, float(n), float(n), sig)  # mu_hat = y
        worst = max(worst,
                    abs(rep.sure - sig**2 * n),
                    abs(rep.r_hat - 2.0 * sig**4 * n))
    # orthogonal-design worked numbers: rss = 2.25, n = 2, df = tr2 = 1
    y2 = np.array([1.5, 0.0])
    rep = stein.sure_for_sure(y2, np.zeros(2), 1.0, 1.0, 1.0)
    worst = max(worst, abs(rep.sure - 2.25), abs(rep.r_hat - 9.0),
                abs(rep.r_prime - 9.0))
    _report("criterion-02 exact-sure-algebra", worst <= 1e-10,
            "max_abs_err=%.2e" % worst)


# 3 & 4 ---------------------------------------------------------------------

def test_acceptance_03_unbiasedness():
    start = time.time()
    res = harness.experiment_unbiasedness(n=100, p=200, s0=5, reps=5000,
                                          seed=21)
    elapsed = time.time() - start
    ok = (res["z_sure_unbiased"] <= 4.0 and res["z_r_hat_unbiased"] <= 4.0
          and elapsed < 300.0)
    _report("criterion-03 unbiasedness", ok,
            "z_sure=%.2f z_rhat=%.2f runtime=%.1fs"
            % (res["z_sure_unbiased"], res["z_r_hat_unbiased"], elapsed))


def test_acceptance_04_relative_consistency():
    r100 = harness.experiment_unbiasedness(n=100, p=200, s0=5, reps=5000,
                                           seed=22)
    r400 = harness.experiment_unbiasedness(n=400, p=800, s0=5, reps=5000,
                                           seed=23)
    ok = True
    for r in (r100, r400):
        ok &= r["rel_quartic"] <= r["rel_quartic_bound"] + 4.0 * r["rel_quartic_se"]
    ok &= r400["rel_quartic"] <= 0.5 * r100["rel_quartic"]
    _report("criterion-04 consistency", ok,
            "rel100=%.4f (cap %.3f) rel400=%.4f (cap %.3f)"
            % (r100["rel_quartic"], r100["rel_quartic_bound"],
               r400["rel_quartic"], r400["rel_quartic_bound"]))


# 5 -------------------------------------------------------------------------

def test_acceptance_05_confidence_coverage():
    res = harness.experiment_coverage(n=500, p=100, s0=3, reps=2000, seed=31)
    two, one = res["coverage_two_sided"], res["coverage_one_sided"]
    ok = 0.92 <= two <= 0.98 and one >= 0.93
    _report("criterion-05 loss-coverage", ok,
            "two_sided=%.4f one_sided=%.4f gamma_n=%.3f"
            % (two, one, res["gamma_n"]))


# 6 -------------------------------------------------------------------------

def test_acceptance_06_model_size_variance():
    with core.workers(os.cpu_count()):
        res = harness.experiment_model_size(reps=1000, seed=41)
    ok = res["all_ok"] and res["ortho"]["z"] <= 4.0
    _report("criterion-06 model-size-variance", ok,
            "grid_ok=%s ortho_z=%.2f" % (res["all_ok"], res["ortho"]["z"]))


# 7 -------------------------------------------------------------------------

def test_acceptance_07_sparsity_prediction_bound():
    with core.workers(os.cpu_count()):
        res = harness.experiment_sparse_re(reps=400, seed=51)
    detail = " ".join("s0=%d %.1f<=%.1f" % (r["s0"], r["mean_stat"], r["bound"])
                      for r in res["rows"])
    _report("criterion-07 sparsity-risk-bound", res["all_ok"], detail)


# 8 -------------------------------------------------------------------------

def test_acceptance_08_mc_divergence():
    # linear map: estimate within 4 analytic standard errors of trace(A)
    gen = np.random.default_rng(61)
    n, m = 60, 400
    a_mat = gen.standard_normal((n, n)) / math.sqrt(n)
    est = divergence_mc.mc_divergence(lambda z: a_mat @ z,
                                      gen.standard_normal(n), m,
                                      RngStream(62), a=1e-6)
    lin_ok = abs(est.value - np.trace(a_mat)) <= 4.0 * est.se_bound

    # l1 fitted map: squared error obeys the 4n/m second-moment cap
    # (Markov-style check: at most 1 of 20 datasets exceeds 10x the cap)
    n, p, m = 50, 80, 100
    x = gen.standard_normal((n, p))
    lam = harness.default_lam(n, p, 1.0, 1.0)
    fmap = divergence_mc.lasso_fitted_map(x, lam, 0.0)
    exceed = 0
    for r in range(20):
        y = x[:, :4] @ gen.standard_normal(4) + gen.standard_normal(n)
        fit = solvers.fit_lasso(RegressionProblem(x, y), lam)
        e = divergence_mc.mc_divergence(fmap, y, m, RngStream(63, r))
        exceed += (e.value - fit.df_hat) ** 2 > 10.0 * 4.0 * n / m
    lasso_ok = exceed <= 1

    with core.workers(os.cpu_count()):
        svt = harness.experiment_mc_divergence("svt", seed=64)
        enet = harness.experiment_mc_divergence("enet", seed=65)

    def table_ok(res):
        last = res["rows"][-1]
        ratios = list(res["std_ratios"].values())
        return (last["rel_err"] <= 0.01
                and all(1.4 <= r <= 2.8 for r in ratios))

    ok = lin_ok and lasso_ok and table_ok(svt) and table_ok(enet)
    _report("criterion-08 mc-divergence", ok,
            "linear=%s lasso_exceed=%d/20 svt_rel=%.4f enet_rel=%.4f"
            % (lin_ok, exceed, svt["rows"][-1]["rel_err"],
               enet["rows"][-1]["rel_err"]))


# 9 -------------------------------------------------------------------------

def test_acceptance_09_debias_pivot():
    with core.workers(4):
        res = harness.experiment_debias(n=200, p=300, s0=5, reps=2000, seed=71)
    # scalar least-squares case is exact
    gen = np.random.default_rng(72)
    from steinsure import debias as dm
    x = gen.standard_normal((30, 1))
    y = 2.0 * x[:, 0] + gen.standard_normal(30)
    d = dm.direction_setup(np.ones(1), None, 1)
    rep = dm.debias_theta(x, y, 0.0, d)
    ols = float(x[:, 0] @ y / (x[:, 0] @ x[:, 0]))
    scalar_err = abs(rep.theta_hat - ols)
    ok = (res["pivot_mean_z"] <= 4.0 and res["variance_z"] <= 4.0
          and scalar_err <= 1e-10)
    _report("criterion-09 debias-pivot", ok,
            "mean_z=%.2f var_z=%.2f scalar_err=%.1e frozen=%.2f"
            % (res["pivot_mean_z"], res["variance_z"], scalar_err,
               res["frozen_fraction"]))


# 10 ------------------------------------------------------------------------

def test_acceptance_10_selection():
    with core.workers(os.cpu_count()):
        res = harness.experiment_selection(reps=2000, seed=81)
    adv = harness.experiment_adversarial(n=4096, reps=2000, seed=82)
    ok = res["ok"] and adv["gap_frequency"] >= 0.05
    _report("criterion-10 selection", ok,
            "exceedance=%.4f<=%.4f gap_freq=%.3f"
            % (res["exceedance"], res["limit"], adv["gap_frequency"]))


# 11 ------------------------------------------------------------------------

def test_acceptance_11_determinism_io(tmp_path):
    payloads = []
    for _ in range(2):
        res = harness.experiment_unbiasedness(n=40, p=60, s0=3, reps=200,
                                              seed=91)
        path = tmp_path / ("d%d.json" % len(payloads))
        harness.save_results_json(
            harness.results_payload("unbiasedness", 91, {}, res), str(path))
        payloads.append(path.read_bytes())
    json_ok = payloads[0] == payloads[1]

    gen = np.random.default_rng(92)
    m = gen.standard_normal((9, 5)) * 10.0 ** gen.integers(-12, 12, (9, 5))
    path = str(tmp_path / "m.csv")
    harness.save_matrix_csv(m, path)
    csv_ok = np.array_equal(harness.load_matrix_csv(path), m)

    with core.workers(1):
        t1 = harness.experiment_debias(n=40, p=30, s0=2, reps=8, seed=93)
    with core.workers(2):
        t2 = harness.experiment_debias(n=40, p=30, s0=2, reps=8, seed=93)
    thread_ok = all(t1[k] == t2[k] for k in ("pivot_var", "theta_hat_mean"))

    ok = json_ok and csv_ok and thread_ok
    _report("criterion-11 determinism-io", ok,
            "json=%s csv=%s threads=%s" % (json_ok, csv_ok, thread_ok))
