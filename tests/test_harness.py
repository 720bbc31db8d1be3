import json
import math
import time

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from steinsure import cli, core, harness, solvers, stein
from steinsure.harness import (ExperimentConfig, load_matrix_csv,
                               results_payload, run_experiment,
                               save_matrix_csv, save_results_json)


# --------------------------------------------------------------------- io

def test_matrix_csv_roundtrip(tmp_path):
    gen = np.random.default_rng(0)
    m = gen.standard_normal((7, 4)) * 10.0 ** gen.integers(-8, 8, (7, 4))
    path = str(tmp_path / "m.csv")
    save_matrix_csv(m, path)
    back = load_matrix_csv(path)
    assert np.array_equal(m, back)   # 17 significant digits: exact


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False,
                          width=64), min_size=1, max_size=8))
def test_matrix_csv_roundtrip_property(tmp_path_factory, values):
    path = str(tmp_path_factory.mktemp("csv") / "row.csv")
    save_matrix_csv(np.array([values]), path)
    assert np.array_equal(load_matrix_csv(path), np.array([values]))


def test_matrix_csv_ragged_reports_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2\n3,4\n5,6,7\n")
    with pytest.raises(ValueError, match=r"bad\.csv:3"):
        load_matrix_csv(str(path))


def test_matrix_csv_non_numeric_reports_line(tmp_path):
    path = tmp_path / "bad2.csv"
    path.write_text("1,2\n3,frog\n")
    with pytest.raises(ValueError, match=r"bad2\.csv:2"):
        load_matrix_csv(str(path))


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_matrix_csv_non_finite_reports_line(tmp_path, value):
    path = tmp_path / "bad3.csv"
    path.write_text("1,2\n\n3,%s\n" % value)
    with pytest.raises(ValueError, match=r"bad3\.csv:3: non-finite"):
        load_matrix_csv(str(path))


def test_matrix_csv_empty(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("\n\n")
    with pytest.raises(ValueError, match="empty"):
        load_matrix_csv(str(path))


def test_results_payload_schema():
    payload = results_payload("sos", 3, {"n": 5}, {"ok": np.bool_(True)})
    assert payload["schema"] == "stein-sure/1"
    assert json.dumps(harness._jsonable(payload))  # serializable


def test_save_results_json_deterministic(tmp_path):
    res = harness.experiment_sos(reps=2000, seed=4, n_list=(5,))
    p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    save_results_json(results_payload("sos", 4, {}, res), p1)
    res2 = harness.experiment_sos(reps=2000, seed=4, n_list=(5,))
    save_results_json(results_payload("sos", 4, {}, res2), p2)
    assert open(p1, "rb").read() == open(p2, "rb").read()


# --------------------------------------------------------------- dispatch

def test_experiment_config_from_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"kind": "sos", "seed": 9, "params": {"reps": 100}}')
    cfg = ExperimentConfig.from_json(str(path))
    assert cfg.kind == "sos" and cfg.seed == 9 and cfg.params == {"reps": 100}
    path.write_text('{"seed": 9}')
    with pytest.raises(ValueError):
        ExperimentConfig.from_json(str(path))


def test_run_experiment_unknown_kind():
    with pytest.raises(ValueError, match="unknown experiment"):
        run_experiment(ExperimentConfig(kind="nope"))


def test_run_experiment_payload():
    out = run_experiment(ExperimentConfig(
        kind="adversarial", seed=2, params={"n": 256, "reps": 50}))
    assert out["schema"] == "stein-sure/1"
    assert out["results"]["reps"] == 50


@pytest.mark.parametrize("kind, params", [
    ("mc_divergence", {"kind": "svt", "m_grid": [4, 16], "n_real": 3}),
    ("mc_divergence", {"kind": "enet", "m_grid": [4, 16], "n_real": 3}),
    ("debias", {"n": 40, "p": 30, "s0": 2, "reps": 12}),
    ("selection", {"n": 50, "p": 75, "reps": 20}),
    ("model_size", {"reps": 20}),
    ("sparse_re", {"n": 60, "p": 60, "reps": 20}),
])
def test_run_experiment_payload_does_not_depend_on_workers(kind, params):
    config = ExperimentConfig(kind=kind, seed=7, params=params)
    payloads = [json.dumps(harness._jsonable(run_experiment(config, threads)),
                           sort_keys=True) for threads in (1, 2)]
    assert payloads[0] == payloads[1]
    assert "threads" not in json.loads(payloads[0])["params"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_sos_max_z_keeps_a_nan_z_score():
    # one replication has no spread, so every z-score is NaN
    res = harness.experiment_sos(reps=1, n_list=(5,))
    assert math.isnan(res["max_z"])


def test_debias_threads_do_not_change_results():
    r1 = harness.experiment_debias(n=40, p=30, s0=2, reps=12, seed=5)
    with core.workers(2):
        r2 = harness.experiment_debias(n=40, p=30, s0=2, reps=12, seed=5)
    for k in ("pivot_var", "v_star_mean", "theta_hat_mean"):
        assert r1[k] == r2[k]


def test_selection_nested_cross_traces_equal_the_factored_ones(monkeypatch):
    # the selection study's candidates on 40 replications: nested pairs
    # take |S_small| in closed form, and only the others are factored
    base = harness.RngStream(4)
    n, p, n_cand = 50, 75, 8
    x = harness._design("gauss", n, p, base.child(0))
    mu = x @ harness._sparse_beta(p, 5, 0.6)
    ys = harness._responses(mu, 1.0, 40, base.child(1))
    lams = harness.default_lam(n, p, 1.0) * np.geomspace(0.4, 2.2, n_cand)
    fits = [harness._selection_fit(x, mu, 1.0, ys, lams, k)
            for k in range(n_cand)]
    sizes = np.array([f[1] for f in fits])
    masks = np.array([f[3] for f in fits])
    # the middle candidate as reference, and one pair made disjoint
    j0, others = 3, [0, 1, 2, 4, 5, 6, 7]
    masks[0][0] = False
    masks[0][0][np.flatnonzero(~masks[j0][0])[:3]] = True
    sizes[0, 0] = 3.0
    factored = []
    traces = stein.projection_cross_traces
    monkeypatch.setattr(stein, "projection_cross_traces",
                        lambda x, a, b: factored.extend(zip(a, b))
                        or traces(x, a, b))
    cross = harness._cross_traces(x, masks, sizes, others, j0)
    sups = [[np.flatnonzero(m) for m in masks[k]] for k in range(n_cand)]
    nested = np.array([[set(a) <= set(b) or set(b) <= set(a)
                        for a, b in zip(sups[k], sups[j0])] for k in others])
    assert nested.sum() > 100 and not nested[0, 0]
    assert len(factored) == np.count_nonzero(~nested)
    for i, k in enumerate(others):
        want = traces(x, sups[k], sups[j0])
        np.testing.assert_allclose(cross[i], want, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(
            cross[i][nested[i]],
            np.minimum(sizes[k], sizes[j0])[nested[i]])


# -------------------------------------------------------------------- cli

runner = CliRunner()


def _write_problem(tmp_path):
    gen = np.random.default_rng(1)
    x = gen.standard_normal((25, 8))
    y = x[:, 0] + gen.standard_normal(25)
    xp, yp = str(tmp_path / "X.csv"), str(tmp_path / "y.csv")
    save_matrix_csv(x, xp)
    save_matrix_csv(y[:, None], yp)
    return xp, yp


def test_cli_lasso_json(tmp_path):
    xp, yp = _write_problem(tmp_path)
    res = runner.invoke(cli.main, ["lasso", "--X", xp, "--y", yp,
                                   "--lam", "0.3"])
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert payload["schema"] == "stein-sure/1"
    assert "sure" in payload["results"]


def test_cli_usage_error_exit_code(tmp_path):
    xp, yp = _write_problem(tmp_path)
    res = runner.invoke(cli.main, ["lasso", "--X", xp, "--y", yp])
    assert res.exit_code == 1   # missing --lam is a usage error
    res2 = runner.invoke(cli.main, ["tune", "--X", xp, "--y", yp,
                                    "--lams", "a,b"])
    assert res2.exit_code == 1
    res3 = runner.invoke(cli.main, ["model-size", "--observed", "10",
                                    "--p", "5"])
    assert res3.exit_code == 1


def test_cli_sos_verify_pass():
    res = runner.invoke(cli.main, ["sos-verify", "--n", "5",
                                   "--reps", "3000", "--seed", "2"])
    assert res.exit_code == 0


def test_cli_tune_and_out_file(tmp_path):
    xp, yp = _write_problem(tmp_path)
    out = str(tmp_path / "tune.json")
    res = runner.invoke(cli.main, ["tune", "--X", xp, "--y", yp,
                                   "--lams", "0.1,0.3,0.9", "--out", out])
    assert res.exit_code == 0
    payload = json.loads(open(out).read())
    idx = payload["results"]["selected_index"]
    assert payload["results"]["sure_values"][idx] == min(
        payload["results"]["sure_values"])


def test_cli_svt_and_mc_div(tmp_path):
    gen = np.random.default_rng(3)
    mp = str(tmp_path / "M.csv")
    save_matrix_csv(gen.standard_normal((6, 5)), mp)
    res = runner.invoke(cli.main, ["svt-df", "--X", mp, "--lam", "1.0"])
    assert res.exit_code == 0
    lib = solvers.svt(load_matrix_csv(mp), 1.0)
    results = json.loads(res.output)["results"]
    assert (results["df_exact"], results["trace_grad_sq"],
            results["degenerate"]) == (lib.df_exact, lib.trace_grad_sq,
                                       lib.degenerate)
    res2 = runner.invoke(cli.main, ["mc-div", "--map", "svt", "--X", mp,
                                    "--lam", "1.0", "--m", "50"])
    assert res2.exit_code == 0
    v = json.loads(res2.output)["results"]["value"]
    exact = json.loads(res.output)["results"]["df_exact"]
    assert abs(v - exact) < 6.0


def test_cli_svt_df_sigma_adds_sure_for_sure(tmp_path):
    gen = np.random.default_rng(3)
    mp = str(tmp_path / "M.csv")
    save_matrix_csv(gen.standard_normal((6, 5)), mp)
    args = ["svt-df", "--X", mp, "--lam", "1.0"]
    plain = runner.invoke(cli.main, args)
    res = runner.invoke(cli.main, args + ["--sigma", "0.7"])
    assert plain.exit_code == 0 and res.exit_code == 0
    base, full = json.loads(plain.output), json.loads(res.output)
    assert base["params"] == {"lam": 1.0}
    assert full["params"] == {"lam": 1.0, "sigma": 0.7}
    y = load_matrix_csv(mp)
    lib = solvers.svt(y, 1.0)
    s2, dim = 0.7**2, y.size
    rss = float(np.sum((y - lib.matrix) ** 2))
    sure = rss + 2 * s2 * lib.df_exact - s2 * dim
    expected = {"sure": sure,
                "r_hat": (4 * s2 * rss + 4 * s2**2 * lib.trace_grad_sq
                          - 2 * s2**2 * dim),
                "r_prime": 2 * s2 * (rss + sure)}
    results = full["results"]
    for key, value in expected.items():
        assert results.pop(key) == pytest.approx(value, rel=1e-12)
    assert results == base["results"]


@pytest.mark.parametrize("args, message", [
    (["svt-df", "--X", "X", "--lam", "-1"], "--lam must be nonnegative"),
    (["svt-df", "--X", "X", "--lam", "nan"], "--lam must be nonnegative"),
    (["svt-df", "--X", "X", "--lam", "1", "--sigma", "-1"],
     "--sigma must be nonnegative"),
    (["mc-div", "--map", "svt", "--X", "X", "--lam", "-1"],
     "--lam must be nonnegative"),
    (["mc-div", "--map", "soft", "--y", "y", "--lam", "-1"],
     "--lam must be nonnegative"),
    (["mc-div", "--map", "enet", "--X", "X", "--y", "y", "--lam", "0.1",
      "--gamma", "-1"], "--gamma must be nonnegative"),
    (["mc-div", "--map", "svt", "--X", "X", "--lam", "1", "--m", "0"],
     "--m must be at least 1, not 0"),
    (["mc-div", "--map", "svt", "--X", "X", "--lam", "1", "--step", "-1"],
     "--step must be positive"),
    (["mc-div", "--map", "soft", "--y", "y", "--lam", "1", "--step", "0"],
     "--step must be positive"),
    (["lasso", "--X", "X", "--y", "y", "--lam", "-1"],
     "--lam must be nonnegative"),
    (["lasso", "--X", "X", "--y", "y", "--lam", "nan"],
     "--lam must be nonnegative"),
    (["enet", "--X", "X", "--y", "y", "--lam", "-0.1"],
     "--lam must be nonnegative"),
    (["enet", "--X", "X", "--y", "y", "--lam", "0.1", "--gamma", "-1"],
     "--gamma must be nonnegative"),
    (["enet", "--X", "X", "--y", "y", "--lam", "0.1", "--gamma", "nan"],
     "--gamma must be nonnegative"),
    (["sure", "--X", "X", "--y", "y", "--lam", "nan"],
     "--lam must be nonnegative"),
    (["sure4sure", "--X", "X", "--y", "y", "--lam", "-1"],
     "--lam must be nonnegative"),
    (["tune", "--X", "X", "--y", "y", "--lams", "0.1,-1"],
     "--lams must be nonnegative"),
    (["tune", "--X", "X", "--y", "y", "--lams", "nan,0.1"],
     "--lams must be nonnegative"),
    (["mc-div", "--map", "enet", "--X", "X", "--y", "y", "--lam", "inf"],
     "--lam must be nonnegative and finite"),
    (["--threads", "0", "model-size", "--observed", "1", "--p", "5"],
     "--threads must be at least 1, not 0"),
    (["--threads", "-5", "model-size", "--observed", "1", "--p", "5"],
     "--threads must be at least 1, not -5"),
    (["model-size", "--observed", "10", "--p", "5"],
     "observed size must lie in [0, p]"),
    (["tune", "--X", "X", "--y", "y", "--lams", "a,b"],
     "--lams must be a nonempty comma-separated float list"),
    (["tune", "--X", "X", "--y", "y", "--lams", ","],
     "--lams must be a nonempty comma-separated float list"),
    (["debias", "--X", "X", "--y", "y", "--lam", "0.3", "--a0", "1,x"],
     "--a0 must be a nonempty comma-separated float list"),
    (["debias", "--X", "X", "--y", "y", "--lam", "0.3", "--a0", "1,0"],
     "--a0 must have length p = 8"),
    (["mc-div", "--map", "svt", "--lam", "1"],
     "--map svt requires --X (the matrix)"),
    (["mc-div", "--map", "soft", "--lam", "1"], "--map soft requires --y"),
    (["mc-div", "--map", "enet", "--y", "y", "--lam", "1"],
     "--map enet requires --X and --y"),
    (["coverage", "--n", "50", "--reps", "1"],
     "bad config: reps must be an integer of at least 2, not 1"),
    (["coverage", "--n", "50", "--reps", "4", "--alpha", "2"],
     "bad config: alpha must be in (0, 1), not 2.0"),
    (["sos-verify", "--n", "5", "--reps", "1"],
     "bad config: reps must be an integer of at least 2, not 1"),
    (["sos-verify", "--n", "0", "--reps", "4"],
     "bad config: n_list entry must be an integer of at least 1, not 0"),
    (["sos-verify", "--n", "5", "--reps", "4", "--sigma", "nan"],
     "bad config: sigma must be positive and finite, not nan"),
    (["svt-df", "--X", "X", "--lam", "1", "--sigma", "inf"],
     "--sigma must be nonnegative and finite, not inf"),
    (["sure", "--X", "X", "--y", "y", "--lam", "0.1", "--sigma", "nan"],
     "sigma must be nonnegative and finite, not nan"),
    (["lasso", "--X", "X", "--y", "y", "--lam", "0.1", "--sigma", "nan"],
     "sigma must be nonnegative and finite, not nan"),
    (["sure4sure", "--X", "X", "--y", "y", "--lam", "0.1", "--sigma", "inf"],
     "sigma must be nonnegative and finite, not inf"),
    (["tune", "--X", "X", "--y", "y", "--lams", "0.1,0.2", "--sigma", "inf"],
     "sigma must be nonnegative and finite, not inf"),
    (["debias", "--X", "X", "--y", "y", "--lam", "nan", "--a0",
      "1,0,0,0,0,0,0,0"], "--lam must be nonnegative and finite, not nan"),
    (["debias", "--X", "X", "--y", "y", "--lam", "-1", "--a0",
      "1,0,0,0,0,0,0,0"], "--lam must be nonnegative and finite, not -1.0"),
    (["mc-div", "--map", "enet", "--X", "X", "--y", "y", "--lam", "0.1",
      "--step", "inf"], "--step must be positive and finite, not inf"),
    (["mc-div", "--map", "soft", "--y", "y", "--lam", "1", "--step", "inf"],
     "--step must be positive and finite, not inf"),
    (["mc-div", "--map", "enet", "--X", "X", "--y", "y", "--lam", "0.1",
      "--step", "1e308"], "step a = 1e+308 overflows the probe response"),
    (["mc-div", "--map", "enet", "--X", "X", "--y", "y", "--lam", "0.1",
      "--gamma", "1", "--step", "1e308"],
     "step a = 1e+308 overflows the probe response"),
    (["mc-div", "--map", "svt", "--X", "X", "--lam", "1", "--step", "1e308"],
     "step a = 1e+308 overflows the probe response"),
    (["mc-div", "--map", "soft", "--y", "y", "--lam", "1", "--step", "1e308"],
     "step a = 1e+308 overflows the probe response"),
    (["debias", "--X", "X", "--y", "y", "--lam", "0.3", "--a0",
      "1,0,0,0,0,0,0,nan"], "direction must be finite"),
    (["debias", "--X", "X", "--y", "y", "--lam", "0.3", "--a0",
      "inf,0,0,0,0,0,0,0"], "direction must be finite"),
    (["svt-df", "--X", "X", "--lam", "inf"],
     "--lam must be nonnegative and finite, not inf"),
    (["model-size", "--observed", "0", "--p", "0"],
     "p must be at least 1, not 0"),
    # only the enet map has a ridge penalty
    (["mc-div", "--map", "svt", "--X", "X", "--lam", "1", "--gamma", "1"],
     "--gamma must be 0 for --map svt, not 1.0"),
    (["mc-div", "--map", "soft", "--y", "y", "--lam", "1", "--gamma", "1"],
     "--gamma must be 0 for --map soft, not 1.0"),
    (["mc-div", "--map", "enet", "--X", "X", "--y", "y", "--lam", "0.1",
      "--gamma", "inf"], "--gamma must be nonnegative and finite, not inf"),
    # a step below the resolution of y would print a wrong estimate
    (["mc-div", "--map", "soft", "--y", "y", "--lam", "0.5", "--step",
      "1e-17"], "step a = 1e-17 is not above the resolution of y"),
    (["mc-div", "--map", "enet", "--X", "X", "--y", "y", "--lam", "0.1",
      "--step", "1e-320"], "step a = 1e-320 is not above the resolution of y"),
])
def test_cli_bad_option_values_are_one_line_usage_errors(tmp_path, args,
                                                         message):
    xp, yp = _write_problem(tmp_path)
    res = runner.invoke(cli.main, [{"X": xp, "y": yp}.get(a, a) for a in args])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)   # no traceback
    lines = res.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("Error: " + message)


def test_cli_run_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "sos", "seed": 3,
                               "params": {"reps": 1500, "n_list": [5]}}))
    out = str(tmp_path / "res.json")
    res = runner.invoke(cli.main, ["run", "--config", str(cfg), "--out", out])
    assert res.exit_code == 0
    payload = json.loads(open(out).read())
    assert payload["kind"] == "sos"


@pytest.mark.parametrize("seed", ["99", "3", "1"])
def test_cli_run_rejects_an_explicit_seed(tmp_path, seed):
    # the config names the seed, so run has no --seed: an explicit one,
    # even one equal to the config's or to the default, is a usage error
    # rather than ignored
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "sos", "seed": 3,
                               "params": {"reps": 50, "n_list": [5]}}))
    res = runner.invoke(cli.main, ["run", "--seed", seed, "--config",
                                   str(cfg)])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)   # no traceback
    assert res.stdout == ""
    assert [line for line in res.stderr.splitlines()
            if line.startswith("Error:")] == [
        "Error: No such option '--seed'."]
    res = runner.invoke(cli.main, ["run", "--config", str(cfg)])
    assert res.exit_code == 0
    assert json.loads(res.stdout)["seed"] == 3


def test_cli_run_help_lists_no_seed():
    res = runner.invoke(cli.main, ["run", "--help"])
    assert res.exit_code == 0
    assert "--config" in res.stdout and "--seed" not in res.stdout
    # the commands that draw keep their seed
    for command in ("sos-verify", "coverage", "mc-div"):
        res = runner.invoke(cli.main, [command, "--help"])
        assert res.exit_code == 0 and "--seed" in res.stdout, command


@pytest.mark.parametrize("args", [
    ["lasso", "--X", "X", "--y", "y", "--lam", "0.3"],
    ["enet", "--X", "X", "--y", "y", "--lam", "0.3"],
    ["sure", "--X", "X", "--y", "y", "--lam", "0.3"],
    ["sure4sure", "--X", "X", "--y", "y", "--lam", "0.3"],
    ["tune", "--X", "X", "--y", "y", "--lams", "0.1,0.3"],
    ["svt-df", "--X", "X", "--lam", "1.0"],
    ["model-size", "--observed", "3", "--p", "8"],
    ["debias", "--X", "X", "--y", "y", "--lam", "0.3", "--a0",
     "1,0,0,0,0,0,0,0"],
], ids=lambda args: args[0])
def test_cli_commands_that_draw_nothing_take_no_seed(tmp_path, args):
    # their outputs are deterministic in the input, so a seed would change
    # only its echo: the option is a click usage error and the envelope's
    # seed is null
    xp, yp = _write_problem(tmp_path)
    args = [{"X": xp, "y": yp}.get(a, a) for a in args]
    res = runner.invoke(cli.main, args)
    assert res.exit_code == 0
    assert json.loads(res.stdout)["seed"] is None
    res = runner.invoke(cli.main, args + ["--seed", "3"])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)   # no traceback
    assert res.stdout == ""
    errors = [line for line in res.stderr.splitlines()
              if line.startswith("Error:")]
    # click may add a suggestion ("Did you mean '--observed'?")
    assert len(errors) == 1
    assert errors[0].startswith("Error: No such option '--seed'.")
    res = runner.invoke(cli.main, [args[0], "--help"])
    assert res.exit_code == 0 and "--seed" not in res.stdout


def test_cli_non_finite_input_is_usage_error(tmp_path):
    xp, _ = _write_problem(tmp_path)
    yp = tmp_path / "y.csv"
    yp.write_text("\n".join(["1.0"] * 12 + ["nan"] + ["0.5"] * 12) + "\n")
    start = time.perf_counter()
    res = runner.invoke(cli.main, ["lasso", "--X", xp, "--y", str(yp),
                                   "--lam", "0.3"])
    assert time.perf_counter() - start < 1.0
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)   # no traceback
    assert res.output.strip().splitlines() == [
        "Error: %s:13: non-finite value" % yp]


@pytest.mark.parametrize("config, message", [
    ({"kind": "nope"}, "unknown experiment 'nope'"),
    ({"kind": "debias", "params": {"nreps": 10}},
     "experiment 'debias' takes no parameter 'nreps'"),
    ({"kind": "debias", "params": {"reps": 0}},
     "reps must be an integer of at least 2, not 0"),
    ({"kind": "mc_divergence", "params": {"kind": "svt", "n_real": 1,
                                          "m_grid": [2]}},
     "n_real must be an integer of at least 2, not 1"),
    ({"kind": "unbiasedness", "params": {"lam": -1.0}},
     "lam must be finite and nonnegative, not -1.0"),
    ({"kind": "debias", "params": {"lam": math.nan}},
     "lam must be finite and nonnegative, not nan"),
    # the worker count is --threads, never a config parameter
    ({"kind": "debias", "params": {"threads": 2}},
     "experiment 'debias' takes no parameter 'threads'"),
    ({"kind": "selection", "params": {"threads": 1}},
     "experiment 'selection' takes no parameter 'threads'"),
    ({"kind": "model_size", "params": {"threads": 1}},
     "experiment 'model_size' takes no parameter 'threads'"),
    ({"kind": "sparse_re", "params": {"threads": 1}},
     "experiment 'sparse_re' takes no parameter 'threads'"),
    ({"kind": "sos", "params": {"n_list": [5, 0]}},
     "n_list entry must be an integer of at least 1, not 0"),
    ({"kind": "unbiasedness", "params": {"p": 0}},
     "p must be an integer of at least 1, not 0"),
    ({"kind": "selection", "params": {"n_cand": 0}},
     "n_cand must be an integer of at least 1, not 0"),
    ({"kind": "coverage", "params": {"n": 0}},
     "n must be an integer of at least 1, not 0"),
    ({"kind": "coverage", "params": {"alpha": 2}},
     "alpha must be in (0, 1), not 2"),
    ({"kind": "sos", "params": {"sigma": 0.0}},
     "sigma must be positive and finite, not 0.0"),
    # raised by the experiment, not the config
    ({"kind": "mc_divergence", "params": {"kind": "foo"}},
     "kind must be 'svt' or 'enet'"),
    ({"kind": "mc_divergence", "params": {"kind": "svt", "threads": 1}},
     "experiment 'mc_divergence' takes no parameter 'threads'"),
])
def test_cli_run_bad_config_is_one_line_usage_error(tmp_path, config,
                                                    message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    res = runner.invoke(cli.main, ["run", "--config", str(cfg)])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)   # no traceback
    lines = res.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("Error: bad config: ")
    assert message in lines[0]


def test_cli_run_output_is_byte_identical(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "unbiasedness", "seed": 5, "params": {
        "n": 30, "p": 40, "s0": 2, "reps": 50}}))
    outputs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        res = runner.invoke(cli.main, ["run", "--config", str(cfg),
                                       "--out", str(out)])
        assert res.exit_code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_cli_run_out_file_takes_the_format(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "unbiasedness", "seed": 5, "params": {
        "n": 30, "p": 40, "s0": 2, "reps": 50}}))
    for fmt in ("csv", "json"):
        out = tmp_path / ("res." + fmt)
        args = ["run", "--config", str(cfg), "--format", fmt]
        res = runner.invoke(cli.main, args + ["--out", str(out)])
        assert res.exit_code == 0 and res.stdout == ""
        res = runner.invoke(cli.main, args)
        assert res.exit_code == 0
        assert out.read_text() == res.stdout
    assert out.read_text().startswith("{")
    assert (tmp_path / "res.csv").read_text().startswith("lam,")


def test_cli_sos_verify_params_reproduce_the_run(tmp_path):
    args = ["--n", "5", "--reps", "200", "--sigma", "0.5", "--seed", "3"]
    res = runner.invoke(cli.main, ["sos-verify"] + args)
    assert res.exit_code == 0
    payload = json.loads(res.stdout)
    assert payload["params"] == {"n_list": [5], "reps": 200, "sigma": 0.5}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "sos", "seed": 3,
                               "params": payload["params"]}))
    again = runner.invoke(cli.main, ["run", "--config", str(cfg)])
    assert again.exit_code == 0 and again.stdout == res.stdout


def test_cli_debias(tmp_path):
    xp, yp = _write_problem(tmp_path)
    args = ["debias", "--X", xp, "--y", yp, "--lam", "0.3",
            "--a0", ",".join(["1"] + ["0"] * 7)]
    res = runner.invoke(cli.main, args)
    assert res.exit_code == 0
    payload = json.loads(res.stdout)
    assert "theta_hat" in payload["results"]
    # the corrections draw nothing and need no noise level
    assert payload["seed"] is None and payload["params"] == {"lam": 0.3}
    res = runner.invoke(cli.main, args + ["--sigma", "1"])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)   # no traceback
    assert res.stdout == ""
    assert [line for line in res.stderr.splitlines()
            if line.startswith("Error:")] == [
        "Error: No such option '--sigma'."]


def test_cli_mc_div_map_lasso_is_an_invalid_choice(tmp_path):
    # the l1 map is --map enet at its default --gamma 0
    xp, yp = _write_problem(tmp_path)
    args = ["--X", xp, "--y", yp, "--lam", "0.3", "--m", "5"]
    for extra in ([], ["--gamma", "0"]):
        res = runner.invoke(cli.main, ["mc-div", "--map", "enet"] + args
                            + extra)
        assert res.exit_code == 0, extra
        assert json.loads(res.stdout)["params"]["gamma"] == 0.0
    res = runner.invoke(cli.main, ["mc-div", "--map", "lasso"] + args)
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)   # no traceback
    assert res.stdout == ""
    assert [line for line in res.stderr.splitlines()
            if line.startswith("Error:")] == [
        "Error: Invalid value for '--map': 'lasso' is not one of 'enet', "
        "'svt', 'soft'."]


def test_cli_non_finite_values_are_json_null(tmp_path):
    # one probe has no spread estimate: empirical_se is infinite
    yp = str(tmp_path / "y.csv")
    save_matrix_csv(np.linspace(-2.0, 2.0, 9)[:, None], yp)
    res = runner.invoke(cli.main, ["mc-div", "--map", "soft", "--y", yp,
                                   "--lam", "0.5", "--m", "1"])
    assert res.exit_code == 0

    def reject(name):
        raise ValueError("not JSON: %s" % name)

    payload = json.loads(res.stdout, parse_constant=reject)
    assert payload["results"]["empirical_se"] is None
    assert harness._jsonable([np.float32("nan"), -math.inf, 1.5]) == [
        None, None, 1.5]
    res = runner.invoke(cli.main, ["mc-div", "--map", "soft", "--y", yp,
                                   "--lam", "0.5", "--m", "1",
                                   "--format", "csv"])
    assert "empirical_se," in res.stdout.splitlines()


def test_cli_csv_keeps_nested_fields(tmp_path):
    xp, yp = _write_problem(tmp_path)
    args = ["lasso", "--X", xp, "--y", yp, "--lam", "0.1"]
    results = json.loads(runner.invoke(cli.main, args).stdout)["results"]
    res = runner.invoke(cli.main, args + ["--format", "csv"])
    assert res.exit_code == 0
    rows = dict(line.split(",") for line in res.stdout.splitlines())
    assert len(results["support"]) >= 2
    for name in ("support", "beta_nonzero"):
        for i, value in enumerate(results[name]):
            assert float(rows["%s.%d" % (name, i)]) == value
    assert float(rows["sure"]) == results["sure"]


def test_cli_unconverged_fit_exits_2(tmp_path, monkeypatch):
    monkeypatch.setattr(cli.solvers, "MAX_SWEEPS", 1)
    xp, yp = _write_problem(tmp_path)
    data = ["--X", xp, "--y", yp]
    for args in (["lasso", "--lam", "0.05"], ["enet", "--lam", "0.05"],
                 ["sure", "--lam", "0.05"], ["sure4sure", "--lam", "0.05"],
                 ["tune", "--lams", "0.05,0.3"],
                 ["debias", "--lam", "0.05", "--a0", "1,0,0,0,0,0,0,0"]):
        res = runner.invoke(cli.main, args + data)
        assert res.exit_code == 2, args
        assert "duality-gap tolerance" in res.stderr
        assert json.loads(res.stdout)["kind"] == args[0]
    # at the default lam of this shape the fixed-sign refit certifies every
    # fit after one sweep; at lam = 0.05 the support of one sweep is wrong
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "debias", "params": {
        "n": 40, "p": 30, "s0": 2, "reps": 4, "lam": 0.05}}))
    res = runner.invoke(cli.main, ["--threads", "1", "run", "--config",
                                   str(cfg)])
    assert res.exit_code == 2
    assert "duality-gap tolerance" in res.stderr
    assert json.loads(res.stdout)["results"]["unconverged"] > 0


def test_cli_run_unconverged_mc_divergence_exits_2(tmp_path, monkeypatch):
    cfgs = {}
    for kind in ("svt", "enet"):
        cfgs[kind] = tmp_path / ("%s.json" % kind)
        cfgs[kind].write_text(json.dumps({"kind": "mc_divergence", "params": {
            "kind": kind, "n_real": 2, "m_grid": [2]}}))
        res = runner.invoke(cli.main, ["run", "--config", str(cfgs[kind])])
        assert res.exit_code == 0 and res.stderr == "", kind
        assert json.loads(res.stdout)["results"]["unconverged"] == 0
    monkeypatch.setattr(cli.solvers, "MAX_SWEEPS", 1)
    counts = []
    for threads in ("1", "2"):
        # forked workers inherit the patched sweep cap; their counts come back
        res = runner.invoke(cli.main, ["--threads", threads, "run",
                                       "--config", str(cfgs["enet"])])
        assert res.exit_code == 2, threads
        assert "duality-gap tolerance" in res.stderr
        counts.append(json.loads(res.stdout)["results"]["unconverged"])
    # the base fit and every coordinate-descent fit inside the map: one per
    # map evaluation, 2 realizations of 2 probes and the base point
    assert counts == [1 + 2 * 3] * 2


def test_cli_capped_batch_fit_exits_2(tmp_path, monkeypatch):
    cfg = tmp_path / "selection.json"
    cfg.write_text(json.dumps({"kind": "selection", "params": {
        "n": 50, "p": 75, "reps": 20}}))
    model_size = tmp_path / "model_size.json"
    model_size.write_text(json.dumps({"kind": "model_size", "params": {
        "reps": 20}}))
    # at two workers the sweep cap is raised in a pool worker and comes
    # back through pickle as BatchUnconverged
    runs = (["run", "--config", str(cfg)],
            ["--threads", "2", "run", "--config", str(cfg)],
            ["--threads", "2", "run", "--config", str(model_size)],
            # 100 rows: at one sweep the refit certifies 95 of them
            ["coverage", "--n", "120", "--reps", "100"],
            ["sos-verify", "--n", "10", "--reps", "20"])
    res = runner.invoke(cli.main, runs[0])
    assert res.exit_code == 0 and res.stderr == ""
    monkeypatch.setattr(cli.solvers, "BATCH_MAX_SWEEPS", 1)
    for args in runs:
        res = runner.invoke(cli.main, args)
        assert res.exit_code == 2, args
        assert isinstance(res.exception, SystemExit)
        assert res.stderr.strip() == ("solver did not reach the "
                                      "duality-gap tolerance")
        assert res.stdout == ""

    def fail(*args, **kwargs):
        raise RuntimeError("not a sweep cap")
    # only the sweep cap is an exit 2; any other RuntimeError propagates
    monkeypatch.setattr(cli.solvers, "fit_lasso_batch", fail)
    res = runner.invoke(cli.main, runs[0])
    assert res.exit_code == 1
    assert isinstance(res.exception, RuntimeError)


def test_cli_debias_collinear_selection_is_usage_error(tmp_path):
    # column 7 is the mean of columns 2 and 3; the l1 fit selects all three
    gen = np.random.default_rng(3)
    x = gen.standard_normal((30, 8))
    x[:, 7] = (x[:, 2] + x[:, 3]) / 2
    y = 2 * x[:, 2] + 2 * x[:, 3] + x[:, 0] + gen.standard_normal(30)
    xp, yp = str(tmp_path / "X.csv"), str(tmp_path / "y.csv")
    save_matrix_csv(x, xp)
    save_matrix_csv(y[:, None], yp)
    res = runner.invoke(cli.main, ["debias", "--X", xp, "--y", yp,
                                   "--lam", "0.1",
                                   "--a0", ",".join(["1"] + ["0"] * 7)])
    assert res.exit_code == 1
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert res.stderr.strip().splitlines() == [
        "Error: selected columns are rank deficient (rank 6 < 7)"]


def test_cli_mc_div_unconverged_map_exits_2(tmp_path, monkeypatch):
    xp, yp = _write_problem(tmp_path)
    runs = [["mc-div", "--X", xp, "--y", yp, "--lam", "0.05", "--m", "3",
             "--map", "enet", "--gamma", gamma] for gamma in ("0", "1.0")]
    for args in runs:
        res = runner.invoke(cli.main, args)
        assert res.exit_code == 0 and res.stderr == "", args
    monkeypatch.setattr(cli.solvers, "MAX_SWEEPS", 1)
    for args in runs:
        res = runner.invoke(cli.main, args)
        assert res.exit_code == 2, args
        assert res.stderr.strip() == ("solver did not reach the "
                                      "duality-gap tolerance")
        assert json.loads(res.stdout)["kind"] == "mc_div"
