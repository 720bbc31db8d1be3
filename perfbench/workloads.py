"""The four benchmark workloads and the checks on their outputs.

Every op is one in-process ``steinsure`` command (click ``main`` with
``standalone_mode=False``).  A workload is a fixed mix of ops repeated in
cycles; each cycle draws fresh inputs from the workload seed and the cycle
index, so no two cycles repeat the same statistical work.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import traceback
from typing import Callable, NamedTuple

import click
import numpy as np

from steinsure import RegressionProblem, cli, harness, solvers, stein

SCHEMA = "stein-sure/1"


class Op(NamedTuple):
    kind: str                     # experiment kind or CLI command name
    argv: list                    # arguments after the global options
    work: int                     # work units the op completes
    check: Callable               # results dict -> error message or None
    cycle: int = 0


class Outcome(NamedTuple):
    op: Op
    code: object                  # exit code, or the exception type name
    stdout: str
    seconds: float


def cycle_seed(seed: int, cycle: int, op: int = 0) -> int:
    """Experiment seed for one op of a cycle, derived from the workload seed."""
    return int(np.random.SeedSequence([seed, cycle, op]).generate_state(1)[0])


def run_cli(argv: list, threads: int) -> tuple[object, str]:
    """Run one steinsure command in-process; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rv = cli.main.main(args=["--threads", str(threads)] + list(argv),
                               prog_name="steinsure", standalone_mode=False)
            code = rv if isinstance(rv, int) else 0
        except click.ClickException as exc:
            code = exc.exit_code
            err.write(exc.format_message())
        except click.exceptions.Abort:
            code = 1
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(
                exc.code is not None)
        except Exception as exc:  # an op that raises is a failed op
            code = type(exc).__name__
            traceback.print_exc(file=err)
    if code != 0:
        out.write(err.getvalue())
    return code, out.getvalue()


def strip_runtime(obj):
    if isinstance(obj, dict):
        return {k: strip_runtime(v) for k, v in obj.items() if k != "runtime_s"}
    if isinstance(obj, list):
        return [strip_runtime(v) for v in obj]
    return obj


def parse_results(outcome: Outcome) -> tuple[dict | None, str | None]:
    """The ``results`` block of an op's JSON output, or an error."""
    if outcome.code != 0:
        return None, "exit %s: %s" % (outcome.code, outcome.stdout[-300:])
    try:
        payload = json.loads(outcome.stdout)
    except ValueError as exc:
        return None, "output is not JSON (%s)" % exc
    if payload.get("schema") != SCHEMA:
        return None, "schema %r" % payload.get("schema")
    return payload["results"], None


def _gate(cond: bool, what: str) -> str | None:
    return None if cond else what


def _close(value: float, ref: float) -> bool:
    """Agreement with a direct library call, to a relative 1e-8."""
    return abs(value - ref) <= 1e-8 * (1.0 + abs(ref))


def _no_check(res):
    return None


def stouffer(signed_z: list) -> float:
    """Combine independent z-scores: their sum over the root of their count."""
    return sum(signed_z) / math.sqrt(len(signed_z))


def _write_config(workdir: str, name: str, kind: str, seed: int,
                  params: dict) -> str:
    path = os.path.join(workdir, name + ".json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"kind": kind, "seed": seed, "params": params}, handle)
    return path


class Workload:
    name = ""
    work_unit = ""
    # worker count for the traced run; None keeps the untraced count
    traced_threads: int | None = None
    # cycles per phase of a traced run: fixed, so that its counts repeat
    trace_cycles = 1

    def __init__(self, seed: int, workdir: str, smoke: bool = False):
        self.seed = seed
        self.workdir = workdir
        self.smoke = smoke

    def setup(self) -> None:
        """Generate the input files every cycle reads."""

    def cycle(self, index: int, smoke: bool = False) -> list[Op]:
        raise NotImplementedError

    def check_all(self, ops: list, results: list) -> list:
        """Checks that need every op of a phase; one error or None per op.

        ``results`` holds None for an op whose output did not parse.
        """
        return [None] * len(results)

    def untimed_check(self) -> str | None:
        """A check made once per run, outside the timed phase."""
        return None


# ---------------------------------------------------------------------------
# replicate


class Replicate(Workload):
    name = "replicate"
    work_unit = "replications"
    trace_cycles = 2
    # (kind, full size, smoke size).  The full sizes are the acceptance
    # suite's replication counts (tests/test_acceptance.py) scaled by one
    # common factor of 1/10, so each study keeps its share of the suite's
    # batch-CD work
    MIX = (
        ("unbiasedness", {"n": 100, "p": 200, "reps": 500}, {"reps": 200}),
        ("coverage", {"n": 500, "p": 100, "reps": 200}, {"reps": 200}),
        ("model_size", {"reps": 100}, {"reps": 20}),
        ("selection", {"n": 100, "p": 150, "n_cand": 8, "reps": 200},
         {"n": 50, "p": 75, "reps": 20}),
    )
    CHECKS = {
        "selection": lambda res: _gate(res["ok"], "selection exceedance %.3f"
                                       % res["exceedance"]),
        "model_size": lambda res: _gate(res["all_ok"], "model_size grid not ok"),
    }

    def cycle(self, index, smoke=False):
        ops = []
        for j, (kind, params, smoke_params) in enumerate(self.MIX):
            if smoke or self.smoke:
                params = {**params, **smoke_params}
            reps = params["reps"]
            path = _write_config(self.workdir, "op%d" % j, kind,
                                 cycle_seed(self.seed, index, j), params)

            def check(res, kind=kind, reps=reps):
                if res["reps"] != reps:
                    return "%s ran %s replications, not %d" % (
                        kind, res["reps"], reps)
                return self.CHECKS[kind](res) if kind in self.CHECKS else None
            ops.append(Op(kind, ["run", "--config", path], reps, check, index))
        return ops

    def check_all(self, ops, results):
        """Unbiasedness and coverage gates over every op of the phase.

        One op's z-score exceeds 4 by chance in about one seed of 200, so
        the signed z-scores combine across ops (Stouffer) and must stay
        within 4.  Coverage pools the replications of all coverage ops and
        must reach 1 - alpha - 0.06, the band `steinsure coverage` enforces.
        Every op of a kind fails when its combined gate fails.
        """
        kinds = [op.kind if r is not None else None
                 for op, r in zip(ops, results)]
        unb = [r for r, k in zip(results, kinds) if k == "unbiasedness"]
        cov = [r for r, k in zip(results, kinds) if k == "coverage"]
        errors = {}
        if unb:
            z_sure = stouffer([math.copysign(r["z_sure_unbiased"],
                                             r["mean_sure"] - r["mean_loss"])
                               for r in unb])
            z_rhat = stouffer([math.copysign(
                r["z_r_hat_unbiased"], r["mean_r_hat"] - r["mean_sq_loss_err"])
                for r in unb])
            errors["unbiasedness"] = _gate(
                abs(z_sure) <= 4.0 and abs(z_rhat) <= 4.0,
                "unbiasedness z_sure=%.2f z_r_hat=%.2f over %d ops"
                % (z_sure, z_rhat, len(unb)))
        if cov:
            reps = sum(r["reps"] for r in cov)
            floor = 1.0 - cov[0]["alpha"] - 0.06
            two = sum(r["coverage_two_sided"] * r["reps"] for r in cov) / reps
            one = sum(r["coverage_one_sided"] * r["reps"] for r in cov) / reps
            errors["coverage"] = _gate(
                two >= floor and one >= floor,
                "coverage %.4f/%.4f below %.3f over %d replications"
                % (two, one, floor, reps))
        return [errors.get(k) for k in kinds]

    def untimed_check(self):
        """Batch l1 rows match the scalar solver, with a strict KKT report."""
        gen = np.random.default_rng(cycle_seed(self.seed, 10**6))
        n, p, lam = 60, 90, 0.25
        x = gen.standard_normal((n, p))
        beta = np.zeros(p)
        beta[:4] = 1.0
        ys = x @ beta + gen.standard_normal((8, n))
        betas = solvers.fit_lasso_batch(x, ys, lam)
        for row, y in zip(betas, ys):
            problem = RegressionProblem(x, y)
            fit = solvers.fit_lasso(problem, lam)
            if not fit.converged or np.max(np.abs(row - fit.beta)) > 1e-6:
                return "fit_lasso_batch row differs from fit_lasso"
            if not solvers.check_kkt(problem, lam, row, margin=1e-6).strict:
                return "fit_lasso_batch row fails a strict KKT check"
        return None


# ---------------------------------------------------------------------------
# probe


class Probe(Workload):
    name = "probe"
    work_unit = "map evaluations"
    trace_cycles = 4
    # acceptance_08 shapes and probe counts, with fewer realizations per
    # table: svt keeps m in (10, 40, 160) of (10, 40, 160, 225) and enet m
    # in (10, 40) of (10, 40, 160), so that each map takes a similar share
    # of the time and the fixed base evaluation f(y) stays a small share
    TABLES = (
        ("svt", {"m_grid": [10, 40, 160], "n_real": 4}),
        ("enet", {"m_grid": [10, 40], "n_real": 4}),
    )
    SMOKE = (("svt", {"m_grid": [10, 40], "n_real": 3}),
             ("enet", {"m_grid": [10], "n_real": 3}))

    def cycle(self, index, smoke=False):
        ops = []
        for j, (table, params) in enumerate(self.SMOKE if smoke or self.smoke
                                            else self.TABLES):
            params = {"kind": table, **params}
            evals = params["n_real"] * sum(m + 1 for m in params["m_grid"])
            path = _write_config(self.workdir, "op%d" % j, "mc_divergence",
                                 cycle_seed(self.seed, index, j), params)
            ops.append(Op(table, ["run", "--config", path], evals,
                          _no_check, index))
        return ops

    def check_all(self, ops, results):
        """Mean at the largest m within 4 standard errors of df_exact.

        The gate holds per map over every table of the phase: the mean of
        the tables' deviations from their ``df_exact`` against its standard
        error.  With 4 realizations a single table's empirical standard
        error is too rough to test each table at 4 of them.  Every table of
        a map fails when its gate fails.
        """
        errors = {}
        for kind in {op.kind for op in ops}:
            rows = [(r["rows"][-1], r["df_exact"], r["n_real"])
                    for op, r in zip(ops, results)
                    if r is not None and op.kind == kind]
            if not rows:
                continue
            dev = sum(last["mean"] - df for last, df, _ in rows) / len(rows)
            se = math.sqrt(sum(last["std"] ** 2 / n
                               for last, _, n in rows)) / len(rows)
            errors[kind] = _gate(abs(dev) <= 4.0 * se,
                                 "%s mean deviation %.4f from df_exact over %d "
                                 "tables exceeds 4 se = %.4f"
                                 % (kind, dev, len(rows), 4.0 * se))
        return [errors.get(op.kind) if r is not None else None
                for op, r in zip(ops, results)]

    def untimed_check(self):
        """svt df_exact matches central finite differences on a small matrix."""
        gen = np.random.default_rng(cycle_seed(self.seed, 10**6))
        y = gen.standard_normal((6, 5)) * 2.0
        lam, h = 0.8, 1e-6
        fd = 0.0
        for idx in np.ndindex(*y.shape):
            e = np.zeros_like(y)
            e[idx] = h
            fd += (solvers.svt(y + e, lam).matrix[idx]
                   - solvers.svt(y - e, lam).matrix[idx]) / (2 * h)
        exact = solvers.svt(y, lam).df_exact
        return _gate(abs(fd - exact) <= 1e-5 * max(1.0, abs(exact)),
                     "svt df_exact %.8f vs finite differences %.8f" % (exact, fd))


# ---------------------------------------------------------------------------
# debias


class Debias(Workload):
    name = "debias"
    work_unit = "replications"
    traced_threads = 1      # traced replications run in-process
    trace_cycles = 2
    PARAMS = {"n": 200, "p": 300, "s0": 5, "reps": 128}
    SMOKE = {"n": 60, "p": 80, "s0": 3, "reps": 64}

    def cycle(self, index, smoke=False):
        params = dict(self.SMOKE if smoke or self.smoke else self.PARAMS)
        path = _write_config(self.workdir, "debias", "debias",
                             cycle_seed(self.seed, index), params)

        def check(res, reps=params["reps"]):
            return _gate(res["reps"] == reps, "debias ran %s replications, not %d"
                         % (res["reps"], reps))
        return [Op("debias", ["run", "--config", path], params["reps"], check,
                   index)]

    def check_all(self, ops, results):
        """``pivot_mean_z`` and ``variance_z`` at most 4 over the whole phase.

        One op's variance z rests on a sample fourth moment of 128 pivots
        and has heavy tails, so the gates combine the ops' signed z-scores
        (Stouffer: their sum over the square root of their count).  Every op
        of the phase fails when a combined gate fails.
        """
        done = [r for r in results if r is not None]
        if not done:
            return [None] * len(results)
        z_mean = stouffer([math.copysign(r["pivot_mean_z"], r["pivot_mean"])
                           for r in done])
        z_var = stouffer([math.copysign(r["variance_z"],
                                        r["pivot_var"] - r["v_star_mean"])
                          for r in done])
        error = _gate(abs(z_mean) <= 4.0 and abs(z_var) <= 4.0,
                      "debias pivot_mean_z=%.2f variance_z=%.2f over %d ops"
                      % (z_mean, z_var, len(done)))
        return [error] * len(results)


# ---------------------------------------------------------------------------
# cli


class Cli(Workload):
    name = "cli"
    work_unit = "commands"
    trace_cycles = 8
    N, P = 500, 400
    Q, R = 101, 100

    def setup(self):
        gen = np.random.default_rng(self.seed)
        n, p = self.N, self.P
        self.x = gen.standard_normal((n, p))
        beta = np.zeros(p)
        beta[:10] = 0.5
        self.y = self.x @ beta + gen.standard_normal(n)
        u = np.linalg.qr(gen.standard_normal((self.Q, 10)))[0]
        v = np.linalg.qr(gen.standard_normal((self.R, 10)))[0]
        self.m = 40.0 * u @ v.T + gen.standard_normal((self.Q, self.R))
        self.paths = {k: os.path.join(self.workdir, k + ".csv")
                      for k in ("X", "y", "M")}
        harness.save_matrix_csv(self.x, self.paths["X"])
        harness.save_matrix_csv(self.y[:, None], self.paths["y"])
        harness.save_matrix_csv(self.m, self.paths["M"])
        self.lam0 = harness.default_lam(n, p, 1.0)
        self._refs = {}

    def _params(self, index):
        gen = np.random.default_rng(cycle_seed(self.seed, index))
        return (float(self.lam0 * gen.uniform(0.8, 1.25)),
                float(10.0 * gen.uniform(0.8, 1.25)),
                int(gen.integers(5, 60)), int(gen.integers(1, 2**31)))

    def cycle(self, index, smoke=False):
        lam, lam_svt, observed, seed = self._params(index)
        xy = ["--X", self.paths["X"], "--y", self.paths["y"]]
        grid = ",".join(repr(float(v)) for v in lam * np.geomspace(0.5, 2.0, 8))
        cmds = [
            ("lasso", xy + ["--lam", repr(lam)], self._ref_check(lam, 0.0)),
            ("enet", xy + ["--lam", repr(lam), "--gamma", "5"],
             self._ref_check(lam, 5.0)),
            ("sure", xy + ["--lam", repr(lam)], self._ref_check(lam, 0.0)),
            ("sure4sure", xy + ["--lam", repr(lam)], self._ref_check(lam, 0.0)),
            ("tune", xy + ["--lams", grid], lambda res: _gate(
                res["selected_index"] == int(np.argmin(res["sure_values"])),
                "tune did not pick the smallest risk estimate")),
            ("svt-df", ["--X", self.paths["M"], "--lam", repr(lam_svt)],
             lambda res: _gate(_close(res["df_exact"], solvers.svt(
                 self.m, lam_svt).df_exact), "svt-df differs from the library")),
            ("mc-div", ["--map", "svt", "--X", self.paths["M"], "--lam",
                        repr(lam_svt), "--m", "20", "--seed", str(seed)],
             _no_check),
            ("model-size", ["--observed", str(observed), "--p", str(self.P)],
             lambda res: _gate(res["lower"] <= res["upper"], "empty interval")),
        ]
        return [Op(name, [name] + argv, 1, check, index)
                for name, argv, check in cmds]

    def _ref_check(self, lam, gamma):
        """Compare sure and df_hat with a direct library call on the arrays."""
        def check(res):
            if (lam, gamma) not in self._refs:
                fit = solvers.fit_lasso(RegressionProblem(self.x, self.y), lam,
                                        gamma=gamma)
                self._refs[lam, gamma] = {
                    "sure": stein.sure(self.y, fit.mu_hat, fit.df_hat, 1.0),
                    "df_hat": fit.df_hat}
            for key, ref in self._refs[lam, gamma].items():
                if not _close(res[key], ref):
                    return "%s %r differs from the library's %r" % (
                        key, res[key], ref)
            return None
        return check


WORKLOADS = {w.name: w for w in (Replicate, Probe, Debias, Cli)}
