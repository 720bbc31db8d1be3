"""Command-line interface.

Every command writes its output through ``_emit`` and then exits 2 when a
numerical invariant failed; a batch fit at its sweep cap exits 2 with no
output.  Every usage error, a malformed or non-finite input file included,
is one ``Error:`` line and exit 1.
"""

from __future__ import annotations

import math
import os
import sys

import click
import numpy as np

from .core import RegressionProblem, RngStream
from . import debias as debias_mod
from . import divergence_mc, harness, selection, solvers, stein

# exit-code contract: usage errors are 1; 2 is reserved for invariant failures
click.UsageError.exit_code = 1

INVARIANT_FAILURE = 2
UNCONVERGED = "solver did not reach the duality-gap tolerance"


def _flatten(obj, prefix=""):
    """(dotted key, leaf) pairs; dict keys sorted, list items by index."""
    if not isinstance(obj, (dict, list)):
        return [(prefix, obj)]
    items = sorted(obj.items()) if isinstance(obj, dict) else enumerate(obj)
    return [row for key, value in items for row in _flatten(
        value, "%s.%s" % (prefix, key) if prefix else str(key))]


def _emit(payload: dict, out: str | None, fmt: str,
          failure: str | None = None) -> None:
    """The only writer: ``payload`` as JSON, or its results as flattened CSV,
    to ``out`` or stdout.  Then, when ``failure`` names a failed invariant,
    print it and exit 2."""
    if fmt == "json":
        text = harness.payload_json(payload)
    else:
        # a null (non-finite) value is an empty field
        text = "\n".join("%s,%s" % (k, "%.17g" % v if isinstance(v, float)
                                     else "" if v is None else v)
                         for k, v in _flatten(payload["results"]))
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        click.echo(text)
    if failure:
        click.echo(failure, err=True)
        sys.exit(INVARIANT_FAILURE)


def _check(ok: bool, message: str) -> None:
    """Reject bad input at the boundary: one ``Error:`` line, exit 1."""
    if not ok:
        raise click.ClickException(message)


def _checked(fn, *args, **kwargs):
    """``fn(*args, **kwargs)``; a ValueError it raises is a usage error."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        raise click.ClickException(str(exc))


def _check_penalty(option: str, value: float) -> None:
    """An l1 or ridge penalty must be finite and nonnegative; NaN fails."""
    _check(0.0 <= value < math.inf,
           "%s must be nonnegative and finite, not %r" % (option, value))


def _floats(option: str, text: str) -> list:
    """The entries of a nonempty comma-separated float list."""
    try:
        values = [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        values = []
    _check(values, "%s must be a nonempty comma-separated float list, not %r"
           % (option, text))
    return values


def _load_matrix(path: str) -> np.ndarray:
    """Read a CSV matrix; malformed or non-finite input is a usage error."""
    return _checked(harness.load_matrix_csv, path)


def _load_problem(x_path: str, y_path: str, sigma=1.0) -> RegressionProblem:
    # a shape mismatch is a usage error too
    return _checked(RegressionProblem, _load_matrix(x_path),
                    _load_matrix(y_path).ravel(), sigma)


def _study(threads: int, make_config, *args) -> dict:
    """The payload of the experiment ``make_config(*args)`` on ``threads``
    workers.  A ValueError or TypeError from the config or the experiment is
    a usage error; a batch fit at its sweep cap leaves no results, so it
    exits 2 with no output."""
    try:
        return harness.run_experiment(make_config(*args), threads)
    except (ValueError, TypeError) as exc:
        raise click.ClickException("bad config: %s" % exc)
    except solvers.BatchUnconverged:
        click.echo(UNCONVERGED, err=True)
        sys.exit(INVARIANT_FAILURE)


output_options = [
    click.option("--out", type=click.Path(), default=None,
                 help="Write output to this file instead of stdout."),
    click.option("--format", "fmt", type=click.Choice(["json", "csv"]),
                 default="json", show_default=True),
]


def with_output(fn):
    for opt in reversed(output_options):
        fn = opt(fn)
    return fn


@click.group()
@click.option("--threads", type=int, default=os.cpu_count() or 1,
              show_default="logical cores",
              help="Worker processes for `run` of an mc_divergence, debias, "
                   "selection, model_size or sparse_re config, at most one "
                   "per usable core; results do not depend on it.")
@click.pass_context
def main(ctx, threads):
    """Unbiased risk estimation, second-order refinements, and friends."""
    _check(threads >= 1, "--threads must be at least 1, not %d" % threads)
    ctx.ensure_object(dict)
    ctx.obj["threads"] = threads


@main.command("sos-verify")
@click.option("--n", type=int, default=20, show_default=True)
@click.option("--reps", type=int, default=20000, show_default=True)
@click.option("--sigma", type=float, default=1.0, show_default=True)
@click.option("--seed", type=int, default=1, show_default=True)
@with_output
@click.pass_context
def sos_verify(ctx, n, reps, sigma, seed, out, fmt):
    """Monte Carlo check of the second-order identity on the field corpus."""
    payload = _study(ctx.obj["threads"], harness.ExperimentConfig, "sos", seed,
                     {"n_list": [n], "reps": reps, "sigma": sigma})
    res = payload["results"]
    for name, row in res["fields"].items():
        click.echo("%-24s z=%.3f" % (name, row["z"]), err=True)
    _emit(payload, out, fmt, None if res["max_z"] <= 4.0 else
          "identity check failed: max z = %.3f" % res["max_z"])


def _fit_and_report(name, params, x_path, y_path, lams, gamma, sigma,
                    summarize, out, fmt):
    """Fit the l1 / ridged-l1 path at each ``lams`` entry and write
    ``summarize(problem, fits)`` as the results; exit 2 after writing them
    when any fit missed the duality-gap tolerance."""
    problem = _load_problem(x_path, y_path, sigma)
    fits = [solvers.fit_lasso(problem, lam, gamma=gamma) for lam in lams]
    _emit(harness.results_payload(name, None, params, summarize(problem, fits)),
          out, fmt, None if all(fit.converged for fit in fits) else UNCONVERGED)


def _fit_command(name, default_gamma, summarize, doc=None):
    """Register a command that fits once at ``--lam``."""
    @main.command(name, help=doc)
    @click.option("--X", "x_path", type=click.Path(exists=True), required=True)
    @click.option("--y", "y_path", type=click.Path(exists=True), required=True)
    @click.option("--lam", type=float, required=True)
    @click.option("--gamma", type=float, default=default_gamma,
                  show_default=True)
    @click.option("--sigma", type=float, default=1.0, show_default=True)
    @with_output
    def cmd(x_path, y_path, lam, gamma, sigma, out, fmt):
        _check_penalty("--lam", lam)
        _check_penalty("--gamma", gamma)
        _fit_and_report(name, {"lam": lam, "gamma": gamma, "sigma": sigma},
                        x_path, y_path, [lam], gamma, sigma, summarize,
                        out, fmt)
    cmd.__name__ = name
    return cmd


def _fit_summary(problem, fits):
    fit = fits[0]
    rep = stein.sure_from_fit(fit, problem.y, problem.sigma)
    return {"support": fit.support, "df_hat": fit.df_hat,
            "trace_grad_sq": fit.trace_grad_sq, "gap": fit.gap,
            "sure": rep.sure, "r_hat": rep.r_hat, "r_prime": rep.r_prime,
            "beta_nonzero": fit.beta[fit.support]}


def _sure_summary(problem, fits):
    fit = fits[0]
    value = stein.sure(problem.y, fit.mu_hat, fit.df_hat, problem.sigma)
    return {"sure": value, "sure_plus": max(value, 0.0), "df_hat": fit.df_hat}


def _sure4sure_summary(problem, fits):
    rep = stein.sure_from_fit(fits[0], problem.y, problem.sigma)
    return {"sure": rep.sure, "r_hat": rep.r_hat, "r_prime": rep.r_prime,
            "r_double_prime": rep.r_double_prime, "df_hat": rep.df_hat,
            "trace_grad_sq": rep.trace_grad_sq}


_fit_command("lasso", 0.0, _fit_summary)
_fit_command("enet", 1.0, _fit_summary)
_fit_command("sure", 0.0, _sure_summary,
             "Unbiased risk estimate of an l1 / ridged-l1 fit.")
_fit_command("sure4sure", 0.0, _sure4sure_summary,
             "Second-order risk estimates (accuracy of the risk estimate "
             "itself).")


@main.command("svt-df")
@click.option("--X", "x_path", type=click.Path(exists=True), required=True,
              help="Observed matrix, CSV.")
@click.option("--lam", type=float, required=True)
@click.option("--sigma", type=float, default=None,
              help="Noise level; adds sure, r_hat and r_prime of the SVT "
                   "estimate.")
@with_output
def svt_df(x_path, lam, sigma, out, fmt):
    """Singular value thresholding: its exact divergence and tr J^2."""
    _check_penalty("--lam", lam)
    _check(sigma is None or 0.0 <= sigma < math.inf,
           "--sigma must be nonnegative and finite, not %r" % sigma)
    y = _load_matrix(x_path)
    res = solvers.svt(y, lam)
    params, results = {"lam": lam}, {
        "df_exact": res.df_exact, "degenerate": res.degenerate,
        "shape": list(y.shape), "trace_grad_sq": res.trace_grad_sq,
    }
    if sigma is not None:
        rep = stein.sure_for_sure(y.ravel(), res.matrix.ravel(), res.df_exact,
                                  res.trace_grad_sq, sigma)
        params["sigma"] = sigma
        results.update(sure=rep.sure, r_hat=rep.r_hat, r_prime=rep.r_prime)
    _emit(harness.results_payload("svt_df", None, params, results), out, fmt)


@main.command("mc-div")
@click.option("--map", "map_kind", type=click.Choice(["lasso", "enet", "svt",
                                                      "soft"]), required=True)
@click.option("--X", "x_path", type=click.Path(exists=True), default=None)
@click.option("--y", "y_path", type=click.Path(exists=True), default=None)
@click.option("--lam", type=float, required=True)
@click.option("--gamma", type=float, default=0.0, show_default=True)
@click.option("--m", type=int, default=100, show_default=True)
@click.option("--step", type=float, default=None)
@click.option("--two-sided", is_flag=True, default=False)
@click.option("--seed", type=int, default=1, show_default=True)
@with_output
def mc_div(map_kind, x_path, y_path, lam, gamma, m, step, two_sided,
           seed, out, fmt):
    """Monte Carlo divergence of a fitted-value map at the given data."""
    _check_penalty("--lam", lam)
    _check_penalty("--gamma", gamma)
    _check(gamma == 0.0 or map_kind == "enet",
           "--gamma must be 0 for --map %s, not %r" % (map_kind, gamma))
    _check(m >= 1, "--m must be at least 1, not %d" % m)
    _check(step is None or 0.0 < step < math.inf,
           "--step must be positive and finite, not %r" % step)
    if map_kind == "svt":
        _check(x_path is not None, "--map svt requires --X (the matrix)")
        y = _load_matrix(x_path)
        f = divergence_mc.svt_map(lam)
    elif map_kind == "soft":
        _check(y_path is not None, "--map soft requires --y")
        y = _load_matrix(y_path).ravel()
        f = lambda v: solvers.soft_threshold(v, lam)
    else:
        _check(x_path is not None and y_path is not None,
               "--map %s requires --X and --y" % map_kind)
        x = _load_matrix(x_path)
        y = _load_matrix(y_path).ravel()
        f = divergence_mc.lasso_fitted_map(x, lam, gamma)
    # a step that overflows the probe or is below y's resolution: usage error
    est = _checked(divergence_mc.mc_divergence, f, y, m, RngStream(seed),
                   a=step, two_sided=two_sided)
    payload = harness.results_payload("mc_div", seed, {
        "map": map_kind, "lam": lam, "gamma": gamma, "m": m,
    }, {"value": est.value, "a": est.a, "se_bound": est.se_bound,
        "empirical_se": est.empirical_se})
    _emit(payload, out, fmt,
          UNCONVERGED if getattr(f, "unconverged", 0) else None)


@main.command("tune")
@click.option("--X", "x_path", type=click.Path(exists=True), required=True)
@click.option("--y", "y_path", type=click.Path(exists=True), required=True)
@click.option("--lams", type=str, required=True,
              help="Comma-separated penalty levels.")
@click.option("--sigma", type=float, default=1.0, show_default=True)
@with_output
def tune(x_path, y_path, lams, sigma, out, fmt):
    """Pick the candidate penalty with the smallest risk estimate."""
    grid = _floats("--lams", lams)
    for lam in grid:
        _check_penalty("--lams", lam)

    def summarize(problem, fits):
        values = [stein.sure(problem.y, fit.mu_hat, fit.df_hat, problem.sigma)
                  for fit in fits]
        pick = selection.sure_tune(values)
        return {"sure_values": values, "selected_index": pick,
                "selected_lam": grid[pick]}
    _fit_and_report("tune", {"lams": grid}, x_path, y_path, grid, 0.0, sigma,
                    summarize, out, fmt)


@main.command("coverage")
@click.option("--n", type=int, default=500, show_default=True)
@click.option("--reps", type=int, default=2000, show_default=True)
@click.option("--alpha", type=float, default=0.05, show_default=True)
@click.option("--seed", type=int, default=1, show_default=True)
@with_output
@click.pass_context
def coverage(ctx, n, reps, alpha, seed, out, fmt):
    """Replication study of the loss confidence regions."""
    payload = _study(ctx.obj["threads"], harness.ExperimentConfig, "coverage",
                     seed, {"n": n, "reps": reps, "alpha": alpha})
    res = payload["results"]
    _emit(payload, out, fmt, None if (
        res["coverage_two_sided"] >= 1 - alpha - 0.06
        and res["coverage_one_sided"] >= 1 - alpha - 0.06)
        else "coverage fell below the tolerated band")


@main.command("model-size")
@click.option("--observed", type=int, required=True,
              help="Observed support size.")
@click.option("--p", type=int, required=True)
@click.option("--alpha", type=float, default=0.05, show_default=True)
@with_output
def model_size(observed, p, alpha, out, fmt):
    """Confidence interval for the expected support size."""
    ci = _checked(stein.model_size_ci, observed, p, alpha)
    payload = harness.results_payload("model_size", None, {
        "observed": observed, "p": p, "alpha": alpha,
    }, {"lower": ci.lower, "upper": ci.upper, "level": ci.level})
    _emit(payload, out, fmt)


@main.command("debias")
@click.option("--X", "x_path", type=click.Path(exists=True), required=True)
@click.option("--y", "y_path", type=click.Path(exists=True), required=True)
@click.option("--lam", type=float, required=True)
@click.option("--a0", type=str, required=True,
              help="Comma-separated contrast direction of length p.")
@with_output
def debias(x_path, y_path, lam, a0, out, fmt):
    """De-biased estimate of the contrast <a0, beta>."""
    _check_penalty("--lam", lam)
    problem = _load_problem(x_path, y_path)
    a0_vec = np.array(_floats("--a0", a0))
    _check(a0_vec.size == problem.p, "--a0 must have length p = %d" % problem.p)
    direction = _checked(debias_mod.direction_setup, a0_vec, None,
                         problem.p)
    # a collinear selection or too dense a fit is a usage error
    rep = _checked(debias_mod.debias_theta, problem.x, problem.y, lam,
                   direction)
    payload = harness.results_payload("debias", None, {"lam": lam}, {
        "theta_hat": rep.theta_hat, "theta_proj": rep.theta_proj,
        "nu_hat": rep.nu_hat, "b_hat": rep.b_hat, "a_hat": rep.a_hat,
        "frozen_support": rep.frozen_support,
        "note": "theta_hat estimates the contrast scaled by %.17g"
                % direction.scale})
    _emit(payload, out, fmt, UNCONVERGED if rep.unconverged else None)


@main.command("run")
@click.option("--config", "config_path", type=click.Path(exists=True),
              required=True)
@with_output
@click.pass_context
def run(ctx, config_path, out, fmt):
    """Run an experiment described by a JSON config file, which names the
    seed."""
    payload = _study(ctx.obj["threads"], harness.ExperimentConfig.from_json,
                     config_path)
    _emit(payload, out, fmt,
          UNCONVERGED if payload["results"].get("unconverged") else None)


if __name__ == "__main__":
    main()
