"""Command-line interface.

Exit codes: 0 on success, 1 on usage errors (including malformed or
non-finite input files), 2 when a numerical invariant check fails.
"""

from __future__ import annotations

import contextlib
import json
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


@contextlib.contextmanager
def _batch_fits():
    """Exit 2 with UNCONVERGED when a batch l1 fit reaches its sweep cap;
    the study then has no results to write."""
    try:
        yield
    except solvers.BatchUnconverged:
        click.echo(UNCONVERGED, err=True)
        sys.exit(INVARIANT_FAILURE)


def _echo_or_write(payload: dict, out: str | None, fmt: str) -> None:
    if fmt == "json":
        text = json.dumps(harness._jsonable(payload), sort_keys=True, indent=1,
                          allow_nan=False)
    else:
        # a null (non-finite) value is an empty field
        text = "\n".join("%s,%s" % (k, "%.17g" % v if isinstance(v, float)
                                     else "" if v is None else v)
                         for k, v in _flatten(payload.get("results", payload)))
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        click.echo(text)


def _check(ok: bool, message: str) -> None:
    """Reject bad option values at the boundary: one ``Error:`` line, exit 1."""
    if not ok:
        raise click.ClickException(message)


def _load_matrix(path: str) -> np.ndarray:
    """Read a CSV matrix; malformed or non-finite input is a usage error."""
    try:
        return harness.load_matrix_csv(path)
    except ValueError as exc:
        raise click.ClickException(str(exc))


def _load_problem(x_path: str, y_path: str, sigma: float) -> RegressionProblem:
    x = _load_matrix(x_path)
    y = _load_matrix(y_path).ravel()
    try:
        return RegressionProblem(x, y, sigma)
    except ValueError as exc:   # the shapes disagree
        raise click.ClickException(str(exc))


common = [
    click.option("--seed", type=int, default=1, show_default=True),
    click.option("--out", type=click.Path(), default=None,
                 help="Write output to this file instead of stdout."),
    click.option("--format", "fmt", type=click.Choice(["json", "csv"]),
                 default="json", show_default=True),
]


def with_common(fn):
    for opt in reversed(common):
        fn = opt(fn)
    return fn


@click.group()
@click.option("--threads", type=int, default=os.cpu_count(),
              show_default="logical cores",
              help="Parallelism level; results do not depend on it.")
@click.pass_context
def main(ctx, threads):
    """Unbiased risk estimation, second-order refinements, and friends."""
    ctx.ensure_object(dict)
    ctx.obj["threads"] = max(1, threads or 1)


@main.command("sos-verify")
@click.option("--n", type=int, default=20, show_default=True)
@click.option("--reps", type=int, default=20000, show_default=True)
@click.option("--sigma", type=float, default=1.0, show_default=True)
@with_common
def sos_verify(n, reps, sigma, seed, out, fmt):
    """Monte Carlo check of the second-order identity on the field corpus."""
    with _batch_fits():
        res = harness.experiment_sos(reps=reps, seed=seed, sigma=sigma,
                                     n_list=(n,))
    payload = harness.results_payload("sos", seed, {"n": n, "reps": reps}, res)
    _echo_or_write(payload, out, fmt)
    for name, row in res["fields"].items():
        click.echo("%-24s z=%.3f" % (name, row["z"]), err=True)
    if res["max_z"] > 4.0:
        click.echo("identity check failed: max z = %.3f" % res["max_z"],
                   err=True)
        sys.exit(INVARIANT_FAILURE)


def _fit_and_report(name, params, x_path, y_path, lams, gamma, sigma,
                    summarize, seed, out, fmt):
    """Fit the l1 / ridged-l1 path at each ``lams`` entry and write
    ``summarize(problem, fits)`` as the results; exit 2 after writing them
    when any fit missed the duality-gap tolerance."""
    problem = _load_problem(x_path, y_path, sigma)
    fits = [solvers.fit_lasso(problem, lam, gamma=gamma) for lam in lams]
    _echo_or_write(harness.results_payload(name, seed, params,
                                           summarize(problem, fits)), out, fmt)
    if not all(fit.converged for fit in fits):
        click.echo(UNCONVERGED, err=True)
        sys.exit(INVARIANT_FAILURE)


def _fit_command(name, default_gamma, summarize, doc=None):
    """Register a command that fits once at ``--lam``."""
    @main.command(name, help=doc)
    @click.option("--X", "x_path", type=click.Path(exists=True), required=True)
    @click.option("--y", "y_path", type=click.Path(exists=True), required=True)
    @click.option("--lam", type=float, required=True)
    @click.option("--gamma", type=float, default=default_gamma,
                  show_default=True)
    @click.option("--sigma", type=float, default=1.0, show_default=True)
    @with_common
    def cmd(x_path, y_path, lam, gamma, sigma, seed, out, fmt):
        _fit_and_report(name, {"lam": lam, "gamma": gamma, "sigma": sigma},
                        x_path, y_path, [lam], gamma, sigma, summarize,
                        seed, out, fmt)
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
@with_common
def svt_df(x_path, lam, sigma, seed, out, fmt):
    """Singular value thresholding: its exact divergence and tr J^2."""
    _check(lam >= 0, "--lam must be nonnegative, not %r" % lam)
    _check(sigma is None or sigma >= 0,
           "--sigma must be nonnegative, not %r" % sigma)
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
    _echo_or_write(harness.results_payload("svt_df", seed, params, results),
                   out, fmt)


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
@with_common
def mc_div(map_kind, x_path, y_path, lam, gamma, m, step, two_sided,
           seed, out, fmt):
    """Monte Carlo divergence of a fitted-value map at the given data."""
    _check(lam >= 0, "--lam must be nonnegative, not %r" % lam)
    _check(gamma >= 0, "--gamma must be nonnegative, not %r" % gamma)
    _check(m >= 1, "--m must be at least 1, not %d" % m)
    _check(step is None or step > 0, "--step must be positive, not %r" % step)
    if map_kind == "svt":
        if x_path is None:
            raise click.UsageError("--map svt requires --X (the matrix)")
        y = _load_matrix(x_path)
        f = divergence_mc.svt_map(lam)
    elif map_kind == "soft":
        if y_path is None:
            raise click.UsageError("--map soft requires --y")
        y = _load_matrix(y_path).ravel()
        f = lambda v: solvers.soft_threshold(v, lam)
    else:
        if x_path is None or y_path is None:
            raise click.UsageError("--map %s requires --X and --y" % map_kind)
        x = _load_matrix(x_path)
        y = _load_matrix(y_path).ravel()
        f = divergence_mc.lasso_fitted_map(x, lam, gamma)
    est = divergence_mc.mc_divergence(f, y, m, RngStream(seed), a=step,
                                      two_sided=two_sided)
    payload = harness.results_payload("mc_div", seed, {
        "map": map_kind, "lam": lam, "gamma": gamma, "m": m,
    }, {"value": est.value, "a": est.a, "se_bound": est.se_bound,
        "empirical_se": est.empirical_se})
    _echo_or_write(payload, out, fmt)
    if getattr(f, "unconverged", 0):
        click.echo(UNCONVERGED, err=True)
        sys.exit(INVARIANT_FAILURE)


@main.command("tune")
@click.option("--X", "x_path", type=click.Path(exists=True), required=True)
@click.option("--y", "y_path", type=click.Path(exists=True), required=True)
@click.option("--lams", type=str, required=True,
              help="Comma-separated penalty levels.")
@click.option("--sigma", type=float, default=1.0, show_default=True)
@with_common
def tune(x_path, y_path, lams, sigma, seed, out, fmt):
    """Pick the candidate penalty with the smallest risk estimate."""
    try:
        grid = [float(v) for v in lams.split(",") if v.strip()]
    except ValueError:
        raise click.UsageError("--lams must be a comma-separated float list")
    if not grid:
        raise click.UsageError("--lams must be nonempty")

    def summarize(problem, fits):
        values = [stein.sure(problem.y, fit.mu_hat, fit.df_hat, problem.sigma)
                  for fit in fits]
        pick = selection.sure_tune(values)
        return {"sure_values": values, "selected_index": pick,
                "selected_lam": grid[pick]}
    _fit_and_report("tune", {"lams": grid}, x_path, y_path, grid, 0.0, sigma,
                    summarize, seed, out, fmt)


@main.command("coverage")
@click.option("--n", type=int, default=500, show_default=True)
@click.option("--reps", type=int, default=2000, show_default=True)
@click.option("--alpha", type=float, default=0.05, show_default=True)
@with_common
def coverage(n, reps, alpha, seed, out, fmt):
    """Replication study of the loss confidence regions."""
    with _batch_fits():
        res = harness.experiment_coverage(n=n, reps=reps, alpha=alpha,
                                          seed=seed)
    payload = harness.results_payload("coverage", seed,
                                      {"n": n, "reps": reps, "alpha": alpha},
                                      res)
    _echo_or_write(payload, out, fmt)
    if not (res["coverage_two_sided"] >= 1 - alpha - 0.06
            and res["coverage_one_sided"] >= 1 - alpha - 0.06):
        click.echo("coverage fell below the tolerated band", err=True)
        sys.exit(INVARIANT_FAILURE)


@main.command("model-size")
@click.option("--observed", type=int, required=True,
              help="Observed support size.")
@click.option("--p", type=int, required=True)
@click.option("--alpha", type=float, default=0.05, show_default=True)
@with_common
def model_size(observed, p, alpha, seed, out, fmt):
    """Confidence interval for the expected support size."""
    try:
        ci = stein.model_size_ci(observed, p, alpha)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    payload = harness.results_payload("model_size", seed, {
        "observed": observed, "p": p, "alpha": alpha,
    }, {"lower": ci.lower, "upper": ci.upper, "level": ci.level})
    _echo_or_write(payload, out, fmt)


@main.command("debias")
@click.option("--X", "x_path", type=click.Path(exists=True), required=True)
@click.option("--y", "y_path", type=click.Path(exists=True), required=True)
@click.option("--lam", type=float, required=True)
@click.option("--a0", type=str, required=True,
              help="Comma-separated contrast direction of length p.")
@click.option("--sigma", type=float, default=1.0, show_default=True)
@with_common
def debias(x_path, y_path, lam, a0, sigma, seed, out, fmt):
    """De-biased estimate of the contrast <a0, beta>."""
    problem = _load_problem(x_path, y_path, sigma)
    try:
        a0_vec = np.array([float(v) for v in a0.split(",") if v.strip()])
    except ValueError:
        raise click.UsageError("--a0 must be a comma-separated float list")
    if a0_vec.size != problem.p:
        raise click.UsageError("--a0 must have length p = %d" % problem.p)
    direction = debias_mod.direction_setup(a0_vec, None, problem.p)
    try:
        rep = debias_mod.debias_theta(problem.x, problem.y, lam, direction,
                                      sigma=sigma)
    except ValueError as exc:   # collinear selection or too dense a fit
        raise click.ClickException(str(exc))
    payload = harness.results_payload("debias", seed, {"lam": lam}, {
        "theta_hat": rep.theta_hat, "theta_proj": rep.theta_proj,
        "nu_hat": rep.nu_hat, "b_hat": rep.b_hat, "a_hat": rep.a_hat,
        "frozen_support": rep.frozen_support,
        "note": "theta_hat estimates the contrast scaled by %.17g"
                % direction.scale})
    _echo_or_write(payload, out, fmt)
    if rep.unconverged:
        click.echo(UNCONVERGED, err=True)
        sys.exit(INVARIANT_FAILURE)


@main.command("run")
@click.option("--config", "config_path", type=click.Path(exists=True),
              required=True)
@with_common
@click.pass_context
def run(ctx, config_path, seed, out, fmt):
    """Run an experiment described by a JSON config file."""
    try:
        config = harness.ExperimentConfig.from_json(config_path)
    except (ValueError, TypeError) as exc:   # JSON, kind, params or reps
        raise click.ClickException("bad config: %s" % exc)
    if config.kind == "debias" and "threads" not in config.params:
        config.params["threads"] = ctx.obj.get("threads", 1)
    with _batch_fits():
        payload = harness.run_experiment(config)
    if out:
        harness.save_results_json(payload, out)
    else:
        _echo_or_write(payload, None, fmt)
    if payload["results"].get("unconverged"):
        click.echo(UNCONVERGED, err=True)
        sys.exit(INVARIANT_FAILURE)


if __name__ == "__main__":
    main()
