"""Replication experiments and result serialization.

Every experiment is a pure function of its parameters and a seed: the same
call produces bit-identical results regardless of the parallelism level,
because each replication draws from a counter-based stream keyed by its
index.  Results serialize to JSON under the schema tag ``stein-sure/1`` and
tables round-trip through CSV at 17 significant digits.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr

from .core import (RegressionProblem, RngStream, gaussian_design, replicate,
                   sample_variance, workers)
from . import debias as debias_mod
from . import divergence_mc, selection, solvers, stein

SCHEMA = "stein-sure/1"


# ---------------------------------------------------------------------------
# serialization


def load_matrix_csv(path: str) -> np.ndarray:
    """Read a numeric CSV matrix; a ragged row, a non-numeric field or a
    NaN or infinite value raises ValueError naming ``path:line``."""
    rows = []
    linenos = []
    width = None
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            linenos.append(lineno)
            parts = line.split(",")
            if width is None:
                width = len(parts)
            elif len(parts) != width:
                raise ValueError(
                    "%s:%d: expected %d fields, found %d"
                    % (path, lineno, width, len(parts)))
            try:
                rows.append([float(v) for v in parts])
            except ValueError as exc:
                raise ValueError("%s:%d: non-numeric field (%s)"
                                 % (path, lineno, exc)) from None
    if not rows:
        raise ValueError("%s: empty matrix" % path)
    matrix = np.asarray(rows, dtype=float)
    bad = np.flatnonzero(~np.isfinite(matrix).all(axis=1))
    if bad.size:
        raise ValueError("%s:%d: non-finite value" % (path, linenos[bad[0]]))
    return matrix


def save_matrix_csv(matrix: np.ndarray, path: str) -> None:
    """Write a matrix in round-trippable decimal (17 significant digits)."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    with open(path, "w", encoding="utf-8") as handle:
        for row in matrix:
            handle.write(",".join("%.17g" % v for v in row) + "\n")


def _jsonable(obj):
    """Plain JSON types; NaN and infinities become None (JSON null)."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (float, np.floating)):
        return float(obj) if math.isfinite(obj) else None
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def payload_json(payload: dict) -> str:
    """The JSON text of a payload: sorted keys, strict JSON (no NaN)."""
    return json.dumps(_jsonable(payload), sort_keys=True, indent=1,
                      allow_nan=False)


def save_results_json(payload: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(payload_json(payload) + "\n")


def results_payload(kind: str, seed: int, params: dict, results: dict) -> dict:
    return {"schema": SCHEMA, "kind": kind, "seed": seed,
            "params": _jsonable(params), "results": _jsonable(results)}


# ---------------------------------------------------------------------------
# shared builders


def _sparse_beta(p: int, s0: int, amplitude: float) -> np.ndarray:
    beta = np.zeros(p)
    beta[:s0] = amplitude
    return beta


def _design(kind: str, n: int, p: int, stream: RngStream) -> np.ndarray:
    if kind == "gauss":
        return gaussian_design(stream, n, p)
    if kind == "pm1":
        return np.where(stream.generator().random((n, p)) < 0.5, -1.0, 1.0)
    if kind == "ortho":
        if p != n:
            raise ValueError("orthonormal design needs p == n")
        return math.sqrt(n) * np.eye(n)
    raise ValueError("unknown design kind %r" % kind)


def default_lam(n: int, p: int, sigma: float, scale: float = 1.0) -> float:
    return scale * sigma * math.sqrt(2.0 * math.log(p) / n)


# ---------------------------------------------------------------------------
# experiments


def experiment_sos(reps: int = 100000, seed: int = 1, sigma: float = 1.0,
                   n_list=(5, 20)) -> dict:
    """Identity check over the six-field corpus; z-scores per field and n."""
    out = {}
    zs = []
    base = RngStream(seed)
    for ni, n in enumerate(n_list):
        corpus = stein.default_field_corpus(n, base.child(1000 + ni))
        for fi, (name, fld) in enumerate(corpus.items()):
            rep = stein.verify_sos_identity(fld, n, sigma, reps,
                                            base.child(100 * ni + fi))
            out["%s_n%d" % (name, n)] = {
                "lhs": rep.lhs_mean, "rhs": rep.rhs_mean, "z": rep.z_score}
            zs.append(rep.z_score)
    # np.max, unlike max(), keeps a NaN z-score, so the gate fails on it
    return {"fields": out, "max_z": float(np.max(zs, initial=0.0)),
            "reps": reps}


def _responses(mu, sigma, reps, stream):
    """``reps`` draws of y = mu + sigma * eps, one per row."""
    return mu[None, :] + sigma * stream.generator().standard_normal(
        (reps, mu.size))


def _lasso_replications(x, mu, lam, sigma, ys):
    """Batch l1 fits of the rows of ``ys``: (SureReport, loss, betas).

    The report's ``df_hat`` (and ``trace_grad_sq``) is the support size.
    """
    betas = solvers.fit_lasso_batch(x, ys, lam)
    fits = betas @ x.T
    sizes = np.sum(betas != 0.0, axis=1).astype(float)
    dev = fits - mu[None, :]
    loss = np.einsum("ij,ij->i", dev, dev)
    return stein.sure_for_sure(ys, fits, sizes, sizes, sigma), loss, betas


def experiment_unbiasedness(n: int = 100, p: int = 200, s0: int = 5,
                            sigma: float = 1.0, reps: int = 5000,
                            seed: int = 1, lam: float | None = None) -> dict:
    """Risk-identity moments for an l1 fit: unbiasedness and concentration."""
    base = RngStream(seed)
    x = _design("gauss", n, p, base.child(0))
    if lam is None:
        lam = default_lam(n, p, sigma, 1.5)
    beta = _sparse_beta(p, s0, 0.5)
    mu = x @ beta
    rep, loss, _ = _lasso_replications(
        x, mu, lam, sigma, _responses(mu, sigma, reps, base.child(1)))
    sure, r_hat, r_prime, r_dp = (rep.sure, rep.r_hat, rep.r_prime,
                                  rep.r_double_prime)
    s4 = sigma**4

    def zscore(diff):
        return abs(float(np.mean(diff))) / (
            float(np.std(diff, ddof=1)) / math.sqrt(reps))

    sq_loss_err = (sure - loss) ** 2
    risk = float(np.mean(loss))
    rel = (r_hat / np.mean(r_hat) - 1.0) ** 2
    rel_mean = float(np.mean(rel))
    rel_se = float(np.std(rel, ddof=1)) / math.sqrt(reps)
    var_rp, se_var_rp = sample_variance(r_prime)
    rp_bound = 16.0 * s4 * float(np.mean(r_dp))
    rp_bound_se = 16.0 * s4 * float(np.std(r_dp, ddof=1)) / math.sqrt(reps)
    return {
        "n": n, "p": p, "s0": s0, "lam": lam, "reps": reps,
        "mean_sure": float(np.mean(sure)), "mean_loss": risk,
        "z_sure_unbiased": zscore(sure - loss),
        "mean_r_hat": float(np.mean(r_hat)),
        "mean_sq_loss_err": float(np.mean(sq_loss_err)),
        "z_r_hat_unbiased": zscore(r_hat - sq_loss_err),
        "mean_r_prime": float(np.mean(r_prime)),
        "mean_sq_risk_err": float(np.mean((sure - risk) ** 2)),
        "rel_quartic": rel_mean, "rel_quartic_se": rel_se,
        "rel_quartic_bound": 16.0 / n,
        "var_r_prime": var_rp, "var_r_prime_se": se_var_rp,
        "var_r_prime_bound": rp_bound, "var_r_prime_bound_se": rp_bound_se,
    }


def experiment_coverage(n: int = 500, p: int = 100, s0: int = 3,
                        sigma: float = 1.0, reps: int = 2000, seed: int = 1,
                        alpha: float = 0.05) -> dict:
    """Coverage of the loss confidence regions in the asymptotic regime."""
    base = RngStream(seed)
    x = _design("gauss", n, p, base.child(0))
    lam = default_lam(n, p, sigma, 1.2)
    beta = _sparse_beta(p, s0, 0.5)
    mu = x @ beta
    rep, loss, _ = _lasso_replications(
        x, mu, lam, sigma, _responses(mu, sigma, reps, base.child(1)))
    sure = rep.sure

    def coverage(kind):
        region = stein.loss_confidence_region(sure, sigma, n, alpha, kind=kind)
        return float(np.mean(region.contains(loss)))
    return {
        "n": n, "p": p, "s0": s0, "alpha": alpha, "reps": reps,
        "v_two_sided": stein.symmetric_deviation_quantile(n, alpha),
        "v_one_sided": stein.lower_deviation_quantile(n, alpha),
        "coverage_two_sided": coverage("two_sided"),
        "coverage_one_sided": coverage("upper"),
        "gamma_n": float(np.mean(sure / (n * sigma**2) + rep.df_hat / n)),
    }


MODEL_SIZE_GRID = (
    {"n": 100, "p": 200, "s0": 5, "lam_scale": 1.0, "design": "gauss"},
    {"n": 100, "p": 200, "s0": 5, "lam_scale": 0.7, "design": "gauss"},
    {"n": 200, "p": 100, "s0": 5, "lam_scale": 1.0, "design": "gauss"},
    {"n": 100, "p": 300, "s0": 10, "lam_scale": 1.0, "design": "pm1"},
    {"n": 150, "p": 150, "s0": 0, "lam_scale": 1.2, "design": "gauss"},
    {"n": 100, "p": 200, "s0": 5, "lam_scale": 1.0, "design": "pm1"},
)


def _model_size_unit(base, reps, sigma, ci):
    """Support-size variance against its bound at MODEL_SIZE_GRID[ci], or
    after the grid the orthonormal case."""
    if ci == len(MODEL_SIZE_GRID):
        return _model_size_ortho(base, reps, sigma)
    cfg = MODEL_SIZE_GRID[ci]
    n, p, s0 = cfg["n"], cfg["p"], cfg["s0"]
    x = _design(cfg["design"], n, p, base.child(10 * ci))
    lam = default_lam(n, p, sigma, cfg["lam_scale"])
    beta = _sparse_beta(p, s0, 0.6)
    mu = x @ beta
    sizes = _lasso_replications(x, mu, lam, sigma, _responses(
        mu, sigma, reps, base.child(10 * ci + 1)))[0].df_hat
    mean_size = float(np.mean(sizes))
    var_size, se_var = sample_variance(sizes)
    bound = min(2.0 * n, stein.model_size_variance_bound(mean_size, p))
    return {**cfg, "mean_size": mean_size, "var_size": var_size,
            "se_var": se_var, "bound": bound,
            "ok": var_size <= bound + 4.0 * se_var}


def _model_size_ortho(base, reps, sigma):
    """Support-size variance at the orthonormal design, where it is a sum
    of independent Bernoullis with explicit activation probabilities."""
    n = p = 200
    s0 = 5
    x = _design("ortho", n, p, base.child(900))
    lam = default_lam(n, p, sigma, 1.0)
    beta = _sparse_beta(p, s0, 2.0 * lam)
    mu = x @ beta
    sizes = _lasso_replications(x, mu, lam, sigma, _responses(
        mu, sigma, reps, base.child(901)))[0].df_hat
    thr = math.sqrt(n) * lam
    # P(|y_j| > thr), the normal upper tail of each side
    q = ndtr(-(thr - mu) / sigma) + ndtr(-(thr + mu) / sigma)
    var_exact = float(np.sum(q * (1.0 - q)))
    var_emp, se_var = sample_variance(sizes)
    z_ortho = abs(var_emp - var_exact) / max(se_var, 1e-300)
    return {"var_exact": var_exact, "var_emp": var_emp, "z": z_ortho}


def experiment_model_size(reps: int = 1000, seed: int = 1,
                          sigma: float = 1.0) -> dict:
    """Support-size variance against its bound over a configuration grid,
    plus the orthonormal-design case where the variance is exact.

    One unit of :func:`core.replicate` is one configuration, with its own
    streams, so the results do not depend on the worker count.
    """
    units = replicate(functools.partial(_model_size_unit, RngStream(seed),
                                        reps, sigma),
                      len(MODEL_SIZE_GRID) + 1)
    rows, ortho = units[:-1], units[-1]
    return {"grid": rows, "all_ok": all(r["ok"] for r in rows),
            "ortho": ortho, "reps": reps}


def _sparse_re_row(base, reps, sigma, n, p, s0_list, si):
    """Mean sparsity-plus-prediction statistic against its bound at
    s0 = s0_list[si]."""
    tau = gam = 1.0
    s0 = s0_list[si]
    x = _design("ortho", n, p, base.child(0))
    s1 = max(s0, 1)
    lam = sigma * (1 + tau) * (1 + gam) * math.sqrt(
        2.0 * math.log(math.e * p / s1) / n)
    beta = _sparse_beta(p, s0, 3.0 * lam)
    mu = x @ beta
    rep, loss, _ = _lasso_replications(x, mu, lam, sigma, _responses(
        mu, sigma, reps, base.child(si + 1)))
    stat = rep.df_hat + loss / (2.0 * sigma**2 * tau)
    bound = (math.sqrt(tau) + 1.0 / math.sqrt(tau)) ** 2 * (
        (1 + gam) ** 2 * (s0 * math.log(math.e * p / s1) + s1) + 0.25)
    mean_stat = float(np.mean(stat))
    se_stat = float(np.std(stat, ddof=1)) / math.sqrt(reps)
    return {"s0": s0, "lam": lam, "mean_stat": mean_stat,
            "se_stat": se_stat, "bound": bound,
            "ok": mean_stat <= bound + 4.0 * se_stat}


def experiment_sparse_re(reps: int = 400, seed: int = 1, sigma: float = 1.0,
                         n: int = 500, p: int = 500,
                         s0_list=(1, 5, 10)) -> dict:
    """Sparsity-plus-prediction bound at orthonormal design (RE = 1).

    One unit of :func:`core.replicate` is one ``s0``, with its own stream,
    so the results do not depend on the worker count.
    """
    rows = replicate(functools.partial(_sparse_re_row, RngStream(seed), reps,
                                       sigma, n, p, tuple(s0_list)),
                     len(s0_list))
    return {"rows": rows, "all_ok": all(r["ok"] for r in rows),
            "reps": reps}


def experiment_mc_divergence(kind: str, seed: int = 1, m_grid=None,
                             n_real: int = 50) -> dict:
    """Probe-count table for the divergence estimator on a fixed dataset.

    The table's realizations are units of :func:`core.replicate`; the enet
    map starts each one from the base fit, so the results do not depend on
    the worker count.  ``unconverged`` counts the enet coordinate-descent
    fits, the base fit and those inside the map, that missed the duality-gap
    tolerance (0 for svt).
    """
    base = RngStream(seed)
    unconverged = 0
    if kind == "svt":
        q, n, rank, lam, a = 101, 100, 10, 10.0, 1e-4
        gen = base.child(0).generator()
        u = np.linalg.qr(gen.standard_normal((q, rank)))[0]
        v = np.linalg.qr(gen.standard_normal((n, rank)))[0]
        y = 40.0 * u @ v.T + gen.standard_normal((q, n))
        df_exact = solvers.svt(y, lam).df_exact
        f = divergence_mc.svt_map(lam)
        if m_grid is None:
            m_grid = (10, 40, 160, 225)
    elif kind == "enet":
        n, p, s0, a = 500, 400, 50, 1e-3
        gen = base.child(0).generator()
        x = np.where(gen.random((n, p)) < 0.5, -1.0, 1.0)
        lam = 0.8 * math.sqrt(4.0 * math.log(p) / n)
        gamma = n * 0.2 * math.sqrt(4.0 * math.log(p) / n)
        beta = _sparse_beta(p, s0, 0.5)
        y = x @ beta + gen.standard_normal(n)
        base_fit = solvers.fit_lasso(RegressionProblem(x, y), lam, gamma=gamma)
        df_exact = base_fit.df_hat
        unconverged = int(not base_fit.converged)
        f = divergence_mc.lasso_fitted_map(x, lam, gamma, start=base_fit)
        if m_grid is None:
            m_grid = (10, 40, 160)
    else:
        raise ValueError("kind must be 'svt' or 'enet'")
    rows = divergence_mc.divergence_table(f, y, df_exact, m_grid, n_real,
                                          base.child(1), a=a)
    unconverged += getattr(f, "unconverged", 0)
    by_m = {r["m"]: r for r in rows}
    ratios = {}
    for m in by_m:
        if 4 * m in by_m and by_m[4 * m]["std"] > 0:
            ratios["%d/%d" % (m, 4 * m)] = by_m[m]["std"] / by_m[4 * m]["std"]
    return {"kind": kind, "df_exact": float(df_exact), "rows": rows,
            "std_ratios": ratios, "n_real": n_real,
            "unconverged": unconverged}


def _debias_rep(seed, n, p, s0, lam, sigma, amplitude, rep):
    x = gaussian_design(RngStream(seed, 50000 + 3 * rep), n, p)
    beta = _sparse_beta(p, s0, amplitude)
    eps = sigma * RngStream(seed, 50001 + 3 * rep).generator().standard_normal(n)
    y = x @ beta + eps
    direction = debias_mod.direction_setup(np.eye(1, p)[0], None, p)
    rep_out = debias_mod.debias_theta(x, y, lam, direction, beta_true=beta)
    return (rep_out.pivot, rep_out.v_star, rep_out.theta_hat,
            rep_out.frozen_support, rep_out.unconverged)


def experiment_debias(n: int = 200, p: int = 300, s0: int = 5,
                      reps: int = 2000, seed: int = 1, sigma: float = 1.0,
                      lam: float | None = None) -> dict:
    """Pivot moments for the de-biased contrast in simulation mode.

    ``unconverged`` counts the replications whose base fit missed the
    duality-gap tolerance.
    """
    if lam is None:
        lam = default_lam(n, p, sigma, 1.0)
    results = replicate(functools.partial(_debias_rep, seed, n, p, s0, lam,
                                          sigma, 1.0),
                        reps, chunksize=32)
    pivots = np.array([r[0] for r in results])
    v_stars = np.array([r[1] for r in results])
    check = debias_mod.pivot_variance_check(pivots, v_stars)
    check.update({
        "n": n, "p": p, "s0": s0, "lam": lam,
        "frozen_fraction": float(np.mean([r[3] for r in results])),
        "theta_hat_mean": float(np.mean([r[2] for r in results])),
        "unconverged": sum(r[4] for r in results),
    })
    return check


def _selection_fit(x, mu, sigma, ys, lams, k):
    """Candidate ``lams[k]`` on every replication: SURE, support size,
    distance of the fit to mu and support mask."""
    rep, _, betas = _lasso_replications(x, mu, float(lams[k]), sigma, ys)
    dists = np.linalg.norm(betas @ x.T - mu[None, :], axis=1)
    return rep.sure, rep.df_hat, dists, betas != 0.0


def _cross_traces(x, masks, sizes, others, j0):
    """tr(P_k P_j0) for every candidate k in ``others`` (rows) and
    replication (columns), from the (candidate, replication, p) support
    masks and their sizes.

    When one support contains the other, span inclusion gives P_a P_b =
    P_a, so the trace is the smaller support's size, the |S| convention of
    ``sizes``; only the other pairs are factored, by
    :func:`stein.projection_cross_traces`.
    """
    cross = np.minimum(sizes[others], sizes[j0])
    # nested when the intersection is as large as the smaller support
    shared = np.count_nonzero(masks[others] & masks[j0], axis=2)
    ks, reps = np.nonzero(shared != cross)
    if ks.size:
        cross[ks, reps] = stein.projection_cross_traces(
            x, [np.flatnonzero(masks[others[k]][r]) for k, r in zip(ks, reps)],
            [np.flatnonzero(masks[j0][r]) for r in reps])
    return cross


def experiment_selection(n: int = 100, p: int = 150, s0: int = 5,
                         reps: int = 2000, seed: int = 1, sigma: float = 1.0,
                         alpha: float = 0.1, n_cand: int = 8) -> dict:
    """Exceedance of the high-probability tuning bound on an l1 path.

    The candidates' fits run one candidate a unit of :func:`core.replicate`;
    every unit shares one set of responses, so the results do not depend on
    the worker count.
    """
    base = RngStream(seed)
    x = _design("gauss", n, p, base.child(0))
    lam0 = default_lam(n, p, sigma, 1.0)
    lams = lam0 * np.geomspace(0.4, 2.2, n_cand)
    beta = _sparse_beta(p, s0, 0.6)
    mu = x @ beta
    ys = _responses(mu, sigma, reps, base.child(1))

    fits = replicate(functools.partial(_selection_fit, x, mu, sigma, ys, lams),
                     n_cand)
    sures = np.column_stack([f[0] for f in fits])
    sizes = np.array([f[1] for f in fits])
    dists = np.column_stack([f[2] for f in fits])
    masks = np.array([f[3] for f in fits])

    j0 = int(np.argmin(np.mean(dists**2, axis=0)))
    picks = np.argmin(sures, axis=1)
    gaps = dists[np.arange(reps), picks] - dists[:, j0]

    # squared-Jacobian traces of candidate-vs-reference differences,
    # tr((P_k - P_j0)^2) = |S_k| + |S_j0| - 2 tr(P_k P_j0)
    others = [k for k in range(n_cand) if k != j0]
    cross = _cross_traces(x, masks, sizes, others, j0)
    tr = sizes[others] + sizes[j0] - 2.0 * cross
    s_star = float(np.max(np.mean(tr, axis=1), initial=0.0))

    bound = selection.selection_gap_bound(n_cand, alpha, 1.0, s_star, sigma)
    exceed = float(np.mean(gaps > bound))
    se = math.sqrt(alpha * (1 - alpha) / reps)
    return {
        "n": n, "p": p, "m": n_cand, "alpha": alpha, "reps": reps,
        "j0": j0, "s_star": s_star, "bound": bound,
        "exceedance": exceed, "limit": alpha + 4.0 * se,
        "ok": exceed <= alpha + 4.0 * se,
        "mean_gap": float(np.mean(gaps)),
    }


def experiment_adversarial(n: int = 4096, reps: int = 2000, seed: int = 1,
                           sigma: float = 1.0, c: float = 0.9,
                           period_exponent: int = -8) -> dict:
    out = selection.adversarial_gap_experiment(
        n, sigma, reps, RngStream(seed), c=c,
        period_exponent=period_exponent)
    out["threshold"] = c * sigma * n ** 0.25
    return out


# ---------------------------------------------------------------------------
# config-driven dispatch


EXPERIMENTS = {
    "sos": experiment_sos,
    "unbiasedness": experiment_unbiasedness,
    "coverage": experiment_coverage,
    "model_size": experiment_model_size,
    "sparse_re": experiment_sparse_re,
    "mc_divergence": experiment_mc_divergence,
    "debias": experiment_debias,
    "selection": experiment_selection,
    "adversarial": experiment_adversarial,
}


@dataclass
class ExperimentConfig:
    """A named experiment and its keyword parameters.

    An unknown kind, a parameter the experiment does not take, fewer than two
    replications (``reps``) or realizations (``n_real``), a size (``n``,
    ``p``, ``n_cand``) or ``n_list`` entry that is not an integer of at least
    1, a negative, infinite or NaN ``lam``, a ``sigma`` that is not positive
    and finite and an ``alpha`` outside (0, 1) raise ValueError here, before
    anything runs.
    """
    kind: str
    seed: int = 1
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in EXPERIMENTS:
            raise ValueError("unknown experiment %r (choose from %s)"
                             % (self.kind, ", ".join(sorted(EXPERIMENTS))))
        takes = inspect.signature(EXPERIMENTS[self.kind]).parameters
        unknown = sorted(set(self.params) - (set(takes) - {"seed"}))
        if unknown:
            raise ValueError("experiment %r takes no parameter %s"
                             % (self.kind, ", ".join(map(repr, unknown))))
        # a spread needs two replications, or two realizations per table
        # row, and a design at least one row, column and candidate
        counts = [(name, self.params.get(name, least), least)
                  for name, least in (("reps", 2), ("n_real", 2), ("n", 1),
                                      ("p", 1), ("n_cand", 1))]
        counts += [("n_list entry", n, 1) for n in self.params.get("n_list", ())]
        for name, count, least in counts:
            if (not isinstance(count, int) or isinstance(count, bool)
                    or count < least):
                raise ValueError("%s must be an integer of at least %d, not %r"
                                 % (name, least, count))
        lam = self.params.get("lam")
        if lam is not None and not 0.0 <= lam < math.inf:
            raise ValueError("lam must be finite and nonnegative, not %r" % lam)
        sigma = self.params.get("sigma", 1.0)
        if not 0.0 < sigma < math.inf:
            raise ValueError("sigma must be positive and finite, not %r" % sigma)
        alpha = self.params.get("alpha", 0.5)
        if not 0.0 < alpha < 1.0:
            raise ValueError("alpha must be in (0, 1), not %r" % alpha)

    @classmethod
    def from_json(cls, path: str) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
        if "kind" not in raw:
            raise ValueError("config must name an experiment 'kind'")
        return cls(kind=raw["kind"], seed=int(raw.get("seed", 1)),
                   params=dict(raw.get("params", {})))


def run_experiment(config: ExperimentConfig, threads: int = 1) -> dict:
    """The payload of ``config``'s experiment, run inside
    ``core.workers(threads)``.  Neither its results nor its bytes depend on
    ``threads``, which is not written into the payload."""
    with workers(threads):
        results = EXPERIMENTS[config.kind](seed=config.seed, **config.params)
    return results_payload(config.kind, config.seed, config.params, results)
