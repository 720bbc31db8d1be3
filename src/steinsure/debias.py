"""De-biased estimation of a linear contrast <a0, beta>.

With rows of X drawn N(0, Sigma) and u0 = Sigma^{-1} a0 normalized so that
<a0, u0> = 1, the score z0 = X u0 is standard normal and independent of
X Q0 where Q0 = I - u0 a0'.  The corrected estimate

    theta_hat = <a0, beta_hat> + ( z0'(y - X beta_hat) + A_hat )
                                   / ( ||z0||^2 - nu_hat )

uses the interaction corrections

    nu_hat = trace[ X Q0  d beta_hat / d y ],
    B_hat  = trace[ X Q0  d beta_hat / d z0 ]   (y held fixed),
    A_hat  = B_hat + <a0, beta_hat> nu_hat.

nu_hat is analytic for the l1 / ridged-l1 path; B_hat is always obtained by
probing the z0-dependence with finite differences (no analytic derivative
of the refitted coefficients is attempted).  The pivot
(||z0||^2 - nu_hat)(theta_hat - theta) is exactly mean-zero with a variance
characterized by the map f(z0) = X Q0 (beta_hat - beta); simulation mode
tracks both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import RegressionProblem, RngStream
from . import solvers


@dataclass
class Direction:
    a0: np.ndarray        # normalized so <a0, Sigma^{-1} a0> = 1
    u0: np.ndarray        # Sigma^{-1} a0 under that normalization
    scale: float          # sqrt(<a0_raw, Sigma^{-1} a0_raw>)


def direction_setup(a0_raw: np.ndarray, sigma_matrix: np.ndarray | None,
                    p: int) -> Direction:
    """Normalize a contrast direction against the design covariance."""
    a0_raw = np.asarray(a0_raw, dtype=float).ravel()
    if a0_raw.shape != (p,):
        raise ValueError("direction must have length p")
    if sigma_matrix is None:
        u0_raw = a0_raw.copy()
    else:
        u0_raw = np.linalg.solve(np.asarray(sigma_matrix, dtype=float), a0_raw)
    norm_sq = float(a0_raw @ u0_raw)
    if norm_sq <= 0:
        raise ValueError("direction has nonpositive norm under Sigma^{-1}")
    s = math.sqrt(norm_sq)
    return Direction(a0=a0_raw / s, u0=u0_raw / s, scale=s)


@dataclass
class DebiasReport:
    theta_hat: float
    theta_proj: float       # <a0, beta_hat> before correction
    nu_hat: float
    b_hat: float
    a_hat: float
    z0_norm_sq: float
    frozen_support: bool    # no probe refit needed the descent fallback
    pivot: float | None = None
    v_star: float | None = None
    theta_true: float | None = None
    unconverged: int = 0    # descent fits that missed the gap tolerance


def debias_theta(x: np.ndarray, y: np.ndarray, lam: float,
                 direction: Direction, stream: RngStream, *,
                 gamma: float = 0.0, sigma: float = 1.0,
                 beta_true: np.ndarray | None = None,
                 m_probes: int = 10, m_trace: int = 6,
                 a: float | None = None) -> DebiasReport:
    """De-biased contrast estimate with Monte Carlo interaction corrections.

    Each probe is answered by the refit on the base support and signs that
    :func:`solvers.certified_refit` certifies, or else by warm descent.
    Simulation mode (``beta_true`` given) additionally returns the exact
    pivot and the per-replication variance proxy ``v_star``; averaging
    ``v_star`` over replications matches the variance of the pivot.
    Collinear selected columns at ``gamma = 0`` raise ValueError, since
    they do not determine the coefficients the corrections differentiate.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    n, p = x.shape
    a0, u0 = direction.a0, direction.u0
    z0 = x @ u0
    xq0 = x - np.outer(z0, a0)

    fit = solvers.fit_lasso(RegressionProblem(x, y, sigma), lam, gamma=gamma)
    beta = fit.beta
    support = fit.support
    if lam == 0.0:
        support = np.arange(p)
    xq0_s = xq0[:, support]
    # nu_hat on the fixed active set; at gamma = 0 refit_gram rejects
    # collinear columns
    xs = x[:, support]
    m = np.linalg.solve(solvers.refit_gram(xs, gamma), xs.T @ xq0_s)
    nu_hat = float(np.trace(m))

    if a is None:
        a = 1e-4 * (1.0 + float(np.linalg.norm(z0)) / math.sqrt(n))

    signs = np.sign(beta[support])
    theta_proj = float(a0 @ beta)
    a0_s = a0[support]
    cd_fits = []

    def fitted_on_support(z_new, y_new):
        """X Q0 beta_hat for the reassembled design z_new a0' + X Q0."""
        xs_new = xq0_s + np.outer(z_new, a0_s)
        bs = solvers.certified_refit(
            xs_new, y_new, support, signs, lam,
            solvers.refit_gram(xs_new, gamma),
            lambda r: xq0.T @ r + a0 * (z_new @ r), gamma=gamma)
        if bs is not None:
            return xq0_s @ bs
        warm = solvers.fit_lasso(
            RegressionProblem(xq0 + np.outer(z_new, a0), y_new, sigma), lam,
            gamma=gamma, beta0=beta)
        cd_fits.append(warm)
        return xq0 @ warm.beta

    base_fixed_y = fitted_on_support(z0, y)
    gen_stream = stream.generator()

    # B_hat: divergence of z0 -> X Q0 beta_hat(y fixed, X reassembled)
    terms = np.empty(m_probes)
    for j in range(m_probes):
        zt = gen_stream.standard_normal(n)
        diff = (fitted_on_support(z0 + a * zt, y) - base_fixed_y) / a
        terms[j] = float(zt @ diff)
    b_hat = float(np.mean(terms))

    a_hat = b_hat + theta_proj * nu_hat
    z0_norm_sq = float(z0 @ z0)
    denom = z0_norm_sq - nu_hat
    if denom <= 0:
        raise ValueError("correction denominator is nonpositive")
    theta_hat = theta_proj + (float(z0 @ (y - x @ beta)) + a_hat) / denom

    report = DebiasReport(theta_hat=theta_hat, theta_proj=theta_proj,
                          nu_hat=nu_hat, b_hat=b_hat, a_hat=a_hat,
                          z0_norm_sq=z0_norm_sq, frozen_support=True)
    if beta_true is not None:
        beta_true = np.asarray(beta_true, dtype=float).ravel()
        theta = float(a0 @ beta_true)
        report.theta_true = theta
        report.pivot = denom * (theta_hat - theta)

        # v_star: residual part plus tr(J^2) of f(z0) = X Q0 (beta_hat - beta),
        # where moving z0 also moves y through the mean (y = X beta + eps).
        resid_part = x @ beta - y - z0 * float(a0 @ (beta - beta_true))
        f_base = xq0 @ (beta - beta_true)

        def f_total(z_new):
            y_new = y + (z_new - z0) * theta
            return fitted_on_support(z_new, y_new) - xq0 @ beta_true

        tr_terms = np.empty(m_trace)
        for j in range(m_trace):
            zt = gen_stream.standard_normal(n)
            u = (f_total(z0 + a * zt) - f_base) / a
            norm_u = float(np.linalg.norm(u))
            if norm_u == 0.0:
                tr_terms[j] = 0.0
                continue
            ju = (f_total(z0 + a * (u / norm_u)) - f_base) * (norm_u / a)
            tr_terms[j] = float(zt @ ju)
        report.v_star = float(resid_part @ resid_part) + float(np.mean(tr_terms))
    report.frozen_support = not cd_fits
    report.unconverged = sum(not f.converged for f in [fit] + cd_fits)
    return report


def pivot_variance_check(pivots, v_stars) -> dict:
    """Compare Var(pivot) against mean(v_star) across replications."""
    pivots = np.asarray(pivots, dtype=float)
    v_stars = np.asarray(v_stars, dtype=float)
    r = pivots.size
    mean_p = float(np.mean(pivots))
    var_p = float(np.var(pivots, ddof=1))
    se_mean_p = math.sqrt(var_p / r)
    centered = pivots - mean_p
    m4 = float(np.mean(centered**4))
    se_var_p = math.sqrt(max(m4 - var_p**2, 0.0) / r)
    mean_v = float(np.mean(v_stars))
    se_v = float(np.std(v_stars, ddof=1)) / math.sqrt(r)
    return {
        "reps": int(r),
        "pivot_mean": mean_p,
        "pivot_mean_z": abs(mean_p) / max(se_mean_p, 1e-300),
        "pivot_var": var_p,
        "v_star_mean": mean_v,
        "variance_z": abs(var_p - mean_v) / max(math.hypot(se_var_p, se_v), 1e-300),
    }
