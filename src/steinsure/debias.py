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

All three are closed-form traces of the fixed-sign refit's derivatives on
the support of the l1 / ridged-l1 fit (see :func:`debias_theta`).  The
pivot (||z0||^2 - nu_hat)(theta_hat - theta) is exactly mean-zero with a
variance characterized by the map f(z0) = X Q0 (beta_hat - beta);
simulation mode tracks both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import RegressionProblem, sample_variance
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
    if not np.isfinite(a0_raw).all():
        raise ValueError("direction must be finite")
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
    frozen_support: bool    # the base fit ended on its certified refit
    pivot: float | None = None
    v_star: float | None = None
    theta_true: float | None = None
    unconverged: int = 0    # 1 when the base fit missed the gap tolerance


def debias_theta(x: np.ndarray, y: np.ndarray, lam: float,
                 direction: Direction, *, gamma: float = 0.0,
                 sigma: float = 1.0,
                 beta_true: np.ndarray | None = None) -> DebiasReport:
    """De-biased contrast estimate with closed-form interaction corrections.

    The corrections are traces of the fixed-sign refit's derivatives on the
    support and signs of the base fit.  ``frozen_support`` says that the
    base fit ended on its certified refit; if not, its descent coefficients
    on the same support stand in.  Simulation mode
    (``beta_true`` given) also returns the exact pivot and the variance
    proxy ``v_star``, whose mean over replications matches the variance of
    the pivot.  Collinear selected columns at ``gamma = 0`` raise
    ValueError, since they do not determine the coefficients.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    a0, u0 = direction.a0, direction.u0
    z0 = x @ u0

    fit = solvers.fit_lasso(RegressionProblem(x, y, sigma), lam, gamma=gamma)
    # the Gram matrix is the fit's own, on every column at lam = 0
    support = np.arange(x.shape[1]) if lam == 0.0 else fit.support
    if fit.gram is None:   # gamma = 0, where df_hat is rank(X_S)
        raise solvers._rank_error(round(fit.df_hat), support.size)
    xs = x[:, support]
    beta_s = fit.beta[support]
    a0_s = a0[support]
    theta_proj = float(a0_s @ beta_s)
    resid = y - xs @ beta_s

    # A G^-1, with A = X_S - z0 a0_S' the selected columns of X Q0
    ag = np.linalg.solve(fit.gram, (xs - np.outer(z0, a0_s)).T).T
    nu_hat = float(np.sum(ag * xs))
    w = resid @ ag
    a_hat = float(w @ a0_s)
    b_hat = a_hat - theta_proj * nu_hat

    z0_norm_sq = float(z0 @ z0)
    denom = z0_norm_sq - nu_hat
    if denom <= 0:
        raise ValueError("correction denominator is nonpositive")
    theta_hat = theta_proj + (float(z0 @ resid) + a_hat) / denom

    report = DebiasReport(theta_hat=theta_hat, theta_proj=theta_proj,
                          nu_hat=nu_hat, b_hat=b_hat, a_hat=a_hat,
                          z0_norm_sq=z0_norm_sq, frozen_support=fit.refit,
                          unconverged=int(not fit.converged))
    if beta_true is not None:
        beta_true = np.asarray(beta_true, dtype=float).ravel()
        theta = float(a0 @ beta_true)
        report.theta_true = theta
        report.pivot = denom * (theta_hat - theta)

        # v_star: residual part plus tr(J^2) of f(z0) = X Q0 (beta_hat - beta),
        # where moving z0 also moves y through the mean (y = X beta + eps).
        # J = A G^-1 M with M = a0_S r' + (theta - theta_proj) X_S', so
        # tr(J^2) = tr(K^2) for the |S| x |S| matrix K = M A G^-1.
        resid_part = -resid - z0 * (theta_proj - theta)
        k = np.outer(a0_s, w) + (theta - theta_proj) * (xs.T @ ag)
        report.v_star = (float(resid_part @ resid_part)
                         + float(np.sum(k * k.T)))
    return report


def pivot_variance_check(pivots, v_stars) -> dict:
    """Compare Var(pivot) against mean(v_star) across replications."""
    pivots = np.asarray(pivots, dtype=float)
    v_stars = np.asarray(v_stars, dtype=float)
    r = pivots.size
    mean_p = float(np.mean(pivots))
    var_p, se_var_p = sample_variance(pivots)
    se_mean_p = math.sqrt(var_p / r)
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
