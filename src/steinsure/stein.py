"""Unbiased risk estimation and its second-order refinements.

For an almost-differentiable estimator mu_hat(y) of the mean of
y ~ N(mu, sigma^2 I_n), the classical unbiased risk estimate is

    sure = ||y - mu_hat||^2 + 2 sigma^2 df_hat - sigma^2 n,

with df_hat the divergence of mu_hat.  The second-order identity yields an
unbiased estimate of the *squared error of sure itself*,

    r_hat  = 4 sigma^2 ||y - mu_hat||^2 + 4 sigma^4 T - 2 sigma^4 n,
    r_prime = 2 sigma^2 ( ||y - mu_hat||^2 + sure ),

where T is the trace of the squared Jacobian of mu_hat.  ``r_hat`` targets
E[(sure - loss)^2] and ``r_prime`` targets E[(sure - risk)^2]; the convex
combination ``r_double_prime`` below controls the variance of r_prime.

The module also hosts the Monte Carlo verifier for the underlying identity,
a small corpus of vector fields for it, and the confidence-region and
model-size consequences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import RngStream, chi_square_cdf, chi_square_quantile
from . import solvers


# ---------------------------------------------------------------------------
# point estimates


@dataclass
class SureReport:
    """Output of :func:`sure_for_sure`; arrays for stacked replications."""

    sure: float
    sure_plus: float
    r_hat: float
    r_prime: float
    r_double_prime: float
    df_hat: float
    trace_grad_sq: float
    sigma: float
    n: int


def sure(y: np.ndarray, mu_hat: np.ndarray, df_hat, sigma: float):
    """The unbiased risk estimate alone; see :func:`sure_for_sure`."""
    return sure_for_sure(y, mu_hat, df_hat, 0.0, sigma).sure


def sure_for_sure(y: np.ndarray, mu_hat: np.ndarray, df_hat, trace_grad_sq,
                  sigma: float) -> SureReport:
    """SURE together with the unbiased estimates of its own squared error.

    ``y`` and ``mu_hat`` may stack replications as ``(..., n)`` arrays that
    broadcast against each other; ``df_hat`` and ``trace_grad_sq`` then
    broadcast over the leading axes, and every estimate is an array over
    them.  Unstacked input gives scalars.
    """
    r = np.asarray(y, dtype=float) - np.asarray(mu_hat, dtype=float)
    n = r.shape[-1]
    rss = np.einsum("...i,...i->...", r, r)
    s2, s4 = sigma**2, sigma**4
    val = rss + 2.0 * s2 * df_hat - s2 * n
    r_hat = 4.0 * s2 * rss + 4.0 * s4 * trace_grad_sq - 2.0 * s4 * n
    r_prime = 2.0 * s2 * (rss + val)
    r_dp = 0.75 * r_prime + 0.25 * r_hat - s4 * df_hat
    return SureReport(sure=val, sure_plus=np.maximum(val, 0.0), r_hat=r_hat,
                      r_prime=r_prime, r_double_prime=r_dp, df_hat=df_hat,
                      trace_grad_sq=trace_grad_sq, sigma=sigma, n=n)


def sure_from_fit(fit: solvers.FitResult, y: np.ndarray, sigma: float) -> SureReport:
    return sure_for_sure(y, fit.mu_hat, fit.df_hat, fit.trace_grad_sq, sigma)


@dataclass
class DiffReport:
    """Difference-version quantities for a pair of estimators."""

    sure_diff: float          # sure_1 - sure_2
    norm_sq: float            # ||mu_hat_1 - mu_hat_2||^2
    r_hat_diff: float         # 4 s^2 norm_sq + 4 s^4 tr((J_1 - J_2)^2)
    cross_trace: float


def sure_diff(fit1: solvers.FitResult, fit2: solvers.FitResult, y: np.ndarray,
              sigma: float, *, x: np.ndarray | None = None,
              cross_trace: float | None = None) -> DiffReport:
    """Second-order estimate for the gap between two fitted estimators.

    The squared-Jacobian trace of the difference map expands as
    T_1 + T_2 - 2 tr(J_1 J_2); the cross trace must either be supplied or be
    computable from the shared design (l1 / ridged-l1 fits).
    """
    if cross_trace is None:
        if x is None:
            raise ValueError("cross_trace is required when no design is given")
        cross_trace = _cross_trace(np.asarray(x, dtype=float), fit1, fit2)
    s1 = sure(y, fit1.mu_hat, fit1.df_hat, sigma)
    s2 = sure(y, fit2.mu_hat, fit2.df_hat, sigma)
    d = fit1.mu_hat - fit2.mu_hat
    norm_sq = float(d @ d)
    t_diff = fit1.trace_grad_sq + fit2.trace_grad_sq - 2.0 * cross_trace
    r_hat_diff = 4.0 * sigma**2 * norm_sq + 4.0 * sigma**4 * t_diff
    return DiffReport(s1 - s2, norm_sq, r_hat_diff, cross_trace)


def _spectral_cross_trace(a, b) -> float:
    """tr(J_a J_b) for J = U diag(w) U' given as (U, w) pairs."""
    m = a[0].T @ b[0]
    return float(np.sum(m * m * np.outer(a[1], b[1])))


def _cross_trace(x, fit1, fit2):
    return _spectral_cross_trace(
        solvers.support_spectrum(x, fit1.support, fit1.gamma),
        solvers.support_spectrum(x, fit2.support, fit2.gamma))


def projection_cross_traces(x: np.ndarray, supports_a, supports_b) -> np.ndarray:
    """tr(P_a P_b) for each pair of supports, P_S projecting onto span X_S.

    This is the cross term tr(J_a J_b) of two plain l1 fits.  Each distinct
    support is factored once by :func:`solvers.support_spectrum`, however
    often it recurs.
    """
    x = np.asarray(x, dtype=float)
    spectra: dict[tuple, tuple] = {}

    def spectrum(sup):
        key = tuple(sup)
        if key not in spectra:
            spectra[key] = solvers.support_spectrum(x, key, 0.0)
        return spectra[key]

    return np.array([_spectral_cross_trace(spectrum(sa), spectrum(sb))
                     for sa, sb in zip(supports_a, supports_b)])


# ---------------------------------------------------------------------------
# identity verification


class VectorField:
    """A vector field f with enough Jacobian structure for the identity check.

    Subclasses override ``value`` and, with the analytic divergence and
    squared-Jacobian trace, ``batch_stats``; the base ``batch_stats`` uses
    the finite-difference ``jacobian`` and serves as the reference for them.
    """

    def value(self, z: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def jacobian(self, z: np.ndarray) -> np.ndarray:
        n = z.shape[0]
        a = 1e-5 * (1.0 + np.linalg.norm(z) / math.sqrt(n))
        f0 = self.value(z)
        jac = np.empty((n, n))
        for i in range(n):
            zi = z.copy()
            zi[i] += a
            jac[:, i] = (self.value(zi) - f0) / a
        return jac

    def batch_stats(self, zs: np.ndarray):
        """Per-draw (z'f, ||f||^2, div f, tr(J^2)) over the rows of zs."""
        out = np.empty((zs.shape[0], 4))
        for i, z in enumerate(zs):
            f = self.value(z)
            jac = self.jacobian(z)
            out[i] = (z @ f, f @ f, np.trace(jac), np.sum(jac * jac.T))
        return out[:, 0], out[:, 1], out[:, 2], out[:, 3]


class IdentityField(VectorField):
    def value(self, z):
        return z

    def batch_stats(self, zs):
        sq = np.einsum("ij,ij->i", zs, zs)
        n = float(zs.shape[1])
        return sq, sq, np.full(zs.shape[0], n), np.full(zs.shape[0], n)


class ConstantField(VectorField):
    def __init__(self, c):
        self.c = np.asarray(c, dtype=float)

    def value(self, z):
        return self.c

    def batch_stats(self, zs):
        r = zs.shape[0]
        return (zs @ self.c, np.full(r, float(self.c @ self.c)),
                np.zeros(r), np.zeros(r))


class LinearField(VectorField):
    def __init__(self, a):
        self.a = np.asarray(a, dtype=float)
        self._div = float(np.trace(self.a))
        self._tr2 = float(np.sum(self.a * self.a.T))

    def value(self, z):
        return self.a @ z

    def batch_stats(self, zs):
        f = zs @ self.a.T
        return (np.einsum("ij,ij->i", zs, f), np.einsum("ij,ij->i", f, f),
                np.full(zs.shape[0], self._div), np.full(zs.shape[0], self._tr2))


class SoftThresholdField(VectorField):
    def __init__(self, t):
        self.t = float(t)

    def value(self, z):
        return solvers.soft_threshold(z, self.t)

    def batch_stats(self, zs):
        f = solvers.soft_threshold(zs, self.t)
        k = np.sum(np.abs(zs) > self.t, axis=1).astype(float)
        return np.einsum("ij,ij->i", zs, f), np.einsum("ij,ij->i", f, f), k, k


class ElasticNetResidualField(VectorField):
    """y -> y - X beta_hat(y) for the l1 fit, ridged when gamma > 0."""

    def __init__(self, x, lam, gamma):
        self.x = np.asarray(x, dtype=float)
        self.lam = float(lam)
        self.gamma = float(gamma)
        self._cache: dict[tuple, tuple] = {}

    def _df_pair(self, support):
        key = tuple(support)
        if key not in self._cache:
            self._cache[key] = solvers._df_pair(self.x, np.asarray(support), self.gamma)
        return self._cache[key]

    def value(self, z):
        from .core import RegressionProblem
        fit = solvers.fit_lasso(RegressionProblem(self.x, z), self.lam,
                                gamma=self.gamma)
        return z - fit.mu_hat

    def batch_stats(self, zs):
        betas = solvers.fit_lasso_batch(self.x, zs, self.lam, gamma=self.gamma)
        f = zs - betas @ self.x.T
        n = zs.shape[1]
        div = np.empty(zs.shape[0])
        tr2 = np.empty(zs.shape[0])
        for i, b in enumerate(betas):
            df, t2 = self._df_pair(np.flatnonzero(b))
            # Jacobian of the residual map is I - M
            div[i] = n - df
            tr2[i] = n - 2.0 * df + t2
        return (np.einsum("ij,ij->i", zs, f), np.einsum("ij,ij->i", f, f),
                div, tr2)


@dataclass
class IdentityReport:
    lhs_mean: float
    rhs_mean: float
    se: float
    z_score: float
    reps: int
    mode: str

    def passed(self, z_max: float = 4.0) -> bool:
        return self.z_score <= z_max


def verify_sos_identity(field: VectorField, n: int, sigma: float, reps: int,
                        stream: RngStream, scalar_fn=None) -> IdentityReport:
    """Monte Carlo check of the second-order identity for one vector field.

    With eps ~ N(0, sigma^2 I_n) the identity states

        E[(eps' f(eps) - sigma^2 div f(eps))^2]
            = E[sigma^2 ||f(eps)||^2 + sigma^4 tr((Df(eps))^2)].

    If ``scalar_fn`` is given (an object with ``value(eps) -> float`` and
    ``grad(eps) -> vector``), the generalized variance form is checked
    instead:

        Var[eps' f - sigma^2 div f - g]
            = E[sigma^2 ||f - Dg||^2 + sigma^4 tr((Df)^2)]
              + Var(g) - sigma^2 E ||Dg||^2.

    The z-score compares the two sides through the per-draw differences, so
    a correct implementation lands within a few standard errors.
    """
    eps = sigma * stream.generator().standard_normal((reps, n))
    zf, fsq, div, tr2 = field.batch_stats(eps)
    s2, s4 = sigma**2, sigma**4
    if scalar_fn is None:
        lhs = (zf - s2 * div) ** 2
        rhs = s2 * fsq + s4 * tr2
        kind = "second_order"
    else:
        g = np.array([scalar_fn.value(e) for e in eps])
        grads = np.array([scalar_fn.grad(e) for e in eps])
        w = zf - s2 * div - g
        # ||f - Dg||^2 per draw needs f itself; recompute cheaply via field.value
        fmg = np.array([float(np.sum((field.value(e) - gr) ** 2))
                        for e, gr in zip(eps, grads)])
        gradsq = np.einsum("ij,ij->i", grads, grads)
        lhs = (w - np.mean(w)) ** 2
        rhs = s2 * fmg + s4 * tr2 - s2 * gradsq + (g - np.mean(g)) ** 2
        kind = "general_variance"
    diff = lhs - rhs
    se = float(np.std(diff, ddof=1)) / math.sqrt(reps)
    z = abs(float(np.mean(diff))) / max(se, 1e-300)
    return IdentityReport(float(np.mean(lhs)), float(np.mean(rhs)), se, z,
                          reps, kind)


def default_field_corpus(n: int, stream: RngStream) -> dict[str, VectorField]:
    """The standard six-field corpus used by the identity verifier."""
    gen = stream.generator()
    a = gen.standard_normal((n, n)) / math.sqrt(n)
    c = gen.standard_normal(n)
    p = max(2, n // 2)
    x = gen.standard_normal((n, p))
    lam = 0.7 * math.sqrt(2.0 * math.log(max(p, 2)) / n)
    return {
        "identity": IdentityField(),
        "constant": ConstantField(c),
        "linear": LinearField(a),
        "soft_threshold": SoftThresholdField(1.0),
        "lasso_residual": ElasticNetResidualField(x, lam, 0.0),
        "enet_residual": ElasticNetResidualField(x, lam, 0.5 * lam * n),
    }


def divergence_variance_bound(trace_grad_sq: float, grad_z_sq_norm: float,
                              sigma: float, n: int) -> float:
    """Upper bound on Var[div f] for 1-Lipschitz-type fields.

    ``grad_z_sq_norm`` is E||(Df) z / sigma||^2.  The bound is capped at 2n,
    the value attained by the identity map's divergence-variance envelope.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    return min(trace_grad_sq + grad_z_sq_norm / sigma**2, 2.0 * float(n))


# ---------------------------------------------------------------------------
# confidence regions for the loss / risk


@dataclass
class ConfidenceInterval:
    lower: float
    upper: float
    level: float
    kind: str

    def contains(self, value):
        """Whether ``value`` lies in the region, elementwise for arrays."""
        return (self.lower <= value) & (value <= self.upper)


def symmetric_deviation_quantile(n: int, alpha: float) -> float:
    """v with P{ |chi2_n - n| > v sqrt(2n) } = alpha, by Brent's method."""
    from scipy.optimize import brentq   # a heavy import; only this needs it
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must be in (0, 1)")
    root2n = math.sqrt(2.0 * n)

    def tail(v):
        hi = 1.0 - chi_square_cdf(n, n + v * root2n)
        lo = chi_square_cdf(n, n - v * root2n) if n - v * root2n > 0 else 0.0
        return hi + lo

    hi = 10.0
    while tail(hi) > alpha:
        hi *= 2.0
        if hi > 1e8:
            raise RuntimeError("deviation quantile bracket diverged")
    return brentq(lambda v: tail(v) - alpha, 0.0, hi, xtol=1e-14)


def lower_deviation_quantile(n: int, alpha: float) -> float:
    """v with P{ (n - chi2_n) / sqrt(2n) > v } = alpha."""
    q = chi_square_quantile(n, alpha)
    return (n - q) / math.sqrt(2.0 * n)


def loss_confidence_region(sure_value, sigma: float, n: int,
                           alpha: float, eps_n: float = 0.0,
                           kind: str = "two_sided") -> ConfidenceInterval:
    """Confidence region for the realized loss ||mu_hat - mu||^2.

    ``sure_value`` may be an array of SURE values, one per replication; the
    bounds then take its shape.  ``eps_n = 0`` is the asymptotic regime (no estimator-dependent slack);
    otherwise the slack enters through v0 = eps_n ** (1/4) and the nominal
    level holds up to an additional sqrt(eps_n) term.
    """
    if eps_n < 0:
        raise ValueError("eps_n must be nonnegative")
    v0 = eps_n ** 0.25
    root2n = math.sqrt(2.0 * n)
    if kind == "two_sided":
        half = sigma**2 * (symmetric_deviation_quantile(n, alpha) + v0) * root2n
        return ConfidenceInterval(np.maximum(sure_value - half, 0.0),
                                  sure_value + half, 1.0 - alpha, kind)
    if kind == "upper":
        half = sigma**2 * (lower_deviation_quantile(n, alpha) + v0) * root2n
        return ConfidenceInterval(0.0, sure_value + half, 1.0 - alpha, kind)
    raise ValueError("kind must be 'two_sided' or 'upper'")


def data_driven_slack(beta2: float, n: int) -> float:
    """kappa term of the fully data-driven interval."""
    if beta2 * n <= 0:
        raise ValueError("beta2 * n must be positive")
    return 2.0 * (6.0 / (beta2 * n)) ** 0.25 + 4.0 / math.sqrt(beta2 * n)


def data_driven_confidence(sure_value: float, df_hat: float, sigma: float,
                           n: int, alpha: float, beta1: float,
                           beta2: float) -> ConfidenceInterval:
    """Fully data-driven interval for the mean loss E||mu_hat - mu||^2.

    Width uses the estimable inflation gamma_hat = 4 (sure/(n sigma^2)
    + df_hat/n)_+ and holds at level 1 - (alpha + beta1 + beta2).
    """
    if min(alpha, beta1, beta2) <= 0:
        raise ValueError("alpha, beta1, beta2 must be positive")
    gamma_hat = 4.0 * max(sure_value / (n * sigma**2) + df_hat / n, 0.0)
    kappa = data_driven_slack(beta2, n)
    v = symmetric_deviation_quantile(n, alpha)
    half = sigma**2 * math.sqrt(2.0 * n) * (
        v + (math.sqrt(gamma_hat) + kappa) / math.sqrt(2.0 * beta1))
    return ConfidenceInterval(max(sure_value - half, 0.0), sure_value + half,
                              1.0 - (alpha + beta1 + beta2),
                              "data_driven_mean_loss")


# ---------------------------------------------------------------------------
# model-size concentration


def model_size_variance_bound(expected: float, p: int) -> float:
    """Bound 3 E + 4 E log(e p / max(E, 1)) on Var |support|."""
    if expected < 0:
        raise ValueError("expected size must be nonnegative")
    if p <= 0:
        raise ValueError("p must be positive")
    if expected == 0:
        return 0.0
    return 3.0 * expected + 4.0 * expected * math.log(
        math.e * p / max(expected, 1.0))


def model_size_ci(observed: int, p: int, alpha: float) -> ConfidenceInterval:
    """Confidence interval for E|support| from one observed support size.

    Inverts the deviance inequality s/E + E/max(s,1) - 2 <= t with
    t = (3 + 4 log(e p)) / (alpha * max(s, 1)).  Multiplied out it reads
    E^2 - (t + 2) s1 E + s s1 <= 0 with s1 = max(s, 1), so the endpoints are
    the two roots (the lower one is 0 when s = 0), clipped to [0, p].
    """
    if p < 1:
        raise ValueError("p must be at least 1, not %r" % p)
    if observed < 0 or observed > p:
        raise ValueError("observed size must lie in [0, p]")
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must be in (0, 1)")
    s = float(observed)
    s1 = max(s, 1.0)
    t = (3.0 + 4.0 * math.log(math.e * p)) / (alpha * s1)
    b = (t + 2.0) * s1
    upper = 0.5 * (b + math.sqrt(b * b - 4.0 * s * s1))
    # the product of the roots is s s1; dividing avoids cancellation
    lower = s * s1 / upper
    return ConfidenceInterval(max(lower, 0.0), min(upper, float(p)),
                              1.0 - alpha, "model_size")
