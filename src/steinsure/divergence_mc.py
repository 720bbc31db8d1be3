"""Monte Carlo approximation of divergences.

For a map f the divergence at y is estimated from m Gaussian probes z_j by

    D_hat = m^{-1} sum_j z_j' h(z_j),    h(z) = a^{-1} (f(y + a z) - f(y)),

whose conditional mean-squared error around div f(y) is at most 4 dim / m
for 1-Lipschitz maps (as a -> 0).  The two-sided variant replaces h by the
centered difference and roughly halves the error constant.
"""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import RegressionProblem, RngStream, replicate
from . import solvers

# the counters a map may keep; divergence_table sums them over its units
COUNTERS = ("unconverged", "fallbacks")


@dataclass
class DivergenceEstimate:
    value: float
    m: int
    a: float
    se_bound: float       # 2 sqrt(dim/m), from the 4 dim / m MSE bound
    empirical_se: float
    two_sided: bool


def default_step(y: np.ndarray) -> float:
    y = np.asarray(y, dtype=float)
    return 1e-4 * (1.0 + float(np.linalg.norm(y)) / math.sqrt(y.size))


def mc_divergence(f, y, m: int, stream: RngStream, a: float | None = None,
                  two_sided: bool = False) -> DivergenceEstimate:
    """Probe-based divergence estimate of ``f`` at ``y``.

    ``f`` maps arrays of the shape of ``y`` to arrays of the same shape
    (vectors or matrices); warm-starting across the perturbed solves is the
    map's own business.  A step ``a`` whose probe y + a z (or y - a z)
    overflows at a finite ``y``, or that is not above 1e6 eps (1 + max|y|), the
    resolution of ``y``, raises ValueError.
    """
    y = np.asarray(y, dtype=float)
    if m < 1:
        raise ValueError("m must be positive")
    if a is None:
        a = default_step(y)
    dim = y.size
    y_max = float(np.max(np.abs(y), initial=0.0))
    # a smaller step lets rounding move a quotient by over 1e-6 of a unit slope
    if not a > 1e6 * np.finfo(float).eps * (1.0 + y_max):
        raise ValueError("step a = %r is not above the resolution of y, "
                         "1e6 eps (1 + max|y|)" % a)
    gen = stream.generator()
    f0 = None if two_sided else np.asarray(f(y), dtype=float)
    terms = np.empty(m)
    for j in range(m):
        z = gen.standard_normal(y.shape)
        # rounding is monotone, so max|y| + a max|z| bounds |y_i +- a z_i|
        reach = y_max + a * float(np.max(np.abs(z), initial=0.0))
        if y_max < math.inf <= reach:
            raise ValueError("step a = %r overflows the probe response" % a)
        if two_sided:
            h = (np.asarray(f(y + a * z), dtype=float)
                 - np.asarray(f(y - a * z), dtype=float)) / (2.0 * a)
        else:
            h = (np.asarray(f(y + a * z), dtype=float) - f0) / a
        terms[j] = float(np.sum(z * h))
    scale = math.sqrt(2.0) if two_sided else 2.0
    return DivergenceEstimate(
        value=float(np.mean(terms)), m=m, a=a,
        se_bound=scale * math.sqrt(dim / m),
        empirical_se=float(np.std(terms, ddof=1)) / math.sqrt(m) if m > 1 else math.inf,
        two_sided=two_sided)


class _FittedMap:
    """The callable that :func:`lasso_fitted_map` returns."""

    def __init__(self, x, lam, gamma):
        self.x, self.lam, self.gamma = np.asarray(x, dtype=float), lam, gamma
        self.beta = None        # coefficients of the last answer
        self.refit = None       # support, signs, X_S, Gram of the last CD fit
        self.unconverged = 0

    def keep(self, fit):
        """Answer later calls as if ``fit`` were the last descent fit."""
        self.beta, self.refit = fit.beta, None
        if fit.converged and self.lam > 0 and fit.gram is not None:
            self.refit = (fit.support, np.sign(fit.beta[fit.support]),
                          self.x[:, fit.support], fit.gram)

    def __call__(self, yv):
        if self.refit is not None:
            support, signs, xs, gram = self.refit
            cert = solvers.certified_refit(
                self.x, xs, yv, support, signs, self.lam, gram,
                solvers.default_tol(yv), gamma=self.gamma)
            if cert is not None:
                self.beta, fitted, _ = cert
                return fitted
        fit = solvers.fit_lasso(RegressionProblem(self.x, yv), self.lam,
                                gamma=self.gamma, beta0=self.beta)
        self.unconverged += not fit.converged
        self.keep(fit)
        return fit.mu_hat


def lasso_fitted_map(x: np.ndarray, lam: float, gamma: float = 0.0,
                     start=None):
    """y -> X beta_hat(y) for the l1 / elastic-net fit.

    After a converged coordinate-descent fit the map keeps its support S,
    signs and Gram matrix ``fit.gram``, and answers each later call with
    the closed-form refit on S when :func:`solvers.certified_refit`
    certifies it as the exact minimizer, at the gap tolerance of a
    :func:`solvers.fit_lasso` call at that y; otherwise with a warm-started
    :func:`solvers.fit_lasso` from the last beta, whose support it keeps.
    A collinear l1 support has no Gram matrix, so it always goes through
    coordinate descent.

    ``start``, a :func:`solvers.fit_lasso` result on the same ``x``, ``lam``
    and ``gamma``, makes the map begin as if it had just made that fit.

    The returned callable counts in ``unconverged`` the coordinate-descent
    fits it made that missed the duality-gap tolerance.
    """
    f = _FittedMap(x, lam, gamma)
    if start is not None:
        f.keep(start)
    return f


class _SvtMap:
    """The callable that :func:`svt_map` returns."""

    def __init__(self, lam):
        self.lam = lam
        self.fallbacks = 0

    def __call__(self, y_matrix):
        out = solvers._svt_gram(y_matrix, self.lam)
        if out is None:
            self.fallbacks += 1
            out = solvers._svt_shrink(y_matrix, self.lam)[0]
        return out


def svt_map(lam: float):
    """Matrix denoiser Y -> singular-value-thresholded Y.

    Each call takes one ``eigh`` of the smaller Gram matrix
    (:func:`solvers._svt_gram`) and keeps it only under that function's
    a-priori certificate, an error bound of at most SVT_GRAM_TOL = 1e-10
    against s_max; the result then equals ``solvers.svt(Y, lam).matrix`` to
    rounding, not bitwise.  Otherwise, and for lam = 0 or input that
    ``svt`` rejects, the call is the SVD of ``svt`` with its values and
    errors.  The returned callable counts those calls in ``fallbacks``.
    """
    return _SvtMap(lam)


def _realization(f, y, m_grid, n_real, stream, a, index):
    """Table entry ``index``: one probe estimate on a fresh copy of ``f``.

    Returns the estimate and the copy's counters.  A copy keeps no state
    from other entries, so its answer depends on ``index`` alone.
    """
    g = copy.copy(f)
    counters = [name for name in COUNTERS if hasattr(g, name)]
    for name in counters:
        setattr(g, name, 0)
    est = mc_divergence(g, y, m_grid[index // n_real], stream.child(index), a)
    return est.value, {name: getattr(g, name) for name in counters}


def divergence_table(f, y, df_exact: float, m_grid, n_real: int,
                     stream: RngStream, a: float | None = None,
                     threads: int = 1) -> list[dict]:
    """Mean/std of the probe estimator over independent probe sets.

    The data point ``y`` is held fixed; for each probe count in ``m_grid``
    the estimator is recomputed ``n_real`` times with fresh probes.  Rows
    report the spread against the analytic divergence ``df_exact``.

    Each estimate starts from a shallow copy of ``f`` as it stands, draws
    from its own substream of ``stream`` and runs as one unit of
    :func:`core.replicate` on up to ``threads`` processes, so the rows do
    not depend on ``threads``.  The copies' ``unconverged`` and
    ``fallbacks`` counts are added to ``f``'s.
    """
    out = replicate(functools.partial(_realization, f, y, m_grid, n_real,
                                      stream, a),
                    len(m_grid) * n_real, threads)
    for _, counts in out:
        for name, count in counts.items():
            setattr(f, name, getattr(f, name) + count)
    rows = []
    for k, m in enumerate(m_grid):
        vals = np.array([value for value, _ in
                         out[k * n_real:(k + 1) * n_real]])
        mean = float(np.mean(vals))
        rows.append({
            "m": int(m),
            "mean": mean,
            "std": float(np.std(vals, ddof=1)),
            "df_exact": float(df_exact),
            "rel_err": abs(mean - df_exact) / max(abs(df_exact), 1e-300),
        })
    return rows
