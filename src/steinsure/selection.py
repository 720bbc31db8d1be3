"""Risk-estimate-driven selection among candidate estimators.

Picking the candidate with the smallest unbiased risk estimate is safe up
to an additive term quantified by the bounds below; the triangle-wave pair
shows the n^{1/4} term in those bounds is not an artifact.
"""

from __future__ import annotations

import math

import numpy as np

from .core import RngStream
from . import stein


def sure_tune(candidates) -> int:
    """Index of the smallest risk estimate; ties go to the lowest index."""
    values = np.asarray(candidates, dtype=float).ravel()
    if values.size == 0:
        raise ValueError("cannot tune over an empty candidate set")
    return int(np.argmin(values))


def selection_gap_bound(m: int, alpha: float, lipschitz: float,
                        s_star: float, sigma: float) -> float:
    """High-probability excess-norm bound for the tuned estimator.

    With probability at least 1 - alpha the tuned candidate's distance to
    the mean exceeds the best candidate's by at most this amount.
    """
    if not (0 < alpha < 1):
        raise ValueError("alpha must be in (0, 1)")
    if m < 1 or s_star < 0 or lipschitz < 0:
        raise ValueError("invalid candidate-set parameters")
    t1 = (8.0 * s_star * m / alpha) ** 0.25
    t2 = (8.0 * m * (math.sqrt(2.0) * lipschitz + 1.0) / alpha) ** 0.5
    return sigma * max(t1, t2)


def max_gap_bound(m: int, delta: float, lipschitz: float, sigma: float) -> float:
    """Uniform bound on |risk estimate - loss| gaps across m candidates."""
    if not (0 < delta < 1) or m < 1:
        raise ValueError("invalid parameters")
    return 2.0 * lipschitz * sigma * math.sqrt(2.0 * math.log(m / delta))


def squared_risk_gap_bound(n: int, m: int, lipschitz: float, sigma: float) -> float:
    """In-expectation bound on the tuned candidate's excess squared error."""
    return lipschitz * sigma**2 * math.sqrt(32.0 * n * m)


# ---------------------------------------------------------------------------
# the adversarial pair


class ZeroEstimator:
    """mu_hat(y) = 0, divergence 0."""

    def mu(self, y: np.ndarray) -> np.ndarray:
        return np.zeros_like(np.asarray(y, dtype=float))

    def divergence(self, y: np.ndarray) -> float:
        return 0.0


class TriangleWaveEstimator:
    """Shift plus a componentwise 1-Lipschitz triangular wave.

    mu_hat(y)_i = v_i + g(y_i) where g is even, periodic with period
    2^(K+1) sigma, and g(u) = sigma * min(u/sigma, 2^K - u/sigma) on
    [0, 2^K sigma]; its slope is +-1 almost everywhere so the divergence is
    a sum of n signs.  The shift v has ||v||^2 = sigma^2 sqrt(n).  Negative
    ``period_exponent`` values give a fine, low-amplitude wave whose
    divergence behaves like a random walk while the fitted values barely
    move; that regime produces the n^{1/4} selection gap.
    """

    def __init__(self, n: int, sigma: float = 1.0,
                 period_exponent: int | None = None,
                 shift: np.ndarray | None = None):
        if n < 1 or sigma <= 0:
            raise ValueError("need n >= 1 and sigma > 0")
        self.n = n
        self.sigma = float(sigma)
        self.k = min(n, 20) if period_exponent is None else int(period_exponent)
        self.half = (2.0 ** self.k) * self.sigma   # half period
        self.period = 2.0 * self.half
        if shift is None:
            shift = np.full(n, sigma * n ** (-0.25))
        self.shift = np.asarray(shift, dtype=float)
        if self.shift.shape != (n,):
            raise ValueError("shift must have length n")
        if not math.isclose(float(self.shift @ self.shift),
                            sigma**2 * math.sqrt(n), rel_tol=1e-8):
            raise ValueError("shift must satisfy ||v||^2 = sigma^2 sqrt(n)")

    def wave(self, u):
        """(values, slopes) of the scalar wave, componentwise."""
        u = np.asarray(u, dtype=float)
        t = np.mod(u, self.period)
        mirror = t > self.half
        tm = np.where(mirror, self.period - t, t)
        vals = np.minimum(tm, self.half - tm)
        slopes = np.where(tm < 0.5 * self.half, 1.0, -1.0)
        return vals, np.where(mirror, -slopes, slopes)

    def mu(self, y: np.ndarray) -> np.ndarray:
        vals, _ = self.wave(y)
        return self.shift + vals

    def divergence(self, y: np.ndarray) -> float:
        _, slopes = self.wave(y)
        return float(np.sum(slopes))


def adversarial_pair(n: int, sigma: float = 1.0,
                     period_exponent: int | None = None):
    """The zero estimator alongside its triangle-wave adversary."""
    return ZeroEstimator(), TriangleWaveEstimator(n, sigma, period_exponent)


def adversarial_gap_experiment(n: int, sigma: float, reps: int,
                               stream: RngStream, c: float = 0.9,
                               period_exponent: int = -8) -> dict:
    """Frequency with which risk-estimate tuning pays an n^{1/4} price.

    Under mu = 0 the zero estimator has loss 0, yet with constant
    probability the risk estimate prefers the wave estimator, whose distance
    to the mean is about sigma * n^{1/4}.  Returns the frequency of
    {tuning picks the wave, gap >= c sigma n^{1/4}} over the replications.
    """
    zero, wave = adversarial_pair(n, sigma, period_exponent)
    gen = stream.generator()
    threshold = c * sigma * n ** 0.25
    hits = 0
    picked = 0
    for _ in range(reps):
        y = sigma * gen.standard_normal(n)
        vals, slopes = wave.wave(y)
        mu2 = wave.shift + vals
        sure0, sure2 = stein.sure(y, np.stack([zero.mu(y), mu2]),
                                  np.array([0.0, np.sum(slopes)]), sigma)
        if sure2 < sure0:
            picked += 1
            if math.sqrt(float(mu2 @ mu2)) >= threshold:
                hits += 1
    return {"n": n, "reps": reps, "c": c, "period_exponent": period_exponent,
            "pick_frequency": picked / reps, "gap_frequency": hits / reps}
