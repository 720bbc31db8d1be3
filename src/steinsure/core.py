"""Shared numerical infrastructure: reproducible streams, the replication
engine, the regression data container, Gaussian designs, the chi-square CDF
and quantile, and the standard error of a sample variance.

Random numbers are produced by counter-based Philox generators keyed by a
``(seed, stream_id)`` pair, so any replication can be regenerated in
isolation without advancing global state, and :func:`replicate` can run
replications on any number of worker processes, set by :func:`workers`.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import contextvars
import ctypes
import functools
import math
import multiprocessing
import os
import sys
from dataclasses import dataclass

import numpy as np
from scipy.special import gammainc, gammaincinv


@dataclass(frozen=True)
class RngStream:
    """Immutable handle for a reproducible random stream.

    Two streams with the same ``(seed, stream_id)`` always yield identical
    draws; distinct ``stream_id`` values give statistically independent
    streams under the same seed.
    """

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        return np.random.Generator(
            np.random.Philox(key=(self.seed & 0xFFFFFFFFFFFFFFFF,
                                  self.stream_id & 0xFFFFFFFFFFFFFFFF))
        )

    def child(self, offset: int) -> "RngStream":
        """Derive a sub-stream; ``offset`` shifts the stream id."""
        return RngStream(self.seed, self.stream_id + offset)


# Workers are forked where the platform allows it (Linux): they inherit the
# parent's modules as they stand and start without importing numpy and scipy
# afresh, which under spawn costs more than a probe table gains.  The default
# start method varies with the Python version and platform, so it is named.
_POOL_CONTEXT = multiprocessing.get_context(
    "fork" if sys.platform.startswith("linux") else "spawn")
_unit = None    # the unit a pool worker runs, set by _install
# the worker count of replicate, set by workers()
_WORKERS = contextvars.ContextVar("workers", default=1)
# (get, set) thread-count functions of the OpenBLAS builds in the numpy and
# scipy wheels: numpy's has a 64-bit integer interface with suffixed names
_BLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
)


@functools.lru_cache(maxsize=None)
def _blas_thread_controls() -> tuple:
    """(get, set) thread-count functions of every OpenBLAS this process has
    loaded, found in /proc/self/maps at the first call (numpy and
    scipy.special, imported above, load both wheels' builds); empty where
    there is none or no such file."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            paths = sorted({line.split()[-1] for line in handle
                            if "openblas" in line})
    except OSError:
        return ()
    controls = []
    for path in paths:
        if "openblas" not in os.path.basename(path):
            continue
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get, set_ in _BLAS_THREAD_SYMBOLS:
            if hasattr(lib, get) and hasattr(lib, set_):
                get, set_ = getattr(lib, get), getattr(lib, set_)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                controls.append((get, set_))
                break
    return tuple(controls)


@contextlib.contextmanager
def one_blas_thread():
    """Run the body with every loaded OpenBLAS at one thread, then give each
    back the thread count it had.

    The bits of a BLAS result can depend on its thread count, so this keeps
    :func:`replicate`'s units on one fixed setting.  Where no OpenBLAS is
    found it does nothing.
    """
    controls = _blas_thread_controls()
    counts = [get() for get, _ in controls]
    for _, set_ in controls:
        set_(1)
    try:
        yield
    finally:
        for (_, set_), count in zip(controls, counts):
            set_(count)


def _install(unit) -> None:
    global _unit
    _unit = unit
    _WORKERS.set(1)     # a unit never opens a pool of its own
    # a worker ends with its pool, so its count needs no giving back
    for _, set_threads in _blas_thread_controls():
        set_threads(1)


def _run_unit(index: int):
    return _unit(index)


def worker_count(threads: int, n_units: int) -> int:
    """Processes for ``n_units`` units at ``threads`` requested workers:
    never more than the units, nor than the cores this process may use,
    and at least one."""
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    return max(1, min(threads, n_units, cores))


@contextlib.contextmanager
def workers(n: int):
    """Run the body with :func:`replicate` on up to ``n`` processes."""
    token = _WORKERS.set(n)
    try:
        yield
    finally:
        _WORKERS.reset(token)


def replicate(unit, n_units: int, chunksize: int = 1) -> list:
    """``[unit(i) for i in range(n_units)]`` on the :func:`workers` count.

    At one worker (see :func:`worker_count`) the units run in this process;
    otherwise in one process pool, which receives ``unit`` once per worker
    through its initializer, so a callable that carries large arrays is not
    sent again with each index.  A worker's own count is 1.  Results come
    back in index order, so when ``unit(i)`` depends on ``i`` alone they do
    not depend on the count.  A unit that keeps counters must return them:
    a worker's own state does not come back.  Where workers are spawned
    (not on Linux), ``unit`` must pickle and the calling script must guard
    its entry point with ``if __name__ == "__main__"``.  Every unit runs
    with BLAS at one thread (:func:`one_blas_thread`), in the workers and in
    this process alike.
    """
    n = worker_count(_WORKERS.get(), n_units)
    if n == 1:
        with one_blas_thread():
            return [unit(i) for i in range(n_units)]
    _blas_thread_controls()     # found once here; forked workers inherit it
    with concurrent.futures.ProcessPoolExecutor(
            n, mp_context=_POOL_CONTEXT, initializer=_install,
            initargs=(unit,)) as pool:
        return list(pool.map(_run_unit, range(n_units), chunksize=chunksize))


def gaussian_design(stream: RngStream, n: int, p: int,
                    covariance: np.ndarray | None = None) -> np.ndarray:
    """Sample an n-by-p design with i.i.d. rows N(0, covariance).

    ``covariance=None`` means the identity.  The covariance must be symmetric
    positive definite (checked via Cholesky).
    """
    z = stream.generator().standard_normal((n, p))
    if covariance is None:
        return z
    covariance = np.asarray(covariance, dtype=float)
    if covariance.shape != (p, p):
        raise ValueError("covariance must be p-by-p")
    try:
        chol = np.linalg.cholesky(covariance)
    except np.linalg.LinAlgError as exc:
        raise ValueError("covariance must be positive definite") from exc
    return z @ chol.T


@dataclass
class RegressionProblem:
    """A fixed design matrix with a response vector and known noise level."""

    x: np.ndarray
    y: np.ndarray
    sigma: float = 1.0

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=float).ravel()
        if self.x.ndim != 2:
            raise ValueError("design matrix must be 2-dimensional")
        if self.x.shape[0] != self.y.shape[0]:
            raise ValueError(
                "design has %d rows but response has %d entries"
                % (self.x.shape[0], self.y.shape[0])
            )
        if not (np.isfinite(self.x).all() and np.isfinite(self.y).all()):
            raise ValueError("design and response must be finite")
        if not 0.0 <= self.sigma < math.inf:   # NaN fails too
            raise ValueError("sigma must be nonnegative and finite, not %r"
                             % self.sigma)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]


def chi_square_cdf(df: float, x) -> np.ndarray | float:
    """Chi-square CDF through the regularized lower incomplete gamma."""
    x = np.asarray(x, dtype=float)
    out = np.where(x > 0, gammainc(df / 2.0, np.maximum(x, 0.0) / 2.0), 0.0)
    return float(out) if out.ndim == 0 else out


def chi_square_quantile(df: float, prob: float) -> float:
    """Invert the chi-square CDF through the inverse regularized gamma.

    Parameters
    ----------
    df : positive degrees of freedom (need not be an integer).
    prob : probability level strictly inside (0, 1).

    Returns the value q with P(chi2_df <= q) = prob, i.e.
    2 * gammaincinv(df / 2, prob).  Raises ValueError on invalid input.
    """
    if df <= 0:
        raise ValueError("df must be positive")
    if not (0.0 < prob < 1.0):
        raise ValueError("prob must lie strictly between 0 and 1")
    return 2.0 * float(gammaincinv(df / 2.0, prob))


def sample_variance(values: np.ndarray) -> tuple[float, float]:
    """Sample variance (ddof 1) of the r ``values`` and its standard error
    sqrt(max(m4 - var^2, 0) / r), m4 being their fourth central moment."""
    var = float(np.var(values, ddof=1))
    m4 = float(np.mean((values - np.mean(values)) ** 4))
    return var, math.sqrt(max(m4 - var**2, 0.0) / values.size)
