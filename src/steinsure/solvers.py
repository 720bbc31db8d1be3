"""Sparse shrinkage solvers and their analytic gradients.

The l1 path is cyclic coordinate descent on

    F(b) = ||X b - y||^2 / (2n) + lam * ||b||_1 + gamma * ||b||^2 / (2n),

stopped by duality gap.  ``gamma = 0`` is the plain l1 fit; ``gamma > 0``
adds the ridge term (the quadratic penalty is normalized by n so that the
fitted-value gradient is X_S (X_S' X_S + gamma I)^{-1} X_S' on the active
set S).  A replication-vectorized variant shares one design across many
response vectors; it is verified against the scalar solver in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import RegressionProblem

HARD_ZERO = 1e-12
# a squared singular value of X_S counts as nonzero above this share of the
# largest; see support_spectrum
RANK_RTOL = 1e-12
KKT_MARGIN = 1e-6
# largest a-priori error bound that _svt_gram accepts
SVT_GRAM_TOL = 1e-10
# most working-set sweeps an l1 round makes before its duality-gap check
ROUND_SWEEPS = 10


def soft_threshold(v, t):
    """Componentwise soft thresholding sign(v) * max(|v| - t, 0)."""
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def default_tol(y: np.ndarray):
    """Duality-gap tolerance 1e-10 * (1 + ||y||^2/n), one per row of ``y``."""
    n = y.shape[-1]
    return 1e-10 * (1.0 + np.sum(y * y, axis=-1) / n)


@dataclass
class FitResult:
    beta: np.ndarray
    mu_hat: np.ndarray
    support: np.ndarray
    df_hat: float
    trace_grad_sq: float
    lam: float
    gamma: float
    gap: float
    n_iter: int
    converged: bool

    @property
    def size(self) -> int:
        return int(self.support.size)


class KktReport(NamedTuple):
    max_inactive: float       # largest |x_j'(y - X b) - gamma b_j| / (n lam), j inactive
    max_active_error: float   # largest deviation from the active-sign condition
    margin: float
    strict: bool


class SvtResult(NamedTuple):
    matrix: np.ndarray
    df_exact: float
    degenerate: bool          # two singular values within 1e-12 s_1
    trace_grad_sq: float


def _dual_gap(x, y, beta, resid, lam, gamma):
    """Duality gap of F at beta, via the ridge-augmented l1 formulation; one
    gap per row when ``y``, ``beta`` and ``resid`` stack one problem a row."""
    n = y.shape[-1]
    corr = (resid @ x - gamma * beta) / n
    cmax = np.max(np.abs(corr), axis=-1, initial=0.0)
    scale = np.where(cmax > lam, lam / np.maximum(cmax, 1e-300), 1.0)
    rss = (np.einsum("...i,...i", resid, resid)
           + gamma * np.einsum("...i,...i", beta, beta))
    primal = rss / (2 * n) + lam * np.sum(np.abs(beta), axis=-1)
    dual = scale * np.einsum("...i,...i", resid, y) / n - scale ** 2 * rss / (2 * n)
    return primal - dual


def _check_penalty(lam, gamma):
    """Reject a negative, infinite or NaN penalty: its gap never converges."""
    if not (0.0 <= lam < math.inf and 0.0 <= gamma < math.inf):
        raise ValueError("penalty levels must be finite and nonnegative")


def _rounds(sweep, coefs, certify, p, cold, max_iter):
    """Run the l1 round schedule and return the number of sweeps made.

    A cold start makes one full sweep.  Each round sweeps the nonzero
    columns of ``coefs()`` (all columns when there are none; the union over
    rows when it stacks fits) at most ROUND_SWEEPS times, stopping once
    ``sweep(cols)`` returns a largest move of at most 1e-14 (1 + max|coefs()|).
    ``certify()`` then checks the duality gap; unless it passes or
    ``max_iter`` sweeps are spent, a full sweep regrows the set (Friedman,
    Hastie & Tibshirani 2010, J. Stat. Softw. 33(1)).
    """
    full = list(range(p))
    it = 0
    if cold:
        sweep(full)
        it = 1
    while True:
        nonzero = np.any(np.atleast_2d(coefs()) != 0.0, axis=0)
        active = np.flatnonzero(nonzero).tolist() or full
        for _ in range(min(ROUND_SWEEPS, max_iter - it)):
            moved = sweep(active)
            it += 1
            if moved <= 1e-14 * (1.0 + np.max(np.abs(coefs()), initial=0.0)):
                break
        if certify() or it >= max_iter:
            return it
        sweep(full)
        it += 1


def _jacobian_weights(d2, gamma):
    """Eigenvalues d^2 / (d^2 + gamma) of the fitted-value gradient on S.

    ``d2`` holds the squared singular values of X_S; those at or below
    RANK_RTOL times the largest count as zero and get weight 0.
    """
    d2 = np.maximum(d2, 0.0)
    d2[d2 <= RANK_RTOL * d2.max(initial=0.0)] = 0.0
    # a dropped value gets 0 / (0 + gamma + 1), never 0 / 0
    return d2 / (d2 + gamma + (d2 == 0.0))


def _df_pair(x, support, gamma):
    """(tr J, tr J^2) on S from the eigenvalues of X_S'X_S alone, weighted
    as in :func:`support_spectrum`; with gamma = 0 both are rank(X_S)."""
    if support.size == 0:
        return 0.0, 0.0
    xs = x[:, support]
    w = _jacobian_weights(np.linalg.eigvalsh(xs.T @ xs), gamma)
    return float(np.sum(w)), float(np.sum(w * w))


def support_spectrum(x: np.ndarray, support, gamma: float):
    """(basis, weights) with X_S (X_S'X_S + gamma I)^+ X_S' = U diag(w) U'.

    U is an orthonormal basis of span X_S and w holds d^2 / (d^2 + gamma)
    over the nonzero singular values d of X_S, those with d^2 > RANK_RTOL
    d_max^2 (d > 1e-6 d_max).  Squared singular values computed from X_S'X_S
    carry errors near 1e-16 d_max^2, so the cut sits far above that noise
    and always drops an exactly repeated column.
    """
    support = np.asarray(support, dtype=int)
    q, r = np.linalg.qr(np.asarray(x, dtype=float)[:, support])
    rr = r @ r.T                  # same nonzero spectrum as X_S'X_S
    if gamma == 0.0:
        weights = _jacobian_weights(np.linalg.eigvalsh(rr), 0.0)
        if weights.all():         # full rank: the thin QR factor is a basis
            return q, weights
    d2, w = np.linalg.eigh(rr)
    weights = _jacobian_weights(d2, gamma)
    keep = weights > 0.0
    return q @ w[:, keep], weights[keep]


def _finish(x, y, beta, lam, gamma, gap, n_iter, converged, df_cols=None):
    """FitResult of ``beta``; df is taken on ``df_cols`` (default: S)."""
    beta = np.where(np.abs(beta) <= HARD_ZERO, 0.0, beta)
    support = np.flatnonzero(beta)
    mu_hat = x @ beta
    df, tr2 = _df_pair(x, support if df_cols is None else df_cols, gamma)
    return FitResult(beta=beta, mu_hat=mu_hat, support=support, df_hat=df,
                     trace_grad_sq=tr2, lam=lam, gamma=gamma, gap=gap,
                     n_iter=n_iter, converged=converged)


def refit_gram(xs: np.ndarray, gamma: float) -> np.ndarray:
    """X_S'X_S + gamma I, the matrix of :func:`fixed_sign_refit` on S.

    At gamma = 0 a rank-deficient X_S, by the rule of
    :func:`support_spectrum`, raises ValueError: the selected columns then
    do not determine the coefficients.
    """
    g = xs.T @ xs
    if gamma != 0.0:
        return g + gamma * np.eye(xs.shape[1])
    rank = int(np.count_nonzero(_jacobian_weights(np.linalg.eigvalsh(g), 0.0)))
    if rank < xs.shape[1]:
        raise ValueError("selected columns are rank deficient (rank %d < %d)"
                         % (rank, xs.shape[1]))
    return g


def fixed_sign_refit(xs: np.ndarray, y: np.ndarray, signs: np.ndarray,
                     lam: float, gram: np.ndarray) -> np.ndarray:
    """Minimizer of F over the coefficients on S with their signs fixed.

    Solves (X_S'X_S + gamma I) b_S = X_S'y - n lam s for ``gram`` from
    :func:`refit_gram`; :func:`certified_refit` decides whether it minimizes F.
    """
    return np.linalg.solve(gram, xs.T @ y - xs.shape[0] * lam * signs)


def certified_refit(xs: np.ndarray, y: np.ndarray, support: np.ndarray,
                    signs: np.ndarray, lam: float, gram: np.ndarray, xt, *,
                    gamma: float = 0.0) -> np.ndarray | None:
    """:func:`fixed_sign_refit` on S if it minimizes F, else None.

    b_S on ``support``, zero elsewhere, must pass the strict test of
    :func:`check_kkt` at its default margin (a flipped or vanished sign and
    an inactive column at the bound each fail it), with X'r = ``xt(r)``
    formed from the caller's own factors of X.  At lam = 0 the refit is the
    normal-equation solve on S and needs no certificate.
    """
    bs = fixed_sign_refit(xs, y, signs, lam, gram)
    if lam == 0.0:
        return bs
    xtr = xt(y - xs @ bs)
    beta = np.zeros(xtr.size)
    beta[support] = bs
    return bs if _kkt_report(xtr, beta, xs.shape[0] * lam, gamma,
                             KKT_MARGIN).strict else None


def fit_lasso(problem: RegressionProblem, lam: float, *, gamma: float = 0.0,
              beta0: np.ndarray | None = None, max_iter: int = 100000,
              tol: float | None = None) -> FitResult:
    """Cyclic coordinate descent for the (optionally ridged) l1 objective.

    ``lam = 0`` with ``gamma = 0`` falls back to least squares; ``lam = 0``
    with ``gamma > 0`` is plain ridge.  Convergence is declared when the
    duality gap falls below ``tol`` (default 1e-10 * (1 + ||y||^2/n)).
    The sweeps follow the round schedule of :func:`_rounds`, and
    ``max_iter`` caps them.
    """
    x, y = problem.x, problem.y
    n, p = x.shape
    _check_penalty(lam, gamma)
    if tol is None:
        tol = default_tol(y)

    if lam == 0.0:
        if gamma == 0.0:
            beta = np.linalg.lstsq(x, y, rcond=None)[0]
        else:
            beta = np.linalg.solve(x.T @ x + gamma * np.eye(p), x.T @ y)
        # every column moves the fit, whatever its coefficient
        return _finish(x, y, beta, lam, gamma, 0.0, 0, True,
                       df_cols=np.arange(p))

    col_sq = np.einsum("ij,ij->j", x, x)
    beta = np.zeros(p) if beta0 is None else np.array(beta0, dtype=float)
    # a zero column's coefficient is 0 at the optimum and no sweep visits it
    beta[col_sq == 0.0] = 0.0
    col_sq = col_sq.tolist()
    resid = y - x @ beta if beta0 is not None else y.copy()

    def sweep(cols):
        # Python-float soft threshold: equals soft_threshold up to the sign
        # of a zero, which never reaches beta or the residual
        nonlocal resid
        moved = 0.0
        for j in cols:
            csj = col_sq[j]
            if csj == 0.0:
                continue
            xj = x[:, j]
            bj = beta.item(j)
            cj = float(resid @ xj) + csj * bj
            v = cj / n
            a = abs(v) - lam
            bn = (math.copysign(a, v) if a > 0.0 else 0.0) * n / (csj + gamma)
            if bn != bj:
                resid -= (bn - bj) * xj
                beta[j] = bn
                moved = max(moved, abs(bn - bj))
        return moved

    gap = math.inf

    def certify():
        nonlocal gap
        gap = float(_dual_gap(x, y, beta, resid, lam, gamma))
        return gap <= tol

    it = _rounds(sweep, lambda: beta, certify, p, beta0 is None, max_iter)
    return _finish(x, y, beta, lam, gamma, gap, it, bool(gap <= tol))


class BatchUnconverged(RuntimeError):
    """:func:`fit_lasso_batch` reached ``max_iter`` sweeps with rows whose
    duality gap is still above tolerance."""

    def __init__(self, unconverged: int, n_iter: int):
        super().__init__("batch coordinate descent left %d replications "
                         "unconverged after %d sweeps" % (unconverged, n_iter))
        self.unconverged = unconverged
        self.n_iter = n_iter

    def __reduce__(self):
        # rebuilt from its own fields, so it crosses a process boundary
        return type(self), (self.unconverged, self.n_iter)


def fit_lasso_batch(x: np.ndarray, ys: np.ndarray, lam: float, *,
                    gamma: float = 0.0, max_iter: int = 2000,
                    tol: float | None = None,
                    betas0: np.ndarray | None = None) -> np.ndarray:
    """Solve many l1 problems sharing one design; returns the (R, p) betas.

    Same objective, gap tolerance and round schedule (:func:`_rounds`) as
    :func:`fit_lasso`, vectorized across the rows of ``ys``: the working
    set is the union of the live rows' nonzero columns, and each gap check
    drops the rows that pass.  A column update is one BLAS rank-1 update
    of the live rows' residuals.  ``max_iter`` caps the sweeps; rows still
    above tolerance then raise :class:`BatchUnconverged`.  Pure performance
    path for replication studies.
    """
    # scipy.linalg takes about 60 ms to import, which only this path needs
    from scipy.linalg.blas import dgemm

    x = np.asarray(x, dtype=float)
    ys = np.atleast_2d(np.asarray(ys, dtype=float))
    n, p = x.shape
    nrep = ys.shape[0]
    _check_penalty(lam, gamma)
    if lam == 0.0:
        raise ValueError("batch path requires lam > 0")
    xt = np.ascontiguousarray(x.T)
    col_sq = np.einsum("ij,ij->j", x, x)

    betas = np.zeros((nrep, p)) if betas0 is None else np.array(betas0, dtype=float)
    # a zero column's coefficient is 0 at the optimum and no sweep visits it
    betas[:, col_sq == 0.0] = 0.0
    col_sq = col_sq.tolist()
    # live working copies are compacted as replications converge
    bl = betas.copy()
    rl = ys - bl @ x.T if betas0 is not None else ys.copy()
    yl = ys.copy()
    tl = default_tol(ys) if tol is None else np.full(nrep, tol)
    idx = np.arange(nrep)

    n_lam = n * lam

    def sweep(cols):
        nonlocal rl
        moves = []   # reduced once a sweep, not per column: ~10% faster
        for j in cols:
            csj = col_sq[j]
            if csj == 0.0:
                continue
            xj = xt[j]
            bj = bl[:, j]
            cj = rl @ xj + csj * bj
            # the soft threshold of cj / n at lam, times n / (csj + gamma)
            bn = ((cj - np.minimum(np.maximum(cj, -n_lam), n_lam))
                  / (csj + gamma))
            delta = bn - bj
            if delta.any():
                # rl -= delta xj' in one BLAS call; a row whose delta is 0
                # keeps its residual bit for bit.  A gemm of inner dimension
                # 1, not dger: with BLAS threads unpinned, OpenBLAS threads
                # dger from about 8,000 entries, and those threads contend
                # with numpy's own BLAS threads (the selection study ran
                # 4.7x slower).  The return value is kept in case BLAS
                # copies rl
                rl = dgemm(-1.0, xj[:, None], delta[None, :], beta=1.0,
                           c=rl.T, overwrite_c=1).T
                bl[:, j] = bn
                moves.append(delta)
        return float(np.max(np.abs(np.concatenate(moves)))) if moves else 0.0

    def certify():
        # drop the live rows whose duality gap passes
        nonlocal bl, rl, yl, tl, idx
        done = _dual_gap(x, yl, bl, rl, lam, gamma) <= tl
        if np.any(done):
            betas[idx[done]] = bl[done]
            keep = ~done
            bl, rl, yl, tl, idx = bl[keep], rl[keep], yl[keep], tl[keep], idx[keep]
        return not idx.size

    it = _rounds(sweep, lambda: bl, certify, p, betas0 is None, max_iter)
    if idx.size:
        raise BatchUnconverged(idx.size, it)
    betas[np.abs(betas) <= HARD_ZERO] = 0.0
    return betas


def check_kkt(problem: RegressionProblem, lam: float, beta: np.ndarray, *,
              gamma: float = 0.0, margin: float = KKT_MARGIN) -> KktReport:
    """Stationarity check for the l1 objective at a candidate solution.

    Inactive coordinates need |x_j' r - gamma b_j| <= n lam (1 - margin);
    active ones need the scaled correlation to sit within ``margin`` of the
    coefficient sign.
    """
    if lam <= 0:
        raise ValueError("KKT report requires lam > 0")
    x = problem.x
    beta = np.asarray(beta, dtype=float)
    nz = np.flatnonzero(beta)
    return _kkt_report(x.T @ (problem.y - x[:, nz] @ beta[nz]), beta,
                       x.shape[0] * lam, gamma, margin)


def _kkt_report(xtr, beta, n_lam, gamma, margin) -> KktReport:
    """check_kkt of ``beta`` from xtr = X'(y - X beta) and n_lam = n lam."""
    corr = (xtr - gamma * beta) / n_lam
    active = beta != 0.0
    max_inactive = float(np.max(np.abs(corr[~active]))) if np.any(~active) else 0.0
    max_active = (float(np.max(np.abs(corr[active] - np.sign(beta[active]))))
                  if np.any(active) else 0.0)
    strict = max_inactive <= 1.0 - margin and max_active <= margin
    return KktReport(max_inactive, max_active, margin, strict)


def svt_jacobian_eigenvalues(s, q: int, n: int, lam: float) -> np.ndarray:
    """The q n eigenvalues of the Jacobian of singular value thresholding.

    SVT is the prox of lam times the nuclear norm, so its Jacobian at a q-by-n
    matrix with singular values s_1, ..., s_k (k = min(q, n)) is symmetric.
    With g(s) = (s - lam)_+ its eigenvalues are (Candes, Sing-Long & Trzasko
    2013, IEEE TSP 61(19))

        g'(s_i) = 1{s_i > lam}                     once for each i,
        g(s_i) / s_i                               |q - n| times for each i,
        (g(s_i) + g(s_j)) / (s_i + s_j)            once for each pair i < j,
        (g(s_i) - g(s_j)) / (s_i - s_j)            once for each pair i < j.

    The last is taken in closed form: 1 when both values exceed lam, 0 when
    neither does and (s_hi - lam) / (s_hi - s_lo) when they straddle it, so
    it has no cancellation and a tie needs no special case.  At lam = 0 the
    map is the identity and every eigenvalue is 1.
    """
    if lam == 0.0:
        return np.ones(q * n)
    s = np.asarray(s, dtype=float)
    g = np.maximum(s - lam, 0.0)
    own = g / np.where(s > 0.0, s, 1.0)
    i, j = np.triu_indices(s.size, 1)
    hi, lo = np.maximum(s[i], s[j]), np.minimum(s[i], s[j])
    total = hi + lo
    plus = (g[i] + g[j]) / np.where(total > 0.0, total, 1.0)
    minus = np.where(lo > lam, 1.0,
                     np.maximum(hi - lam, 0.0) / np.where(hi > lo, hi - lo, 1.0))
    return np.concatenate([(s > lam).astype(float), np.repeat(own, abs(q - n)),
                           plus, minus])


def _svt_shrink(y_matrix, lam: float):
    """(thresholded matrix, singular values) of a validated input matrix."""
    y_matrix = np.asarray(y_matrix, dtype=float)
    if y_matrix.ndim != 2:
        raise ValueError("input must be a matrix")
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    if not np.isfinite(y_matrix).all():
        # the SVD of some non-finite matrices never returns
        raise ValueError("input must be finite")
    u, s, vt = np.linalg.svd(y_matrix, full_matrices=False)
    return (u * np.maximum(s - lam, 0.0)) @ vt, s


def _svt_gram(y_matrix, lam: float):
    """The thresholded matrix from one ``eigh`` of the smaller Gram matrix,
    or None when it is not certified.

    SVT(Y) = Y h(Y'Y) = h(YY') Y with h(t) = (1 - lam / sqrt(t))_+, which is
    Lipschitz with L = 1 / (2 lam^2); the Frobenius norm is Lipschitz for
    matrix functions with the same constant.  A rounding error of order
    k eps s_max^2 in the Gram matrix (k = min(q, n)) thus moves h by at
    most k eps s_max^2 / (2 lam^2), and the result is accepted only when
    that is at most SVT_GRAM_TOL.  The Gram matrix is formed from Y / lam,
    so that its entries neither underflow against lam^2 nor need the
    certificate rescaled.  lam <= 0 (or NaN), an empty or non-matrix input
    and a non-finite or overflowing Y are never certified.  Small singular
    values come out of the Gram eigenvalues only to about sqrt(eps) s_max,
    so :func:`svt`, whose divergence needs them, keeps the SVD.
    """
    y_matrix = np.asarray(y_matrix, dtype=float)
    if y_matrix.ndim != 2 or y_matrix.size == 0 or not lam > 0.0:
        return None
    wide = y_matrix.shape[0] < y_matrix.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        z = y_matrix / lam
        gram = z @ z.T if wide else z.T @ z
    if not math.isfinite(np.trace(gram)):
        return None
    w, v = np.linalg.eigh(gram)   # ascending: w[-1] = (s_max / lam)^2
    bound = min(y_matrix.shape) * np.finfo(float).eps * w[-1] / 2.0
    if bound > SVT_GRAM_TOL:
        return None
    keep = w > 1.0
    v = v[:, keep]
    h = 1.0 - 1.0 / np.sqrt(w[keep])
    if wide:
        return (v * h) @ (v.T @ y_matrix)
    return ((y_matrix @ v) * h) @ v.T


def svt(y_matrix: np.ndarray, lam: float) -> SvtResult:
    """Singular value soft thresholding with its exact divergence and tr J^2.

    Both are read off :func:`svt_jacobian_eigenvalues`: ``df_exact`` is the
    sum of the eigenvalues and ``trace_grad_sq`` the sum of their squares.
    ``degenerate`` flags two singular values within 1e-12 * s_1 of each
    other; it is informational and feeds no formula.
    """
    out, s = _svt_shrink(y_matrix, lam)
    eig = svt_jacobian_eigenvalues(s, *out.shape, lam)
    degenerate = bool(np.any(s[:-1] - s[1:]
                             < 1e-12 * max(s[0] if s.size else 0.0, 1.0e-300)))
    return SvtResult(out, float(np.sum(eig)), degenerate, float(eig @ eig))
