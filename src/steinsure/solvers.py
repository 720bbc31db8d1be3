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
# most working-set sweeps an l1 round makes before its finish check; the
# fixed-sign refit ends a fit soon after its support settles, and longer
# rounds mostly polish settled supports
ROUND_SWEEPS = 2
# most sweeps a fit_lasso / fit_lasso_batch call makes before it gives up
MAX_SWEEPS = 100000
BATCH_MAX_SWEEPS = 2000
# most float entries one block of the batch refit holds per array: a row
# of support size k takes k^2 + n + p of them
REFIT_BLOCK = 1 << 15


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
    gram: np.ndarray | None   # see _support_factor, on the columns of df
    refit: bool               # beta minimizes F in closed form, not by descent


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


def _dual_gap(xtr, y, beta, resid, lam, gamma):
    """Duality gap of F at beta from resid = y - X beta and xtr = resid @ X,
    via the ridge-augmented l1 formulation; one gap a row when they stack."""
    n = y.shape[-1]
    corr = (xtr - gamma * beta) / n
    cmax = np.max(np.abs(corr), axis=-1, initial=0.0)
    scale = np.where(cmax > lam, lam / np.maximum(cmax, 1e-300), 1.0)
    rss = (np.einsum("...i,...i", resid, resid)
           + gamma * np.einsum("...i,...i", beta, beta))
    primal = rss / (2 * n) + lam * np.sum(np.abs(beta), axis=-1)
    dual = scale * np.einsum("...i,...i", resid, y) / n - scale ** 2 * rss / (2 * n)
    return primal - dual


def _certificate(xtr, y, beta, resid, lam, gamma, tol):
    """(accepted, gap) of a refit beta from resid = y - X beta and xtr =
    resid @ X, the one test by which both kernels and the lasso map accept
    a refit: the strict test of :func:`check_kkt` at KKT_MARGIN (which a
    flipped or vanished sign and an inactive column at the bound fail) and
    a duality gap of at most ``tol``; one entry a row when they stack."""
    gap = _dual_gap(xtr, y, beta, resid, lam, gamma)
    strict = _kkt_report(xtr, beta, y.shape[-1] * lam, gamma,
                         KKT_MARGIN).strict
    return strict & (gap <= tol), gap


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
    ``certify()`` then applies the one finish rule of both kernels: a fit
    ends when its duality gap is within tolerance, or when
    :func:`_certificate` accepts the fixed-sign refit on its current
    support and signs, tried once per support and signs (by
    :func:`fit_lasso` even where the gap passes).  Unless the fit ends or
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

    ``d2`` holds the squared singular values of X_S, or one support a row;
    those at or below RANK_RTOL times the largest of their row count as zero
    and get weight 0.
    """
    d2 = np.maximum(d2, 0.0)
    d2[d2 <= RANK_RTOL * d2.max(axis=-1, keepdims=True, initial=0.0)] = 0.0
    # a dropped value gets 0 / (0 + gamma + 1), never 0 / 0
    return d2 / (d2 + gamma + (d2 == 0.0))


def _support_factor(xs, gamma):
    """(X_S'X_S + gamma I, w) from one ``eigvalsh`` of X_S'X_S: the matrix
    of :func:`certified_refit`, None where gamma = 0 and X_S fails the
    rank rule of :func:`support_spectrum`, and the eigenvalues w of J on S
    (:func:`_jacobian_weights`), so df = sum(w) and tr J^2 = sum(w^2)."""
    g = xs.T @ xs
    w = _jacobian_weights(np.linalg.eigvalsh(g), gamma)
    if gamma != 0.0:
        return g + gamma * np.eye(xs.shape[1]), w
    return (g if w.all() else None), w


def _df_pair(x, support, gamma):
    """(tr J, tr J^2) on S, weighted as in :func:`support_spectrum`."""
    w = _support_factor(x[:, support], gamma)[1]
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


def _finish(x, beta, lam, gamma, gap, n_iter, converged, refit, factor):
    """FitResult of ``beta``; df is taken on S, or on every column at
    lam = 0, from ``factor``, the (columns, Gram, weights) of a
    :func:`_support_factor` call, when it was made on those columns.  A
    refit that HARD_ZERO trims is no longer the refit on its support."""
    beta = np.where(np.abs(beta) <= HARD_ZERO, 0.0, beta)
    support = np.flatnonzero(beta)
    # at lam = 0 every column moves the fit, whatever its coefficient
    cols = np.arange(beta.size) if lam == 0.0 else support
    if factor is None or not np.array_equal(factor[0], cols):
        factor, refit = (cols, *_support_factor(x[:, cols], gamma)), False
    _, gram, w = factor
    return FitResult(beta, x @ beta, support, float(np.sum(w)),
                     float(np.sum(w * w)), lam, gamma, gap, n_iter, converged,
                     gram, refit)


def _rank_error(rank, size):
    return ValueError("selected columns are rank deficient (rank %d < %d)"
                      % (rank, size))


def certified_refit(x: np.ndarray, xs: np.ndarray, y: np.ndarray,
                    support: np.ndarray, signs: np.ndarray, lam: float,
                    gram: np.ndarray, tol: float, *, gamma: float = 0.0):
    """The minimizer of F with the signs on S fixed, if it minimizes F.

    Solves (X_S'X_S + gamma I) b_S = X_S'y - n lam s for ``gram`` that
    matrix and ``xs`` the caller's copy of X[:, support].  Returns
    (beta, X_S b_S, gap), beta being b_S on ``support`` and zero elsewhere,
    when :func:`_certificate` accepts beta at gap tolerance ``tol``, else
    None; as in :func:`check_kkt`, lam > 0.
    """
    bs = np.linalg.solve(gram, xs.T @ y - x.shape[0] * lam * signs)
    fitted = xs @ bs
    resid = y - fitted
    beta = np.zeros(x.shape[1])
    beta[support] = bs
    ok, gap = _certificate(resid @ x, y, beta, resid, lam, gamma, tol)
    return (beta, fitted, float(gap)) if ok else None


def fit_lasso(problem: RegressionProblem, lam: float, *, gamma: float = 0.0,
              beta0: np.ndarray | None = None) -> FitResult:
    """Cyclic coordinate descent for the (optionally ridged) l1 objective.

    ``lam = 0`` with ``gamma = 0`` falls back to least squares; ``lam = 0``
    with ``gamma > 0`` is plain ridge.  The sweeps follow the round
    schedule of :func:`_rounds`, and MAX_SWEEPS caps them.  A fit ends by
    the finish rule of :func:`_rounds`, with :func:`default_tol` as the gap
    tolerance; a check whose signs differ from the last refit's tries
    :func:`certified_refit` even when its gap passes, and ``refit`` says
    that the fit ended on it.  One :func:`_support_factor` per support tried
    gives the refit's Gram matrix, kept as ``gram``, and the weights of df.
    ``n_iter`` counts the sweeps alone; ``gap`` is that of the returned
    beta.
    """
    x, y = problem.x, problem.y
    n, p = x.shape
    _check_penalty(lam, gamma)
    tol = default_tol(y)

    if lam == 0.0:
        factor = (np.arange(p), *_support_factor(x, gamma))
        beta = (np.linalg.lstsq(x, y, rcond=None)[0] if gamma == 0.0
                else np.linalg.solve(factor[1], x.T @ y))
        return _finish(x, beta, lam, gamma, 0.0, 0, True, True, factor)

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
    # the signs, support factor and outcome of the last refit tried: the
    # fit is refit again only once its support or signs have changed
    tried, factor, refit = None, None, False

    def certify():
        # the duality gap, then the refit on the current support and signs
        nonlocal gap, tried, factor, refit
        gap = float(_dual_gap(resid @ x, y, beta, resid, lam, gamma))
        signs = np.sign(beta)
        if tried is None or not np.array_equal(signs, tried):
            tried = signs
            support = np.flatnonzero(signs)
            xs = x[:, support]
            factor = (support, *_support_factor(xs, gamma))
            # at gamma = 0 a collinear l1 support has no unique refit
            cert = None if factor[1] is None else certified_refit(
                x, xs, y, support, signs[support], lam, factor[1], tol,
                gamma=gamma)
            if cert is not None:
                beta[:], _, gap = cert
                refit = True
        return gap <= tol

    it = _rounds(sweep, lambda: beta, certify, p, beta0 is None, MAX_SWEEPS)
    return _finish(x, beta, lam, gamma, gap, it, bool(gap <= tol), refit,
                   factor)


class BatchUnconverged(RuntimeError):
    """:func:`fit_lasso_batch` reached BATCH_MAX_SWEEPS sweeps with rows whose
    duality gap is still above tolerance."""

    def __init__(self, unconverged: int, n_iter: int):
        super().__init__("batch coordinate descent left %d replications "
                         "unconverged after %d sweeps" % (unconverged, n_iter))
        self.unconverged = unconverged
        self.n_iter = n_iter

    def __reduce__(self):
        # rebuilt from its own fields, so it crosses a process boundary
        return type(self), (self.unconverged, self.n_iter)


def _batch_refit(x, gram, ys, signs, rows, lam, gamma, tol, out):
    """Refit ``rows`` of ``ys`` on their own supports and ``signs``; write
    each certified refit into its row of ``out`` and return those rows.

    Row i solves (X_S'X_S + gamma I) b_S = X_S'y_i - n lam s_i, with the
    Gram block gathered from ``gram`` = X'X, and is kept when
    :func:`_certificate` accepts it at gap tolerance tol[i].  A row with an
    empty support is not refit, nor, at gamma = 0, one whose X_S fails the
    rank rule of :func:`support_spectrum`.  Rows are solved in stacks of
    similar support size, each within REFIT_BLOCK entries per array;
    padding a support to the stack's size with zero rows and columns, and a
    unit diagonal for the solve, leaves its solution as it is.
    """
    n, p = x.shape
    sizes = np.count_nonzero(signs[rows], axis=1)
    # largest supports first, so each stack's first row sets its size; at
    # gamma = 0 more than n columns are always rank deficient
    order = np.argsort(-sizes, kind="stable")
    order = order[(sizes[order] > 0) & ((sizes[order] <= n) | (gamma > 0.0))]
    certified = []
    while order.size:
        k = int(sizes[order[0]])
        blk, order = np.split(order, [max(1, REFIT_BLOCK // (k * k + n + p))])
        kb, blk = sizes[blk], rows[blk]
        s = signs[blk]
        # each row's support columns in order, then columns off it
        cols = np.argsort(s == 0, axis=1, kind="stable")[:, :k]
        pad = np.arange(k) >= kb[:, None]
        g = gram[cols[:, :, None], cols[:, None, :]]
        g[pad[:, :, None] | pad[:, None, :]] = 0.0
        if gamma == 0.0:
            full = kb == np.count_nonzero(
                _jacobian_weights(np.linalg.eigvalsh(g), 0.0), axis=1)
            blk, s, cols, pad, g = (blk[full], s[full], cols[full],
                                    pad[full], g[full])
            if not blk.size:
                continue
        g[:, range(k), range(k)] += np.where(pad, 1.0, gamma)
        y = ys[blk]
        rhs = np.take_along_axis(y @ x - n * lam * s, cols, axis=1)
        rhs[pad] = 0.0
        beta = np.zeros((blk.size, p))
        np.put_along_axis(beta, cols,
                          np.linalg.solve(g, rhs[..., None])[..., 0], axis=1)
        resid = y - beta @ x.T
        ok = _certificate(resid @ x, y, beta, resid, lam, gamma, tol[blk])[0]
        out[blk[ok]] = beta[ok]
        certified.append(blk[ok])
    return np.concatenate(certified) if certified else rows[:0]


def fit_lasso_batch(x: np.ndarray, ys: np.ndarray, lam: float, *,
                    gamma: float = 0.0) -> np.ndarray:
    """Solve many l1 problems sharing one design; returns the (R, p) betas.

    Same objective, gap tolerance, round schedule and finish rule
    (:func:`_rounds`) as :func:`fit_lasso`, vectorized across the rows of
    ``ys``: the working set is the union of the live rows' nonzero
    columns, and each gap check drops the rows that end, by their gap or
    by their refit, solved for all failing rows at once
    (:func:`_batch_refit`); every other row continues coordinate descent.
    A column update is one BLAS rank-1 update of the live rows' residuals.
    Every row starts cold, and BATCH_MAX_SWEEPS caps the sweeps; rows still
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
    # no sweep visits a zero column, whose coefficient stays at its optimum 0
    col_sq = np.einsum("ij,ij->j", x, x).tolist()

    betas = np.zeros((nrep, p))
    # live working copies are compacted as replications converge
    bl, rl, yl, tl = betas.copy(), ys.copy(), ys, default_tol(ys)
    idx = np.arange(nrep)
    # the signs of each live row's last refit, which failed: a row is
    # refit again only once its support or signs have changed
    tried = np.zeros((nrep, p), dtype=np.int8)
    gram = None     # X'X, formed at the first refit

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
        # drop the live rows whose duality gap passes, then those whose
        # refit on their own support and signs is certified
        nonlocal bl, rl, yl, tl, idx, tried, gram
        done = _dual_gap(rl @ x, yl, bl, rl, lam, gamma) <= tl
        signs = np.sign(bl).astype(np.int8)
        rows = np.flatnonzero(~done & np.any(signs != tried, axis=1))
        if rows.size:
            if gram is None:
                gram = x.T @ x
            done[_batch_refit(x, gram, yl, signs, rows, lam, gamma, tl,
                              bl)] = True
            tried[rows] = signs[rows]
        if np.any(done):
            betas[idx[done]] = bl[done]
            keep = ~done
            bl, rl, yl, tl, idx, tried = (bl[keep], rl[keep], yl[keep],
                                          tl[keep], idx[keep], tried[keep])
        return not idx.size

    it = _rounds(sweep, lambda: bl, certify, p, True, BATCH_MAX_SWEEPS)
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
    """check_kkt of ``beta`` from xtr = X'(y - X beta) and n_lam = n lam;
    with one fit a row of ``xtr`` and ``beta``, its fields are arrays, one
    entry a row."""
    corr = (xtr - gamma * beta) / n_lam
    active = beta != 0.0
    max_inactive = np.max(np.abs(corr), axis=-1, where=~active, initial=0.0)
    max_active = np.max(np.abs(corr - np.sign(beta)), axis=-1, where=active,
                        initial=0.0)
    strict = (max_inactive <= 1.0 - margin) & (max_active <= margin)
    if strict.ndim:
        return KktReport(max_inactive, max_active, margin, strict)
    return KktReport(float(max_inactive), float(max_active), margin,
                     bool(strict))


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
    _check_penalty(lam, 0.0)
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
