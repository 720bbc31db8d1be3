import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from steinsure.core import RegressionProblem, RngStream
from steinsure import solvers
from steinsure.solvers import (check_kkt, fit_lasso, fit_lasso_batch,
                               soft_threshold, svt, svt_jacobian_eigenvalues)


def _problem(seed, n=40, p=60, s0=3, amp=1.0):
    gen = np.random.default_rng(seed)
    x = gen.standard_normal((n, p))
    beta = np.zeros(p)
    beta[:s0] = amp
    y = x @ beta + gen.standard_normal(n)
    return RegressionProblem(x, y)


@given(st.floats(-50, 50), st.floats(0, 20))
def test_soft_threshold_scalar(v, t):
    out = soft_threshold(np.array([v]), t)[0]
    assert abs(out) <= max(abs(v) - t, 0) + 1e-12
    assert out * v >= 0


@given(st.floats(-10, 10), st.floats(-10, 10), st.floats(0, 5))
def test_soft_threshold_nonexpansive(u, v, t):
    a, b = soft_threshold(np.array([u, v]), t)
    assert abs(a - b) <= abs(u - v) + 1e-12


def test_lasso_orthogonal_closed_form():
    # X = sqrt(n) I: the solution is componentwise soft thresholding
    n = 6
    y = np.array([3.0, -2.0, 0.4, 0.0, 1.1, -0.6])
    lam = 0.5
    fit = fit_lasso(RegressionProblem(math.sqrt(n) * np.eye(n), y), lam)
    expect = soft_threshold(y / math.sqrt(n), lam)
    np.testing.assert_allclose(fit.beta, expect, atol=1e-12)
    assert fit.df_hat == np.sum(expect != 0)
    assert fit.trace_grad_sq == fit.df_hat


def test_elastic_net_orthogonal_closed_form():
    n, lam, gamma = 4, 0.5, 2.0
    y = np.array([2.0, -1.0, 0.1, 3.0])
    fit = fit_lasso(RegressionProblem(math.sqrt(n) * np.eye(n), y), lam,
                    gamma=gamma)
    expect = soft_threshold(math.sqrt(n) * y, n * lam) / (n + gamma)
    np.testing.assert_allclose(fit.beta, expect, atol=1e-12)
    k = int(np.sum(expect != 0))
    assert fit.df_hat == pytest.approx(k * n / (n + gamma), rel=1e-12)
    assert fit.trace_grad_sq == pytest.approx(k * (n / (n + gamma)) ** 2,
                                              rel=1e-12)


def test_elastic_net_gamma_zero_limit():
    prob = _problem(0)
    f0 = fit_lasso(prob, 0.3)
    f1 = fit_lasso(prob, 0.3, gamma=1e-10)
    np.testing.assert_allclose(f0.beta, f1.beta, atol=1e-6)


def test_large_lam_gives_zero():
    prob = _problem(1)
    lam = np.max(np.abs(prob.x.T @ prob.y)) / prob.n
    fit = fit_lasso(prob, lam * 1.0001)
    assert fit.support.size == 0
    assert fit.df_hat == 0.0


def test_lam_zero_least_squares():
    prob = _problem(2, n=30, p=10)
    fit = fit_lasso(prob, 0.0)
    expect = np.linalg.lstsq(prob.x, prob.y, rcond=None)[0]
    np.testing.assert_allclose(fit.beta, expect, atol=1e-10)
    assert fit.df_hat == prob.p


def test_lam_zero_ridge():
    prob = _problem(3, n=30, p=10)
    gamma = 4.0
    fit = fit_lasso(prob, 0.0, gamma=gamma)
    expect = np.linalg.solve(prob.x.T @ prob.x + gamma * np.eye(10),
                             prob.x.T @ prob.y)
    np.testing.assert_allclose(fit.beta, expect, atol=1e-10)


def test_duality_gap_tolerance_and_kkt():
    prob = _problem(4)
    fit = fit_lasso(prob, 0.25)
    assert fit.converged
    assert fit.gap <= 1e-10 * (1 + prob.y @ prob.y / prob.n)
    rep = check_kkt(prob, 0.25, fit.beta, margin=1e-5)
    assert rep.max_active_error <= 1e-5
    assert rep.max_inactive <= 1.0


def test_kkt_flags_non_solution():
    prob = _problem(5)
    bad = np.ones(prob.p)
    rep = check_kkt(prob, 0.25, bad)
    assert not rep.strict


def test_warm_start_agrees():
    prob = _problem(6)
    cold = fit_lasso(prob, 0.3)
    warm = fit_lasso(prob, 0.3, beta0=cold.beta + 1e-3)
    np.testing.assert_allclose(cold.beta, warm.beta, atol=1e-7)


def test_batch_matches_scalar():
    gen = np.random.default_rng(7)
    x = gen.standard_normal((35, 50))
    ys = gen.standard_normal((6, 35)) + x[:, :2].sum(axis=1)
    for gamma in (0.0, 3.0):
        betas = fit_lasso_batch(x, ys, 0.2, gamma=gamma)
        for i in range(ys.shape[0]):
            ref = fit_lasso(RegressionProblem(x, ys[i]), 0.2, gamma=gamma)
            np.testing.assert_allclose(betas[i], ref.beta, atol=1e-7)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(20, 60),
       p=st.integers(5, 80), reps=st.integers(1, 4),
       frac=st.floats(0.1, 0.9), gamma=st.sampled_from([0.0, 0.3]))
def test_batch_rows_equal_scalar_fits_and_pass_kkt(seed, n, p, reps, frac,
                                                   gamma):
    gen = np.random.default_rng(seed)
    x = gen.standard_normal((n, p))
    ys = x[:, :3] @ gen.standard_normal(min(3, p)) \
        + gen.standard_normal((reps, n))
    lam = frac * float(np.max(np.abs(ys @ x))) / n   # a share of lam_max
    betas = fit_lasso_batch(x, ys, lam, gamma=gamma)
    for y, beta in zip(ys, betas):
        prob = RegressionProblem(x, y)
        np.testing.assert_allclose(
            beta, fit_lasso(prob, lam, gamma=gamma).beta, rtol=0, atol=1e-6)
        rep = check_kkt(prob, lam, beta, gamma=gamma)
        assert rep.strict
        # check_kkt takes the residual from the nonzero columns alone
        corr = (x.T @ (y - x @ beta) - gamma * beta) / (n * lam)
        active = beta != 0.0
        assert rep.max_inactive == pytest.approx(
            np.max(np.abs(corr[~active]), initial=0.0), abs=1e-12)
        assert rep.max_active_error == pytest.approx(np.max(
            np.abs(corr[active] - np.sign(beta[active])), initial=0.0),
            abs=1e-12)


def test_batch_requires_positive_lam():
    # a bad penalty fails before the first sweep, in both kernels; the
    # scalar kernel alone also takes lam = 0 (least squares)
    x, y = np.eye(3), np.ones(3)
    with pytest.raises(ValueError):
        fit_lasso_batch(x, y[None, :], 0.0)
    for lam, gamma in [(-0.1, 0.0), (math.nan, 0.0), (math.inf, 0.0),
                       (0.1, -1.0), (0.1, math.nan), (0.1, math.inf)]:
        with pytest.raises(ValueError, match="finite and nonnegative"):
            fit_lasso_batch(x, y[None, :], lam, gamma=gamma)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            fit_lasso(RegressionProblem(x, y), lam, gamma=gamma)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(20, 60),
       p=st.integers(5, 80), gamma=st.sampled_from([0.0, 0.3]),
       near=st.lists(st.floats(0.85, 0.97) | st.floats(1.03, 1.15),
                     min_size=1, max_size=3),
       dense=st.integers(1, 3),
       warm=st.sampled_from(["cold", "converged", "perturbed"]))
def test_batch_mixed_rows_equal_scalar_fits(seed, n, p, gamma, near, dense,
                                            warm):
    # rows that finish in different rounds share one call: an all-zero
    # response, rows whose lam_max sits near lam and dense rows at
    # lam = 0.1 lam_max, on a design with an all-zero column
    gen = np.random.default_rng(seed)
    x = gen.standard_normal((n, p))
    zero_col = int(gen.integers(p))
    x[:, zero_col] = 0.0
    base = x[:, :3] @ gen.standard_normal(min(3, p)) \
        + gen.standard_normal((len(near) + dense, n))
    lam_max = np.max(np.abs(base @ x), axis=1) / n
    lam = 0.1 * float(lam_max[0])
    fracs = np.array(list(near) + [0.1] * dense)
    ys = np.vstack([np.zeros(n), base * (lam / (fracs * lam_max))[:, None]])
    betas0 = None
    if warm != "cold":
        betas0 = fit_lasso_batch(x, ys, lam, gamma=gamma)
        if warm == "perturbed":
            betas0 = betas0 + 0.1 * gen.standard_normal(betas0.shape)
    betas = fit_lasso_batch(x, ys, lam, gamma=gamma, betas0=betas0)
    assert np.all(betas[:, zero_col] == 0.0)
    assert np.all(betas[0] == 0.0)
    for y, beta in zip(ys, betas):
        prob = RegressionProblem(x, y)
        np.testing.assert_allclose(
            beta, fit_lasso(prob, lam, gamma=gamma).beta, rtol=0, atol=1e-6)
        assert check_kkt(prob, lam, beta, gamma=gamma).strict


def _capped_problem():
    gen = np.random.default_rng(11)
    x = gen.standard_normal((50, 80))
    ys = x[:, :5] @ np.ones(5) + gen.standard_normal((3, 50))
    lam = 0.1 * float(np.max(np.abs(ys[0] @ x))) / 50
    return x, ys, lam


def test_fit_lasso_stops_at_max_iter():
    x, ys, lam = _capped_problem()
    prob = RegressionProblem(x, ys[0])
    warm = fit_lasso(prob, 3.0 * lam).beta
    for beta0 in (None, warm):
        for max_iter in (1, 2, 3, 11, 12, 13):
            fit = fit_lasso(prob, lam, beta0=beta0, max_iter=max_iter)
            # as in the batch kernel, a cold call here never stops a round
            # early, so it spends every sweep
            if beta0 is None:
                assert fit.n_iter == max_iter
            assert fit.n_iter <= max_iter
            assert not fit.converged
            resid = prob.y - x @ fit.beta
            assert fit.gap == pytest.approx(
                solvers._dual_gap(x, prob.y, fit.beta, resid, lam, 0.0),
                rel=1e-9)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 30),
       p=st.integers(1, 40), reps=st.integers(1, 5),
       gamma=st.sampled_from([0.0, 0.7]), scale=st.floats(0.05, 3.0))
def test_stacked_dual_gap_equals_row_gaps(seed, n, p, reps, gamma, scale):
    # stacked rows give each row's own gap; lam runs from 0.05 to 3 times
    # the largest |x'y| / n, so rows fall on both sides of the dual
    # scaling, and row 0 is the cold start beta = 0
    gen = np.random.default_rng(seed)
    x = gen.standard_normal((n, p))
    ys = gen.standard_normal((reps, n))
    betas = gen.standard_normal((reps, p)) * (gen.random((reps, p)) < 0.5)
    betas[0] = 0.0
    resids = ys - betas @ x.T
    lam = scale * float(np.max(np.abs(ys @ x))) / n
    gaps = solvers._dual_gap(x, ys, betas, resids, lam, gamma)
    assert gaps.shape == (reps,)
    for y, beta, resid, gap in zip(ys, betas, resids, gaps):
        assert gap == pytest.approx(
            solvers._dual_gap(x, y, beta, resid, lam, gamma),
            rel=1e-12, abs=1e-12)


def test_both_kernels_check_the_gap_every_round(monkeypatch):
    # cold calls here never stop a round early: sweep 1 is full, and each
    # round makes ROUND_SWEEPS sweeps, checks the gap and, if the cap
    # allows, regrows the set with one full sweep
    x, ys, lam = _capped_problem()
    calls = []
    gap = solvers._dual_gap
    monkeypatch.setattr(solvers, "_dual_gap",
                        lambda *args: calls.append(1) or gap(*args))
    max_iter = 1 + 2 * (solvers.ROUND_SWEEPS + 1)
    fit = fit_lasso(RegressionProblem(x, ys[0]), lam, max_iter=max_iter)
    assert (fit.n_iter, fit.converged, len(calls)) == (max_iter, False, 3)
    calls.clear()
    with pytest.raises(solvers.BatchUnconverged):
        fit_lasso_batch(x, ys, lam, max_iter=max_iter)
    assert len(calls) == 3


def test_batch_sweeps_stop_at_max_iter():
    # max_iter counts sweeps, the regrowing full sweep included: a cold call
    # makes sweep 1 full, 2-11 on the working set and 12 full again; both
    # starts need over 50 sweeps here
    x, ys, lam = _capped_problem()
    ref = fit_lasso_batch(x, ys, lam)
    gen = np.random.default_rng(12)
    for betas0 in (None, ref + 0.1 * gen.standard_normal(ref.shape)):
        for max_iter in (1, 2, 3, 11, 12, 13):
            with pytest.raises(solvers.BatchUnconverged) as info:
                fit_lasso_batch(x, ys, lam, max_iter=max_iter, betas0=betas0)
            assert isinstance(info.value, RuntimeError)
            assert info.value.n_iter == max_iter
            assert 1 <= info.value.unconverged <= ys.shape[0]
        np.testing.assert_allclose(fit_lasso_batch(x, ys, lam, betas0=betas0),
                                   ref, rtol=0, atol=1e-6)


def test_batch_unconverged_pickles():
    # a capped batch fit in a pool worker comes back through pickle
    err = pickle.loads(pickle.dumps(solvers.BatchUnconverged(3, 7)))
    assert type(err) is solvers.BatchUnconverged
    assert (err.unconverged, err.n_iter) == (3, 7)
    assert str(err) == str(solvers.BatchUnconverged(3, 7))


def test_batch_single_rows_and_optimal_warm_rows_equal_scalar_fits():
    # rows 0 and 1 start at their optimum, beta = 0, so no sweep moves them
    # and the rank-1 update must leave their residuals as they are; rows 2
    # and 3 start from perturbed solutions.  Each row alone (R = 1) too
    gen = np.random.default_rng(0)
    n, p, lam = 40, 60, 0.2
    x = gen.standard_normal((n, p))
    signal = x[:, :3] @ np.array([2.0, -1.5, 1.0])
    ys = np.vstack([np.zeros(n), 0.01 * gen.standard_normal(n),
                    signal + gen.standard_normal((2, n))])
    refs = [fit_lasso(RegressionProblem(x, y), lam) for y in ys]
    betas0 = np.array([ref.beta for ref in refs])
    assert not betas0[:2].any() and betas0[2:].any()
    betas0[2:] += 0.05 * gen.standard_normal((2, p))
    warm = fit_lasso_batch(x, ys, lam, betas0=betas0)
    single = np.vstack([fit_lasso_batch(x, y[None, :], lam) for y in ys])
    for betas in (warm, single):
        assert not betas[:2].any()
        for y, beta, ref in zip(ys, betas, refs):
            np.testing.assert_allclose(beta, ref.beta, rtol=0, atol=1e-9)
            assert check_kkt(RegressionProblem(x, y), lam, beta).strict


def test_objective_optimality_probe():
    # random perturbations never improve the converged objective
    prob = _problem(8)
    lam, gamma = 0.3, 1.5
    fit = fit_lasso(prob, lam, gamma=gamma)

    def objective(b):
        r = prob.y - prob.x @ b
        return (r @ r + gamma * b @ b) / (2 * prob.n) + lam * np.sum(np.abs(b))

    base = objective(fit.beta)
    gen = np.random.default_rng(0)
    for _ in range(40):
        assert objective(fit.beta + 1e-4 * gen.standard_normal(prob.p)) \
            >= base - 1e-12


def test_svt_diagonal_example():
    res = svt(np.diag([5.0, 0.5]), 1.0)
    np.testing.assert_allclose(res.matrix, np.diag([4.0, 0.0]), atol=1e-12)
    assert res.df_exact == pytest.approx(1 + 2 * 5 * 4 / (25 - 0.25),
                                         rel=1e-12)
    assert not res.degenerate


def test_svt_lam_zero_is_identity():
    gen = np.random.default_rng(10)
    y = gen.standard_normal((5, 8))
    rank_one = np.outer(gen.standard_normal(5), gen.standard_normal(5))
    for y in (y, np.zeros((3, 4)), rank_one):
        res = svt(y, 0.0)
        np.testing.assert_allclose(res.matrix, y, atol=1e-10)
        assert res.df_exact == pytest.approx(y.size, rel=1e-9)


def test_svt_divergence_matches_finite_differences():
    """Independent oracle: Hutchinson-free exact trace via full Jacobian."""
    gen = np.random.default_rng(11)
    y = gen.standard_normal((4, 5))
    lam = 0.8
    base = svt(y, lam)
    a = 1e-6
    div = 0.0
    for idx in np.ndindex(y.shape):
        yp = y.copy()
        yp[idx] += a
        div += (svt(yp, lam).matrix[idx] - base.matrix[idx]) / a
    assert base.df_exact == pytest.approx(div, rel=1e-4, abs=1e-3)


@pytest.mark.parametrize("spectrum", [(3.0, 2.0, 2.0, 1.0, 0.2),
                                      (3.0, 1.0, 0.3, 0.3, 0.1)])
def test_svt_divergence_exact_at_ties(spectrum):
    # a tie above lam (first) and below it (second); the paired limit of the
    # cross terms must agree with central finite differences
    gen = np.random.default_rng(13)
    u = np.linalg.qr(gen.standard_normal((6, 5)))[0]
    v = np.linalg.qr(gen.standard_normal((5, 5)))[0]
    y = (u * np.array(spectrum)) @ v.T
    lam, a = 0.5, 1e-5
    base = svt(y, lam)
    assert base.degenerate
    div = 0.0
    for idx in np.ndindex(y.shape):
        step = np.zeros_like(y)
        step[idx] = a
        div += (svt(y + step, lam).matrix[idx]
                - svt(y - step, lam).matrix[idx]) / (2.0 * a)
    assert base.df_exact == pytest.approx(div, abs=1e-6)


def _svt_jacobian_fd(y, lam, a):
    """Central-difference Jacobian of vec(svt) with respect to vec(y)."""
    jac = np.empty((y.size, y.size))
    for col, idx in enumerate(np.ndindex(y.shape)):
        step = np.zeros_like(y)
        step[idx] = a
        jac[:, col] = (svt(y + step, lam).matrix
                       - svt(y - step, lam).matrix).ravel() / (2.0 * a)
    return jac


def test_svt_divergence_exact_near_ties():
    # singular values 1e-9 apart: a cross-term sum s_i g_i / (s_i^2 - s_j^2)
    # loses about 7 digits to cancellation here (4.6e-8 off); the closed-form
    # divided difference does not
    gen = np.random.default_rng(13)
    u = np.linalg.qr(gen.standard_normal((6, 5)))[0]
    v = np.linalg.qr(gen.standard_normal((5, 5)))[0]
    y = (u * np.array([3.0, 2.0 + 1e-9, 2.0, 1.0, 0.2])) @ v.T
    fd = np.trace(_svt_jacobian_fd(y, 0.5, 1e-5))
    assert svt(y, 0.5).df_exact == pytest.approx(fd, abs=1e-8)


@st.composite
def _svt_case(draw):
    """(matrix, lam): q and n in 1..5, an exact tie, a 1e-9 tie or none,
    and for lam > 0 no singular value within 1e-3 of lam, where the map has
    a kink (lam = 0 is the identity map, zero singular values included)."""
    q, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    lam = draw(st.one_of(st.just(0.0), st.floats(0.1, 2.0)))
    away = st.floats(0.0, 4.0).filter(
        lambda s: lam == 0.0 or abs(s - lam) >= 1e-3)
    spectrum = draw(st.lists(away, min_size=min(q, n), max_size=min(q, n)))
    gap = draw(st.sampled_from([None, 0.0, 1e-9]))
    if gap is not None and len(spectrum) >= 2:
        spectrum[1] = spectrum[0] + gap
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = np.linalg.qr(gen.standard_normal((q, q)))[0][:, :len(spectrum)]
    v = np.linalg.qr(gen.standard_normal((n, n)))[0][:, :len(spectrum)]
    return (u * np.array(spectrum)) @ v.T, lam


@settings(max_examples=60, deadline=None)
@given(case=_svt_case())
def test_svt_jacobian_eigenvalues_match_finite_differences(case):
    y, lam = case
    res = svt(y, lam)
    eig = svt_jacobian_eigenvalues(np.linalg.svd(y, full_matrices=False)[1],
                                   *y.shape, lam)
    assert eig.size == y.size
    assert (res.df_exact, res.trace_grad_sq) == (np.sum(eig), eig @ eig)
    jac = _svt_jacobian_fd(y, lam, 1e-6)
    np.testing.assert_allclose(jac, jac.T, atol=1e-6)
    assert res.df_exact == pytest.approx(np.trace(jac), abs=1e-6)
    assert res.trace_grad_sq == pytest.approx(np.sum(jac * jac.T), abs=1e-6)


def test_svt_degenerate_flag():
    res = svt(np.eye(3) * 2.0, 0.5)
    assert res.degenerate


def test_svt_nonexpansive():
    gen = np.random.default_rng(12)
    a = gen.standard_normal((6, 6))
    b = a + 0.1 * gen.standard_normal((6, 6))
    da = svt(a, 1.0).matrix - svt(b, 1.0).matrix
    assert np.linalg.norm(da) <= np.linalg.norm(a - b) + 1e-10


def test_svt_validation():
    with pytest.raises(ValueError):
        svt(np.ones((2, 2)), -1.0)
    with pytest.raises(ValueError):
        svt(np.ones(4), 1.0)
    y = np.zeros((10, 10))
    y[0, 0], y[1, 1] = math.inf, 1.0   # an SVD of this never returns
    with pytest.raises(ValueError, match="input must be finite"):
        svt(y, 1.0)


def _duplicated_column_problem():
    g = np.random.default_rng(3)
    x = g.standard_normal((30, 8))
    x[:, 5] = x[:, 2]
    y = 2 * x[:, 2] + x[:, 0] + g.standard_normal(30)
    return RegressionProblem(x, y)


def _l1_tie_problem():
    # column 7 is the mean of columns 2 and 3, so 2 b x_7 and b (x_2 + x_3)
    # give the same fit at the same l1 norm
    g = np.random.default_rng(3)
    x = g.standard_normal((30, 8))
    x[:, 7] = (x[:, 2] + x[:, 3]) / 2
    y = 2 * x[:, 2] + 2 * x[:, 3] + x[:, 0] + g.standard_normal(30)
    return RegressionProblem(x, y)


def test_lasso_df_is_rank_of_selected_columns():
    # columns 2, 3 and 7 are dependent and all enter the support: df = rank(X_S)
    prob = _l1_tie_problem()
    fit = fit_lasso(prob, 0.1)
    assert fit.converged
    np.testing.assert_array_equal(fit.support, [0, 1, 2, 3, 5, 6, 7])
    xs = prob.x[:, fit.support]
    jac = xs @ np.linalg.pinv(xs)
    assert np.trace(jac) == pytest.approx(6.0, abs=1e-9)
    assert fit.df_hat == fit.trace_grad_sq == 6.0
    with pytest.raises(ValueError, match="rank 6 < 7"):
        solvers.refit_gram(xs, 0.0)


def _fit_distance_bound(n, gap_a, gap_b):
    # F(b) - F* >= ||X (b - b*)||^2 / (2n), so two fits whose duality gaps
    # are gap_a and gap_b have fitted values this close
    return math.sqrt(2 * n * max(gap_a, 0.0)) + math.sqrt(2 * n * gap_b)


def test_duplicated_column_fits_share_fitted_values():
    # columns 2 and 5 coincide, so beta is not unique but X beta is: a cold
    # fit and a warm fit that splits the weight over both copies agree on
    # the fitted values and on df = tr J^2 = rank(X_S)
    prob = _duplicated_column_problem()
    cold = fit_lasso(prob, 0.1)
    assert cold.converged
    beta0 = cold.beta.copy()
    beta0[[2, 5]] = (cold.beta[2] + cold.beta[5]) / 2
    warm = fit_lasso(prob, 0.1, beta0=beta0)
    assert warm.converged
    assert {2, 5} <= set(warm.support.tolist())
    assert np.linalg.norm(cold.mu_hat - warm.mu_hat) <= _fit_distance_bound(
        prob.n, cold.gap, warm.gap)
    for fit in (cold, warm):
        rank = np.linalg.matrix_rank(prob.x[:, fit.support])
        assert fit.df_hat == fit.trace_grad_sq == rank == 6


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       shape=st.sampled_from([(30, 8), (40, 60), (80, 40), (200, 300)]),
       frac=st.floats(0.1, 0.9), gamma=st.sampled_from([0.0, 0.3, 5.0]))
def test_cold_fit_is_certified_and_matches_batch(seed, shape, frac, gamma):
    # the active-set cold start is accepted only on the global duality gap
    n, p = shape
    gen = np.random.default_rng(seed)
    x = gen.standard_normal((n, p))
    y = x[:, :3] @ gen.standard_normal(3) + gen.standard_normal(n)
    lam = frac * float(np.max(np.abs(x.T @ y))) / n   # a share of lam_max
    prob = RegressionProblem(x, y)
    fit = fit_lasso(prob, lam, gamma=gamma)
    assert fit.converged and fit.gap <= solvers.default_tol(y)
    assert check_kkt(prob, lam, fit.beta, gamma=gamma).strict
    batch = fit_lasso_batch(x, y[None, :], lam, gamma=gamma)[0]
    np.testing.assert_array_equal(np.flatnonzero(batch), fit.support)
    # on a common support S, ||X_S d||^2 + gamma ||d||^2 bounds ||d|| through
    # the smallest singular value of X_S
    smin = np.linalg.svd(x[:, fit.support], compute_uv=False).min()
    bound = _fit_distance_bound(n, fit.gap, solvers.default_tol(y))
    assert (np.linalg.norm(batch - fit.beta)
            <= bound / math.sqrt(smin ** 2 + gamma))


@pytest.mark.parametrize("v, t", [(0.5, 0.5), (-0.5, 0.5), (0.0, 0.3),
                                  (-0.0, 0.3), (1e-3, 2.0), (-7.25, 1.5)])
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_sweep_threshold_equals_soft_threshold(v, t, seed):
    # on X = 2 I (n = 4, so every product and quotient by n or 2 is exact)
    # one coordinate update is the soft threshold of v = x_j'y / n
    gen = np.random.default_rng(seed)
    vs = np.append(gen.uniform(-3, 3, 3) * gen.integers(0, 2, 3), v)
    lam = t * gen.uniform(0.5, 1.5) if seed % 2 else t
    expect = soft_threshold(vs, lam)
    expect[np.abs(expect) <= solvers.HARD_ZERO] = 0.0
    fit = fit_lasso(RegressionProblem(2.0 * np.eye(4), 2.0 * vs), lam)
    assert fit.converged
    np.testing.assert_array_equal(fit.beta, expect)
    assert not np.signbit(fit.beta[fit.beta == 0.0]).any()


@pytest.mark.parametrize("n, p, gamma", [(30, 10, 0.0), (8, 12, 0.0),
                                         (30, 10, 4.0), (8, 12, 0.5)])
def test_lam_zero_df_on_all_columns(n, p, gamma):
    # least squares and ridge: df and tr J^2 from one eigvalsh of X'X
    prob = _problem(11, n=n, p=p)
    fit = fit_lasso(prob, 0.0, gamma=gamma)
    df, tr2 = solvers._df_pair(prob.x, np.arange(p), gamma)
    assert (fit.df_hat, fit.trace_grad_sq) == (df, tr2)
    if gamma == 0.0:
        assert fit.df_hat == fit.trace_grad_sq == min(n, p)


@pytest.mark.parametrize("gamma", [0.0, 0.3])
def test_fixed_sign_refit_is_the_minimizer_on_a_stable_support(gamma):
    prob = _problem(12, n=50, p=30, s0=4, amp=2.0)
    fit = fit_lasso(prob, 0.2, gamma=gamma)
    s = fit.support
    xs = prob.x[:, s]
    bs = solvers.fixed_sign_refit(xs, prob.y, np.sign(fit.beta[s]), 0.2,
                                  solvers.refit_gram(xs, gamma))
    beta = np.zeros(prob.p)
    beta[s] = bs
    np.testing.assert_allclose(beta, fit.beta, rtol=1e-9, atol=1e-12)
    assert check_kkt(prob, 0.2, beta, gamma=gamma).strict


def test_refit_gram_rejects_collinear_columns_without_ridge():
    prob = _duplicated_column_problem()
    xs = prob.x[:, [0, 2, 5]]
    with pytest.raises(ValueError, match=r"rank deficient \(rank 2 < 3\)"):
        solvers.refit_gram(xs, 0.0)
    np.testing.assert_array_equal(solvers.refit_gram(xs, 0.5),
                                  xs.T @ xs + 0.5 * np.eye(3))
