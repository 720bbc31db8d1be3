import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from steinsure.core import RegressionProblem, RngStream, gaussian_design
from steinsure import debias as dm
from steinsure import solvers
from steinsure.divergence_mc import mc_divergence


def test_direction_normalization():
    gen = np.random.default_rng(0)
    p = 6
    m = gen.standard_normal((p, p))
    sigma = m @ m.T + p * np.eye(p)
    a0_raw = gen.standard_normal(p)
    d = dm.direction_setup(a0_raw, sigma, p)
    # <a0, Sigma^{-1} a0> = 1 and u0 = Sigma^{-1} a0 after normalization
    assert d.a0 @ np.linalg.solve(sigma, d.a0) == pytest.approx(1.0, rel=1e-10)
    np.testing.assert_allclose(d.u0, np.linalg.solve(sigma, d.a0), atol=1e-10)
    assert d.a0 @ d.u0 == pytest.approx(1.0, rel=1e-10)


def test_direction_projector_idempotent_and_reconstruction():
    gen = np.random.default_rng(1)
    p, n = 5, 12
    d = dm.direction_setup(gen.standard_normal(p), None, p)
    q0 = np.eye(p) - np.outer(d.u0, d.a0)
    np.testing.assert_allclose(q0 @ q0, q0, atol=1e-12)
    x = gen.standard_normal((n, p))
    z0 = x @ d.u0
    np.testing.assert_allclose(np.outer(z0, d.a0) + x @ q0, x, atol=1e-12)


def test_direction_validation():
    with pytest.raises(ValueError):
        dm.direction_setup(np.ones(3), None, 4)
    with pytest.raises(ValueError):
        dm.direction_setup(np.zeros(3), None, 3)
    # a non-finite entry would scale the direction by nan or inf
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="direction must be finite"):
            dm.direction_setup(np.array([1.0, 0.0, bad]), None, 3)
        with pytest.raises(ValueError, match="direction must be finite"):
            dm.direction_setup(np.array([bad, 0.0, 1.0]), np.eye(3), 3)


def test_scalar_ols_exact():
    gen = np.random.default_rng(2)
    x = gen.standard_normal((40, 1))
    beta = np.array([1.5])
    eps = gen.standard_normal(40)
    y = x[:, 0] * beta[0] + eps
    d = dm.direction_setup(np.array([1.0]), None, 1)
    rep = dm.debias_theta(x, y, 0.0, d, beta_true=beta)
    ols = float(np.linalg.lstsq(x, y, rcond=None)[0][0])
    assert rep.theta_hat == pytest.approx(ols, abs=1e-10)
    assert rep.nu_hat == 0.0 and rep.b_hat == 0.0
    assert rep.v_star == pytest.approx(float(eps @ eps), rel=1e-10)
    assert rep.pivot == pytest.approx(rep.z0_norm_sq * (ols - 1.5), rel=1e-9)


def test_empty_support_corrections_vanish():
    gen = np.random.default_rng(4)
    x = gen.standard_normal((30, 10))
    y = gen.standard_normal(30)
    lam = 10.0 * float(np.max(np.abs(x.T @ y))) / 30
    d = dm.direction_setup(np.eye(10)[0], None, 10)
    rep = dm.debias_theta(x, y, lam, d)
    assert rep.theta_proj == 0.0
    assert rep.nu_hat == 0.0 and rep.b_hat == 0.0 and rep.a_hat == 0.0
    # theta_hat reduces to the marginal score estimate
    z0 = x @ d.u0
    assert rep.theta_hat == pytest.approx(float(z0 @ y) / float(z0 @ z0),
                                          rel=1e-10)


def test_frozen_support_path_agrees_with_resolve():
    gen = np.random.default_rng(6)
    n, p = 60, 40
    x = gen.standard_normal((n, p))
    beta = np.zeros(p)
    beta[:3] = 1.0
    y = x @ beta + gen.standard_normal(n)
    lam = 0.3
    d = dm.direction_setup(np.eye(p)[0], None, p)
    rep_fast = dm.debias_theta(x, y, lam, d, beta_true=beta)
    # make every certificate reject: the descent fit on the same support
    # stands in for the refit
    report = solvers._kkt_report
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvers, "_kkt_report",
                   lambda *args: report(*args)._replace(strict=False))
        rep_slow = dm.debias_theta(x, y, lam, d, beta_true=beta)
    assert rep_fast.frozen_support and not rep_slow.frozen_support
    assert rep_fast.unconverged == rep_slow.unconverged == 0
    for name in ("theta_hat", "b_hat", "v_star"):
        assert getattr(rep_fast, name) == pytest.approx(
            getattr(rep_slow, name), rel=1e-9), name


def _refit_on_base_support(x, y, lam, gamma, d):
    """z0, (X Q0)_S and the fixed-sign refit (z, y) -> beta_S on the base
    fit's support S and signs, with X reassembled as z a0' + X Q0."""
    fit = solvers.fit_lasso(RegressionProblem(x, y), lam, gamma=gamma)
    support = fit.support
    signs = np.sign(fit.beta[support])
    z0 = x @ d.u0
    a0_s = d.a0[support]
    xq0_s = x[:, support] - np.outer(z0, a0_s)

    def coef(z, yv):
        xs = xq0_s + np.outer(z, a0_s)
        return np.linalg.solve(solvers._support_factor(xs, gamma)[0],
                               xs.T @ yv - xs.shape[0] * lam * signs)
    return z0, xq0_s, coef


def _central_jacobian(f, z0, h=1e-5):
    return np.column_stack([(f(z0 + h * e) - f(z0 - h * e)) / (2 * h)
                            for e in np.eye(z0.size)])


@pytest.mark.parametrize("gamma", [0.0, 3.0])
def test_closed_forms_match_finite_difference_jacobian(gamma):
    gen = np.random.default_rng(14)
    n, p = 60, 40
    x = gen.standard_normal((n, p))
    beta = np.zeros(p)
    beta[:3] = 1.0
    y = x @ beta + gen.standard_normal(n)
    d = dm.direction_setup(gen.standard_normal(p), None, p)
    rep = dm.debias_theta(x, y, 0.2, d, gamma=gamma, beta_true=beta)
    assert rep.frozen_support

    z0, xq0_s, coef = _refit_on_base_support(x, y, 0.2, gamma, d)
    theta = float(d.a0 @ beta)
    # B_hat: y held fixed; v_star: y = X beta + eps moves with z0
    j_fixed = _central_jacobian(lambda z: xq0_s @ coef(z, y), z0)
    j_total = _central_jacobian(
        lambda z: xq0_s @ coef(z, y + (z - z0) * theta), z0)
    bs = coef(z0, y)
    # X beta_hat - y - z0 <a0, beta_hat - beta>, with X_S = xq0_s + z0 a0_S'
    resid_part = xq0_s @ bs - y + z0 * theta
    assert rep.b_hat == pytest.approx(np.trace(j_fixed), rel=1e-6)
    # tr(J^2) is small beside the residual part, so it is checked alone
    assert rep.v_star - resid_part @ resid_part == pytest.approx(
        np.trace(j_total @ j_total), rel=1e-6)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), gamma=st.sampled_from([0.0, 0.3]),
       shape=st.sampled_from([(30, 10), (40, 60), (80, 40)]))
def test_b_hat_matches_monte_carlo_divergence(seed, gamma, shape):
    gen = np.random.default_rng(seed)
    n, p = shape
    x = gen.standard_normal((n, p))
    y = x[:, :3] @ np.ones(3) + gen.standard_normal(n)
    d = dm.direction_setup(gen.standard_normal(p), None, p)
    lam = 0.3 * float(np.max(np.abs(x.T @ y))) / n
    rep = dm.debias_theta(x, y, lam, d, gamma=gamma)
    z0, xq0_s, coef = _refit_on_base_support(x, y, lam, gamma, d)
    est = mc_divergence(lambda z: xq0_s @ coef(z, y), z0, 200,
                        RngStream(seed % 1000), a=1e-6)
    assert abs(est.value - rep.b_hat) <= 4.0 * est.empirical_se + 1e-6


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), gamma=st.sampled_from([0.0, 0.3]),
       shape=st.sampled_from([(30, 10), (40, 60), (80, 40)]),
       step=st.sampled_from([1e-4, 1.0]))
def test_reassembled_product_matches_check_kkt(seed, gamma, shape, step):
    # the KKT report takes any X'r, here one formed from factors of X,
    # xq0'r + a0 (z'r) for X = z a0' + xq0
    gen = np.random.default_rng(seed)
    n, p = shape
    x = gen.standard_normal((n, p))
    y = x[:, :3] @ np.ones(3) + gen.standard_normal(n)
    d = dm.direction_setup(gen.standard_normal(p), None, p)
    xq0 = x - np.outer(x @ d.u0, d.a0)
    z = x @ d.u0 + step * gen.standard_normal(n)
    prob = RegressionProblem(xq0 + np.outer(z, d.a0), y)
    lam = 0.3 * float(np.max(np.abs(prob.x.T @ y))) / n
    beta = solvers.fit_lasso(prob, lam, gamma=gamma).beta
    r = y - prob.x @ beta
    got = solvers._kkt_report(xq0.T @ r + d.a0 * (z @ r), beta, n * lam,
                              gamma, solvers.KKT_MARGIN)
    ref = solvers.check_kkt(prob, lam, beta, gamma=gamma)
    assert got.strict == ref.strict
    assert got.max_inactive == pytest.approx(ref.max_inactive, abs=1e-12)
    assert got.max_active_error == pytest.approx(ref.max_active_error,
                                                 abs=1e-12)


def test_nonpositive_denominator_raises():
    # an all-zero design gives z0 = 0, so the correction denominator is 0
    x = np.zeros((5, 5))
    y = np.random.default_rng(8).standard_normal(5)
    d = dm.direction_setup(np.eye(5)[0], None, 5)
    with pytest.raises(ValueError):
        dm.debias_theta(x, y, 1.0, d)


def test_pivot_variance_check_small_sim():
    pivots, v_stars = [], []
    for r in range(200):
        base = RngStream(100, 7 * r)
        gen = base.generator()
        n, p = 60, 40
        x = gen.standard_normal((n, p))
        beta = np.zeros(p)
        beta[:3] = 1.0
        y = x @ beta + gen.standard_normal(n)
        d = dm.direction_setup(np.eye(p)[0], None, p)
        rep = dm.debias_theta(x, y, 0.35, d, beta_true=beta)
        pivots.append(rep.pivot)
        v_stars.append(rep.v_star)
    out = dm.pivot_variance_check(pivots, v_stars)
    assert out["pivot_mean_z"] <= 4.0
    assert out["variance_z"] <= 4.0


def test_pivot_variance_check_ar1_design():
    # rows N(0, Sigma) with Sigma_ij = 0.5^|i-j|: u0 = Sigma^{-1} a0 != a0
    n, p = 60, 40
    cov = 0.5 ** np.abs(np.subtract.outer(np.arange(p), np.arange(p)))
    d = dm.direction_setup(np.eye(p)[1], cov, p)
    beta = np.zeros(p)
    beta[:3] = 1.0
    pivots, v_stars = [], []
    for r in range(200):
        x = gaussian_design(RngStream(200, 2 * r), n, p, cov)
        y = x @ beta + RngStream(200, 2 * r + 1).generator().standard_normal(n)
        rep = dm.debias_theta(x, y, 0.35, d, beta_true=beta)
        pivots.append(rep.pivot)
        v_stars.append(rep.v_star)
    out = dm.pivot_variance_check(pivots, v_stars)
    assert out["pivot_mean_z"] <= 4.0
    assert out["variance_z"] <= 4.0


def _inlined_refit(monkeypatch):
    """Give debias the frozen refit it used to inline: the Gram matrix plus
    n lam sign(beta_S) and one solve, with no rank check, accepted by the
    one certificate."""
    def refit(x, xs, y, support, signs, lam, _, tol, *, gamma=0.0):
        g = xs.T @ xs
        if gamma != 0.0:
            g = g + gamma * np.eye(xs.shape[1])
        rhs_pen = xs.shape[0] * lam * signs
        beta = np.zeros(x.shape[1])
        beta[support] = np.linalg.solve(g, xs.T @ y - rhs_pen)
        resid = y - xs @ beta[support]
        ok, gap = solvers._certificate(resid @ x, y, beta, resid, lam, gamma,
                                       tol)
        return (beta, xs @ beta[support], float(gap)) if ok else None
    monkeypatch.setattr(solvers, "certified_refit", refit)


@pytest.mark.parametrize("gamma", [0.0, 2.0])
def test_frozen_refit_kernel_is_bit_identical_to_inlined(gamma):
    gen = np.random.default_rng(10)
    n, p = 80, 60
    x = gen.standard_normal((n, p))
    beta = np.zeros(p)
    beta[:4] = 1.0
    y = x @ beta + gen.standard_normal(n)
    d = dm.direction_setup(np.eye(p)[1], None, p)

    def run():
        return dm.debias_theta(x, y, 0.3, d, gamma=gamma, beta_true=beta)
    rep = run()
    with pytest.MonkeyPatch.context() as mp:
        _inlined_refit(mp)
        old = run()
    assert rep.frozen_support
    assert rep == old


def test_collinear_selection_raises_value_error():
    # column 7 is the mean of columns 2 and 3; the l1 fit selects all three
    gen = np.random.default_rng(3)
    x = gen.standard_normal((30, 8))
    x[:, 7] = (x[:, 2] + x[:, 3]) / 2
    y = 2 * x[:, 2] + 2 * x[:, 3] + x[:, 0] + gen.standard_normal(30)
    d = dm.direction_setup(np.eye(8)[0], None, 8)
    with pytest.raises(ValueError, match=r"rank deficient \(rank 6 < 7\)"):
        dm.debias_theta(x, y, 0.1, d)
    # a ridge term makes the same selection well posed
    rep = dm.debias_theta(x, y, 0.1, d, gamma=0.5)
    assert np.isfinite(rep.theta_hat)


def _reference_debias(x, y, lam, direction, gamma, beta_true):
    """debias_theta by the path it took before the base fit kept its refit:
    fit_lasso, then the support's Gram matrix (a rank error at gamma = 0
    when it has none) and certified_refit again on the fit's support and
    signs at fit_lasso's tolerance, with the descent coefficients as the
    fallback."""
    a0, u0 = direction.a0, direction.u0
    z0 = x @ u0
    fit = solvers.fit_lasso(RegressionProblem(x, y), lam, gamma=gamma)
    support = fit.support
    xs = x[:, support]
    gram, w = solvers._support_factor(xs, gamma)
    if gram is None:
        raise solvers._rank_error(np.count_nonzero(w), w.size)
    cert = solvers.certified_refit(
        x, xs, y, support, np.sign(fit.beta[support]), lam, gram,
        solvers.default_tol(y), gamma=gamma)
    frozen = cert is not None
    beta_s = (cert[0] if frozen else fit.beta)[support]
    a0_s = a0[support]
    theta_proj = float(a0_s @ beta_s)
    resid = y - xs @ beta_s
    ag = np.linalg.solve(gram, (xs - np.outer(z0, a0_s)).T).T
    nu_hat = float(np.sum(ag * xs))
    w = resid @ ag
    a_hat = float(w @ a0_s)
    b_hat = a_hat - theta_proj * nu_hat
    z0_norm_sq = float(z0 @ z0)
    denom = z0_norm_sq - nu_hat
    if denom <= 0:
        raise ValueError("correction denominator is nonpositive")
    theta_hat = theta_proj + (float(z0 @ resid) + a_hat) / denom
    theta = float(a0 @ beta_true)
    resid_part = -resid - z0 * (theta_proj - theta)
    k = np.outer(a0_s, w) + (theta - theta_proj) * (xs.T @ ag)
    return dm.DebiasReport(
        theta_hat=theta_hat, theta_proj=theta_proj, nu_hat=nu_hat,
        b_hat=b_hat, a_hat=a_hat, z0_norm_sq=z0_norm_sq,
        frozen_support=frozen, pivot=denom * (theta_hat - theta),
        v_star=float(resid_part @ resid_part) + float(np.sum(k * k.T)),
        theta_true=theta, unconverged=int(not fit.converged))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), gamma=st.sampled_from([0.0, 0.7]),
       shape=st.sampled_from([(25, 8), (40, 15), (30, 60), (80, 40)]),
       frac=st.floats(0.05, 1.2), collinear=st.booleans())
@example(seed=0, gamma=0.0, shape=(30, 60), frac=1.0, collinear=False)
def test_debias_reads_the_base_refit_as_the_reference_solves_it(
        seed, gamma, shape, frac, collinear):
    # lam runs from 0.05 lam_max, where most fits end on a refit after
    # descent has failed a check, past lam_max, where the support is empty
    # and the fit ends on its first check; a collinear design at gamma = 0
    # raises the same error on both paths.  The example sits at lam_max,
    # where the fit's one coefficient is a certified refit of 1e-16 that
    # HARD_ZERO drops, so the fit ends on descent as the reference does
    gen = np.random.default_rng(seed)
    n, p = shape
    x = gen.standard_normal((n, p))
    if collinear:
        x[:, 3] = (x[:, 1] + x[:, 2]) / 2
    beta = np.zeros(p)
    beta[:4] = 1.0
    y = x @ beta + gen.standard_normal(n)
    d = dm.direction_setup(gen.standard_normal(p), None, p)
    lam = frac * float(np.max(np.abs(x.T @ y))) / n
    try:
        ref = _reference_debias(x, y, lam, d, gamma, beta)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            dm.debias_theta(x, y, lam, d, gamma=gamma, beta_true=beta)
        return
    assert dm.debias_theta(x, y, lam, d, gamma=gamma, beta_true=beta) == ref


def _counting(monkeypatch, name):
    """Count the calls of ``np.linalg.<name>``."""
    calls = []
    original = getattr(np.linalg, name)

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return original(*args, **kwargs)
    monkeypatch.setattr(np.linalg, name, counted)
    return calls


@pytest.mark.parametrize("gamma", [0.0, 2.0])
def test_debias_factors_the_base_support_once(monkeypatch, gamma):
    # the base fit ends on its first refit; debias reads that refit and its
    # Gram matrix: one eigvalsh of X_S'X_S (the support factor, which df
    # shares) and two solves (the refit, then A G^-1), where solving the
    # refit again took three of each at gamma = 0
    gen = np.random.default_rng(10)
    n, p = 80, 60
    x = gen.standard_normal((n, p))
    beta = np.zeros(p)
    beta[:4] = 1.0
    y = x @ beta + gen.standard_normal(n)
    d = dm.direction_setup(np.eye(p)[1], None, p)
    refits = []
    refit = solvers.certified_refit

    def recording_refit(*args, **kwargs):
        refits.append((args[3], refit(*args, **kwargs)))
        return refits[-1][1]
    monkeypatch.setattr(solvers, "certified_refit", recording_refit)
    eig = _counting(monkeypatch, "eigvalsh")
    solved = _counting(monkeypatch, "solve")
    rep = dm.debias_theta(x, y, 0.3, d, gamma=gamma, beta_true=beta)
    k = len(refits[0][0])
    assert eig == [(k, k)]
    assert solved == [(k, k), (k, k)]
    assert len(refits) == 1 and refits[0][1] is not None
    assert rep.frozen_support
