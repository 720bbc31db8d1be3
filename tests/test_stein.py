import math
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import chi2, norm

from steinsure.core import RegressionProblem, RngStream
from steinsure import solvers, stein
from steinsure.stein import (ConstantField, IdentityField, LinearField,
                             SoftThresholdField, data_driven_confidence,
                             data_driven_slack, divergence_variance_bound,
                             loss_confidence_region, lower_deviation_quantile,
                             model_size_ci, model_size_variance_bound,
                             sure, sure_diff, sure_for_sure,
                             symmetric_deviation_quantile,
                             verify_sos_identity)


# ---------------------------------------------------------------- estimates

def test_worked_example_exact():
    # n = 2, sigma = 1, residual sum of squares 2.25, one selected component
    y = np.array([1.5, 0.0])
    mu_hat = np.array([0.0, 0.0])
    rep = sure_for_sure(y, mu_hat, 1.0, 1.0, 1.0)
    assert rep.sure == pytest.approx(2.25, abs=1e-10)
    assert rep.r_hat == pytest.approx(9.0, abs=1e-10)
    assert rep.r_prime == pytest.approx(9.0, abs=1e-10)


def test_interpolation_estimator():
    # mu_hat = y has df = n: sure = sigma^2 n, r_hat = 2 sigma^4 n
    y = np.arange(6.0)
    sigma = 1.3
    rep = sure_for_sure(y, y, 6.0, 6.0, sigma)
    assert rep.sure == pytest.approx(sigma**2 * 6, rel=1e-12)
    assert rep.r_hat == pytest.approx(2 * sigma**4 * 6, rel=1e-12)


def test_prime_minus_hat_identity():
    gen = np.random.default_rng(0)
    for _ in range(20):
        y = gen.standard_normal(9)
        mu = gen.standard_normal(9)
        df = gen.uniform(0, 9)
        tr2 = gen.uniform(0, df)
        sigma = gen.uniform(0.5, 2.0)
        rep = sure_for_sure(y, mu, df, tr2, sigma)
        assert rep.r_prime - rep.r_hat == pytest.approx(
            4 * sigma**4 * (df - tr2), rel=1e-9, abs=1e-9)


def test_sure_plus_truncates():
    y = np.zeros(4)
    rep = sure_for_sure(y, y, 0.0, 0.0, 1.0)
    assert rep.sure == -4.0 and rep.sure_plus == 0.0


def _mini_fit(seed, lam=0.3):
    gen = np.random.default_rng(seed)
    x = gen.standard_normal((25, 10))
    y = x[:, 0] + gen.standard_normal(25)
    return x, y, solvers.fit_lasso(RegressionProblem(x, y), lam)


def test_sure_diff_requires_cross_information():
    x, y, fit = _mini_fit(1)
    with pytest.raises(ValueError):
        sure_diff(fit, fit, y, 1.0)


def test_sure_diff_identical_fits_vanish():
    x, y, fit = _mini_fit(2)
    rep = sure_diff(fit, fit, y, 1.0, x=x)
    assert rep.sure_diff == 0.0
    assert rep.norm_sq == 0.0
    assert rep.r_hat_diff == pytest.approx(0.0, abs=1e-8)


def test_sure_diff_lasso_pair_projection_form():
    x, y, fit1 = _mini_fit(3, lam=0.2)
    fit2 = solvers.fit_lasso(RegressionProblem(x, y), 0.6)
    rep = sure_diff(fit1, fit2, y, 1.0, x=x)
    p1 = _explicit_jacobian(x, fit1.support, 0.0)
    p2 = _explicit_jacobian(x, fit2.support, 0.0)
    t = np.trace((p1 - p2) @ (p1 - p2))
    d = fit1.mu_hat - fit2.mu_hat
    assert rep.r_hat_diff == pytest.approx(4 * d @ d + 4 * t, rel=1e-9)


@settings(max_examples=40, deadline=None)
@given(reps=st.integers(1, 6), n=st.integers(1, 12),
       seed=st.integers(0, 2**32 - 1), sigma=st.floats(0.1, 3.0))
def test_sure_for_sure_stacked_equals_rows(reps, n, seed, sigma):
    gen = np.random.default_rng(seed)
    ys = gen.standard_normal((reps, n))
    mus = gen.standard_normal((reps, n))
    dfs = gen.uniform(0, n, reps)
    tr2s = gen.uniform(0, 1, reps) * dfs
    stacked = sure_for_sure(ys, mus, dfs, tr2s, sigma)
    assert stacked.n == n
    for r in range(reps):
        row = sure_for_sure(ys[r], mus[r], dfs[r], tr2s[r], sigma)
        for name in ("sure", "sure_plus", "r_hat", "r_prime",
                     "r_double_prime", "df_hat", "trace_grad_sq"):
            assert getattr(stacked, name)[r] == pytest.approx(
                getattr(row, name), rel=1e-12, abs=1e-12)
        assert sure(ys[r], mus[r], dfs[r], sigma) == row.sure
    np.testing.assert_array_equal(sure(ys, mus, dfs, sigma), stacked.sure)


def test_projection_cross_traces_match_projections():
    gen = np.random.default_rng(8)
    x = gen.standard_normal((15, 9))
    sups = [np.array([0, 3, 4]), np.array([3, 5]), np.array([], dtype=int),
            np.array([1, 2, 6, 7, 8])]
    pairs = [(a, b) for a in sups for b in sups]
    got = stein.projection_cross_traces(x, [a for a, _ in pairs],
                                        [b for _, b in pairs])
    for (a, b), value in zip(pairs, got):
        p1 = _explicit_jacobian(x, a, 0.0)
        p2 = _explicit_jacobian(x, b, 0.0)
        assert value == pytest.approx(np.trace(p1 @ p2), abs=1e-12)


def _explicit_jacobian(x, support, gamma):
    """X_S (X_S'X_S + gamma I)^+ X_S' built with pinv; 0 on an empty S."""
    xs = x[:, support]
    if gamma == 0.0:
        return xs @ np.linalg.pinv(xs)
    return xs @ np.linalg.pinv(xs.T @ xs + gamma * np.eye(xs.shape[1])) @ xs.T


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), p=st.integers(1, 7),
       extra=st.integers(2, 6), duplicate=st.booleans(),
       gammas=st.tuples(st.sampled_from([0.0, 0.3, 4.0]),
                        st.sampled_from([0.0, 0.3, 4.0])))
def test_jacobian_traces_match_pinv(seed, p, extra, duplicate, gammas):
    gen = np.random.default_rng(seed)
    n = p + extra
    x = gen.standard_normal((n, p)) * gen.uniform(0.5, 2.0, p)
    if duplicate and p >= 2:
        x[:, -1] = -1.5 * x[:, 0]
    sups = [np.flatnonzero(gen.random(p) < 0.6) for _ in range(2)]
    jacs = [_explicit_jacobian(x, s, g) for s, g in zip(sups, gammas)]
    for sup, gamma, jac in zip(sups, gammas, jacs):
        df, tr2 = solvers._df_pair(x, sup, gamma)
        assert df == pytest.approx(np.trace(jac), abs=1e-9)
        assert tr2 == pytest.approx(np.sum(jac * jac.T), abs=1e-9)
        basis, weights = solvers.support_spectrum(x, sup, gamma)
        np.testing.assert_allclose((basis * weights) @ basis.T, jac,
                                   atol=1e-9)
    cross = np.trace(jacs[0] @ jacs[1])
    fits = [types.SimpleNamespace(support=s, gamma=g, mu_hat=np.zeros(n),
                                  df_hat=0.0, trace_grad_sq=0.0)
            for s, g in zip(sups, gammas)]
    rep = sure_diff(fits[0], fits[1], np.zeros(n), 1.0, x=x)
    assert rep.cross_trace == pytest.approx(cross, abs=1e-9)
    if gammas == (0.0, 0.0):
        got = stein.projection_cross_traces(x, sups[:1], sups[1:])
        assert got[0] == pytest.approx(cross, abs=1e-9)


def test_sure_diff_enet_against_lasso_explicit_jacobian():
    x, y, lasso = _mini_fit(4, lam=0.2)
    gamma = 3.0
    enet = solvers.fit_lasso(RegressionProblem(x, y), 0.1, gamma=gamma)
    assert enet.support.size > lasso.support.size > 0
    j1 = _explicit_jacobian(x, enet.support, gamma)
    j2 = _explicit_jacobian(x, lasso.support, 0.0)
    rep = sure_diff(enet, lasso, y, 1.3, x=x)
    d = enet.mu_hat - lasso.mu_hat
    t = np.trace((j1 - j2) @ (j1 - j2))
    assert rep.cross_trace == pytest.approx(np.trace(j1 @ j2), rel=1e-10)
    assert rep.r_hat_diff == pytest.approx(
        4 * 1.3**2 * d @ d + 4 * 1.3**4 * t, rel=1e-10)


# ---------------------------------------------------------------- identity

def test_identity_field_exact_mean():
    # for f = id the two sides are E[(||z||^2 - n)^2] = 2n and n + n
    rep = verify_sos_identity(IdentityField(), 8, 1.0, 50000, RngStream(3))
    assert rep.z_score <= 4.0
    assert rep.rhs_mean == pytest.approx(16.0, rel=0.02)


def test_linear_field_sigma_version():
    gen = np.random.default_rng(4)
    a = gen.standard_normal((6, 6)) / 3
    rep = verify_sos_identity(LinearField(a), 6, 1.7, 60000, RngStream(5))
    assert rep.z_score <= 4.0


def test_constant_field_batch_vs_loop():
    c = np.arange(5.0)
    fld = ConstantField(c)
    zs = np.random.default_rng(6).standard_normal((10, 5))
    batch = fld.batch_stats(zs)
    loop = stein.VectorField.batch_stats(fld, zs)
    for b, l in zip(batch, loop):
        np.testing.assert_allclose(b, l, atol=1e-6)


def test_soft_threshold_field_batch_vs_finite_difference():
    fld = SoftThresholdField(0.8)
    zs = np.random.default_rng(7).standard_normal((20, 6))
    batch = fld.batch_stats(zs)
    loop = stein.VectorField.batch_stats(fld, zs)
    np.testing.assert_allclose(batch[1], loop[1], atol=1e-3)
    np.testing.assert_allclose(batch[2], loop[2], atol=1e-3)


def test_general_variance_mode_linear_g():
    # g(eps) = c'eps has Var(g) = sigma^2 ||c||^2 exactly cancelling the
    # gradient term, a sharp check of the bookkeeping
    class LinearG:
        def __init__(self, c):
            self.c = c

        def value(self, eps):
            return eps @ self.c

        def grad(self, eps):
            return np.broadcast_to(self.c, eps.shape)

    c = np.array([0.5, -0.25, 0.1, 0.7])
    rep = verify_sos_identity(SoftThresholdField(0.5), 4, 1.0, 4000,
                              RngStream(8), scalar_fn=LinearG(c))
    assert rep.mode == "general_variance"
    assert rep.z_score <= 4.0


@pytest.mark.parametrize("gamma", [0.0, 0.6])
def test_residual_field_scores_each_row_by_its_support(gamma):
    gen = np.random.default_rng(12)
    x = gen.standard_normal((8, 5))
    fld = stein.ElasticNetResidualField(x, 0.3, gamma)
    zs = gen.standard_normal((60, 8))
    zs[30:] = zs[:30]           # every support recurs at least twice
    f, div, tr2 = fld.batch_stats(zs)
    betas = solvers.fit_lasso_batch(x, zs, 0.3, gamma=gamma)
    assert 1 < len(np.unique(betas != 0.0, axis=0)) < 30
    # bitwise equal to a per-row factorization, so rows that share a
    # support share their values bit for bit
    for i, b in enumerate(betas):
        df, t2 = solvers._df_pair(x, np.flatnonzero(b), gamma)
        assert div[i] == 8 - df and tr2[i] == 8 - 2.0 * df + t2
    np.testing.assert_array_equal(f, zs - betas @ x.T)


def test_general_variance_mode_residual_field_stacked_g():
    gen = np.random.default_rng(13)
    x = gen.standard_normal((6, 3))
    c = gen.standard_normal(6)
    g = types.SimpleNamespace(value=lambda eps: eps @ c,
                              grad=lambda eps: np.broadcast_to(c, eps.shape))
    rep = verify_sos_identity(stein.ElasticNetResidualField(x, 0.2, 0.0), 6,
                              1.0, 2000, RngStream(14), scalar_fn=g)
    assert rep.mode == "general_variance"
    assert rep.z_score <= 4.0


def test_corpus_all_fields_small():
    corpus = stein.default_field_corpus(5, RngStream(9))
    assert set(corpus) == {"identity", "constant", "linear", "soft_threshold",
                           "lasso_residual", "enet_residual"}
    for name, fld in corpus.items():
        rep = verify_sos_identity(fld, 5, 1.0, 4000, RngStream(hash(name) % 1000))
        assert rep.z_score <= 4.5, name


def test_divergence_variance_bound_cap():
    assert divergence_variance_bound(100.0, 100.0, 1.0, 20) == 40.0
    assert divergence_variance_bound(3.0, 1.0, 1.0, 20) == 4.0
    with pytest.raises(ValueError):
        divergence_variance_bound(1.0, 1.0, 0.0, 5)


# ---------------------------------------------------------------- intervals

def test_symmetric_quantile_asymptotics():
    # central limit: the two-sided deviation quantile tends to 1.96
    assert symmetric_deviation_quantile(10**6, 0.05) == pytest.approx(
        norm.ppf(0.975), abs=5e-3)
    assert lower_deviation_quantile(10**6, 0.05) == pytest.approx(
        norm.ppf(0.95), abs=5e-3)


def test_symmetric_quantile_chi2_two_oracle():
    # closed-form chi-square(2) CDF: P(X <= q) = 1 - exp(-q/2)
    v = symmetric_deviation_quantile(2, 0.5)
    s = math.sqrt(4.0)
    tail = (1 - chi2.cdf(2 + v * s, 2)) + chi2.cdf(max(2 - v * s, 0), 2)
    assert tail == pytest.approx(0.5, abs=1e-9)


def test_lower_quantile_inverts():
    v = lower_deviation_quantile(50, 0.1)
    assert chi2.cdf(50 - v * math.sqrt(100), 50) == pytest.approx(0.1,
                                                                 abs=1e-8)


def test_loss_region_shapes():
    ci = loss_confidence_region(10.0, 1.0, 100, 0.05)
    assert ci.kind == "two_sided" and ci.lower >= 0.0
    up = loss_confidence_region(10.0, 1.0, 100, 0.05, kind="upper")
    assert up.lower == 0.0 and up.upper > 10.0
    with pytest.raises(ValueError):
        loss_confidence_region(1.0, 1.0, 10, 0.05, kind="sideways")
    with pytest.raises(ValueError):
        loss_confidence_region(1.0, 1.0, 10, 0.05, eps_n=-1.0)


def test_loss_region_slack_widens():
    tight = loss_confidence_region(10.0, 1.0, 100, 0.05)
    slack = loss_confidence_region(10.0, 1.0, 100, 0.05, eps_n=0.01)
    assert slack.upper > tight.upper
    v0 = 0.01 ** 0.25
    assert slack.upper - tight.upper == pytest.approx(
        v0 * math.sqrt(200), rel=1e-9)


def test_data_driven_slack_reference_value():
    assert data_driven_slack(0.02, 600) == pytest.approx(2.836493, abs=1e-6)


def test_data_driven_interval():
    ci = data_driven_confidence(50.0, 10.0, 1.0, 600, 0.05, 0.02, 0.02)
    assert ci.level == pytest.approx(0.91)
    assert ci.lower >= 0.0 and ci.upper > 50.0
    wider = data_driven_confidence(50.0, 10.0, 1.0, 600, 0.05, 0.01, 0.02)
    assert wider.upper > ci.upper   # smaller beta1 costs width


# ---------------------------------------------------------------- model size

def test_model_size_bound_endpoints():
    assert model_size_variance_bound(0.0, 100) == 0.0
    p = 37
    assert model_size_variance_bound(float(p), p) == pytest.approx(7.0 * p)
    with pytest.raises(ValueError):
        model_size_variance_bound(-1.0, 10)


def test_model_size_ci_zero_observed():
    ci = model_size_ci(0, 1000, 0.05)
    assert ci.lower == 0.0
    assert 0.0 < ci.upper < 1000.0


@settings(max_examples=60, deadline=None)
@given(s=st.integers(1, 400), p=st.integers(401, 5000),
       alpha=st.floats(0.01, 0.3))
def test_model_size_ci_quadratic_oracle(s, p, alpha):
    # the deviance inequality is a quadratic in E; its roots are the
    # endpoints before clipping
    ci = model_size_ci(s, p, alpha)
    s1 = max(s, 1.0)
    t = (3.0 + 4.0 * math.log(math.e * p)) / (alpha * s1)
    roots = np.roots([1.0 / s1, -(2.0 + t), float(s)])
    lo, hi = sorted(roots.real)
    assert ci.lower == pytest.approx(max(lo, 0.0), rel=1e-6, abs=1e-6)
    assert ci.upper == pytest.approx(min(hi, p), rel=1e-6)


def test_model_size_ci_contains_observed():
    ci = model_size_ci(7, 300, 0.1)
    assert ci.contains(7.0)
    with pytest.raises(ValueError):
        model_size_ci(301, 300, 0.1)
    # log(e p) has no value at p <= 0
    for p in (0, -1):
        with pytest.raises(ValueError, match="p must be at least 1, not %d"
                           % p):
            model_size_ci(0, p, 0.1)
