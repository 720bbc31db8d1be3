import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from steinsure.core import RegressionProblem, RngStream
from steinsure import core, divergence_mc, harness, solvers
from steinsure.divergence_mc import (default_step, divergence_table,
                                     lasso_fitted_map, mc_divergence, svt_map)


def test_linear_map_recovers_trace():
    gen = np.random.default_rng(0)
    a = gen.standard_normal((12, 12)) / 4
    est = mc_divergence(lambda v: a @ v, np.zeros(12), 400, RngStream(1))
    assert abs(est.value - np.trace(a)) <= 4 * est.empirical_se


def test_identity_map_is_exact_per_probe():
    est = mc_divergence(lambda v: v, np.ones(7), 5, RngStream(2))
    # each probe term is z'z whose mean is exactly n; spread is chi-square
    assert est.value == pytest.approx(7.0, abs=4 * est.empirical_se)
    assert est.se_bound == pytest.approx(2 * math.sqrt(7 / 5))


def test_two_sided_variant():
    gen = np.random.default_rng(3)
    a = gen.standard_normal((10, 10)) / 3
    est = mc_divergence(lambda v: a @ v, np.zeros(10), 200, RngStream(4),
                        two_sided=True)
    assert est.two_sided
    assert est.se_bound == pytest.approx(math.sqrt(2 * 10 / 200))
    assert abs(est.value - np.trace(a)) <= 4 * max(est.empirical_se, 1e-12)


def test_soft_threshold_map():
    y = np.array([2.0, -0.1, 0.4, -3.0, 0.05])
    f = lambda v: solvers.soft_threshold(v, 0.5)
    est = mc_divergence(f, y, 300, RngStream(5), a=1e-5)
    exact = float(np.sum(np.abs(y) > 0.5))   # 2 components clear the gate
    assert est.value == pytest.approx(exact, abs=4 * est.empirical_se + 0.05)


def test_lasso_map_matches_support_size():
    gen = np.random.default_rng(6)
    x = gen.standard_normal((40, 30))
    y = x[:, :3] @ np.ones(3) + gen.standard_normal(40)
    lam = 0.4
    fit = solvers.fit_lasso(RegressionProblem(x, y), lam)
    f = lasso_fitted_map(x, lam)
    est = mc_divergence(f, y, 200, RngStream(7), a=1e-5)
    assert est.value == pytest.approx(fit.df_hat,
                                      abs=4 * est.empirical_se + 0.1)


def test_svt_map_matrix_shaped():
    gen = np.random.default_rng(8)
    y = gen.standard_normal((6, 9))
    res = solvers.svt(y, 1.0)
    est = mc_divergence(svt_map(1.0), y, 300, RngStream(9), a=1e-5)
    assert est.value == pytest.approx(res.df_exact,
                                      abs=4 * est.empirical_se + 0.2)
    assert est.se_bound == pytest.approx(2 * math.sqrt(54 / 300))


def _orthonormal(gen, rows, k):
    return np.linalg.qr(gen.standard_normal((rows, k)))[0]


@st.composite
def _svt_gram_case(draw):
    """(matrix, lam, edge): q and n in 1..9, lam from 1e-150 to 1e150 and
    singular values s_i = lam t_i with t_i in [0, 4], edited by ``edge``:
    an exact or 1e-9 tie, values at lam (1 +- 1e-9), the lower half zero,
    the zero matrix, or s_max = 1e4 lam, beyond the certificate."""
    q, n = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    k = min(q, n)
    lam = draw(st.sampled_from([1e-150, 1e-3, 0.7, 1.0, 1e3, 1e150]))
    t = np.array(draw(st.lists(st.floats(0.0, 4.0), min_size=k, max_size=k)))
    edge = draw(st.sampled_from(["none", "tie", "near_tie", "at_lam",
                                 "rank_deficient", "zero", "beyond"]))
    if edge in ("tie", "near_tie") and k >= 2:
        t[1] = t[0] + (1e-9 if edge == "near_tie" else 0.0)
    elif edge == "at_lam":
        t[0], t[-1] = 1.0 + 1e-9, 1.0 - 1e-9
    elif edge == "rank_deficient":
        t[k // 2:] = 0.0
    elif edge == "zero":
        t[:] = 0.0
    elif edge == "beyond":
        t[0] = 1e4
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    y = (_orthonormal(gen, q, k) * (lam * t)) @ _orthonormal(gen, n, k).T
    return y, lam, edge


@settings(max_examples=150, deadline=None)
@given(case=_svt_gram_case())
def test_svt_map_gram_path_equals_svd(case):
    # the certificate bounds the error against s_max, as the SVD's own
    # backward error is against ||Y||: so is the gap
    y, lam, edge = case
    f = svt_map(lam)
    out = f(y)
    ref = solvers._svt_shrink(y, lam)[0]
    assert f.fallbacks == (edge == "beyond")
    if f.fallbacks:
        np.testing.assert_array_equal(out, ref)
    else:
        assert np.linalg.norm(out - ref) <= 1e-12 * np.linalg.norm(y)


def _diagonal(values):
    y = np.zeros((10, 10))
    y[np.diag_indices(len(values))] = values
    return y


# bound = k eps (s_max / lam)^2 / 2 with k = 10: s_max / lam = sqrt(2 bound /
# (10 eps)) is 284.7 at 0.9e-10 and 314.7 at 1.1e-10
@pytest.mark.parametrize("y, lam, error, fallbacks", [
    (_diagonal([284.7, 3.0]), 1.0, None, 0),
    (_diagonal([314.7, 3.0]), 1.0, None, 1),
    (_diagonal([5.0, 0.5]), 0.0, None, 1),
    (np.zeros((0, 3)), 1.0, None, 1),
    (_diagonal([1e200, 1.0]), 1e-200, None, 1),   # Y / lam overflows
    (_diagonal([np.nan, 1.0]), 1.0, ValueError, 1),
    (np.ones(4), 1.0, ValueError, 1),
    (np.ones((2, 2, 2)), 1.0, ValueError, 1),
    (np.ones((3, 2)), -1.0, ValueError, 1),
    (_diagonal([np.inf, 1.0]), 1.0, ValueError, 1),   # its SVD never returns
    (np.ones((3, 2)), np.nan, ValueError, 1),
])
def test_svt_map_fallbacks_are_the_svd(y, lam, error, fallbacks):
    f = svt_map(lam)
    if error is None:
        out, ref = f(y), solvers._svt_shrink(y, lam)[0]
        if fallbacks:
            np.testing.assert_array_equal(out, ref)
        else:
            assert np.linalg.norm(out - ref) <= 1e-12 * np.linalg.norm(y)
    else:
        with pytest.raises(error) as slow:
            solvers._svt_shrink(y, lam)
        with pytest.raises(error) as fast:
            f(y)
        assert str(fast.value) == str(slow.value)
    assert f.fallbacks == fallbacks


def test_svt_table_equals_svd_table(monkeypatch):
    """The acceptance_08 svt table (seed 64) through the Gram path and
    through the SVD alone: same means, and no probe falls back."""
    maps = []

    def recording_map(lam):
        maps.append(svt_map(lam))
        return maps[-1]
    monkeypatch.setattr(divergence_mc, "svt_map", recording_map)
    kwargs = dict(seed=64, m_grid=[10, 40], n_real=3)
    fast = harness.experiment_mc_divergence("svt", **kwargs)
    monkeypatch.setattr(solvers, "_svt_gram", lambda y, lam: None)
    slow = harness.experiment_mc_divergence("svt", **kwargs)
    evals = 3 * (11 + 41)
    assert [f.fallbacks for f in maps] == [0, evals]
    assert fast["df_exact"] == slow["df_exact"]
    for a, b in zip(fast["rows"], slow["rows"]):
        assert a["mean"] == pytest.approx(b["mean"], rel=1e-10, abs=0)


def test_default_step_scale():
    assert default_step(np.zeros(4)) == pytest.approx(1e-4)
    big = default_step(1000 * np.ones(4))
    assert big == pytest.approx(1e-4 * 1001)


def test_validation():
    with pytest.raises(ValueError):
        mc_divergence(lambda v: v, np.ones(3), 0, RngStream(1))
    with pytest.raises(ValueError):
        mc_divergence(lambda v: v, np.ones(3), 5, RngStream(1), a=0.0)
    # a probe that overflows the response is an error, not a NaN estimate
    y = np.linspace(-1.0, 1.0, 20)
    for two_sided in (False, True):
        with pytest.raises(ValueError, match="overflows the probe response"):
            mc_divergence(lambda v: solvers.soft_threshold(v, 0.5), y, 5,
                          RngStream(1), a=1e308, two_sided=two_sided)
        est = mc_divergence(lambda v: solvers.soft_threshold(v, 0.5), y, 5,
                            RngStream(1), a=1e300, two_sided=two_sided)
        assert np.isfinite(est.value)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_step_below_the_resolution_of_y_is_an_error():
    # every entry is above the threshold, so each probe term is z'z and the
    # divergence is 20; a step that rounding swallows read 0 or overflowed
    y = 3.0 + np.linspace(0.5, 2.0, 20)
    soft = lambda v: solvers.soft_threshold(v, 0.5)
    bound = 1e6 * np.finfo(float).eps * (1.0 + y.max())
    for a in (0.0, 1e-320, 1e-300, 1e-17, bound):
        with pytest.raises(ValueError, match="not above the resolution of y"):
            mc_divergence(soft, y, 5, RngStream(1), a=a)
    # at X = I the lasso is soft thresholding at n lam = 0.5
    lasso = lasso_fitted_map(np.eye(20), 0.025)
    with pytest.raises(ValueError, match="not above the resolution of y"):
        mc_divergence(lasso, y, 5, RngStream(1), a=1e-320)
    # just above it, each probe term is z'z to about 1e-6 per unit slope
    gen = RngStream(1).generator()
    exact = np.mean([z @ z for z in gen.standard_normal((50, 20))])
    for f in (soft, lasso):
        est = mc_divergence(f, y, 50, RngStream(1), a=2.0 * bound)
        assert est.value == pytest.approx(exact, rel=1e-5)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_non_finite_y_is_an_error(bad):
    # named before the default step, which a non-finite y makes non-finite
    calls = []
    with pytest.raises(ValueError, match="^y must be finite$"):
        mc_divergence(lambda v: calls.append(1) or v, np.array([bad, 1.0]), 5,
                      RngStream(1))
    assert not calls


def test_divergence_table_deterministic():
    gen = np.random.default_rng(10)
    a = gen.standard_normal((8, 8)) / 3
    f = lambda v: a @ v
    t1 = divergence_table(f, np.zeros(8), np.trace(a), (5, 20), 6,
                          RngStream(11))
    t2 = divergence_table(f, np.zeros(8), np.trace(a), (5, 20), 6,
                          RngStream(11))
    assert t1 == t2
    assert [r["m"] for r in t1] == [5, 20]
    assert all(r["std"] > 0 for r in t1)


class _CountingMap:
    """A linear map that counts its calls in ``fallbacks``."""

    def __init__(self, a):
        self.a, self.fallbacks = a, 0

    def __call__(self, v):
        self.fallbacks += 1
        return self.a @ v


@pytest.mark.parametrize("threads", [1, 2])
def test_divergence_table_sums_the_units_counters(threads):
    gen = np.random.default_rng(10)
    a = gen.standard_normal((8, 8)) / 3
    f = _CountingMap(a)
    f.fallbacks = 5
    with core.workers(threads):
        table = divergence_table(f, np.zeros(8), np.trace(a), (5, 20), 6,
                                 RngStream(11))
    assert table == divergence_table(lambda v: a @ v, np.zeros(8),
                                     np.trace(a), (5, 20), 6, RngStream(11))
    assert f.fallbacks == 5 + 6 * (6 + 21)


def _recording(monkeypatch, name):
    """Replace ``solvers.<name>`` by a wrapper that records each call as
    (positional args, output)."""
    original = getattr(solvers, name)
    calls = []

    def wrapper(*args, **kwargs):
        calls.append((args, original(*args, **kwargs)))
        return calls[-1][1]
    monkeypatch.setattr(solvers, name, wrapper)
    return calls


def test_enet_table_fits_y_once(monkeypatch):
    """The map starts every realization from the base fit: f(y) is its
    certified refit, not a second descent fit per realization."""
    fits = _recording(monkeypatch, "fit_lasso")
    res = harness.experiment_mc_divergence("enet", seed=65, m_grid=[4],
                                           n_real=3)
    assert len(fits) == 1 and res["unconverged"] == 0


def _map_problem(seed, n, p):
    gen = np.random.default_rng(seed)
    x = gen.standard_normal((n, p))
    y = x[:, :3] @ gen.standard_normal(3) + gen.standard_normal(n)
    lam = 0.3 * float(np.max(np.abs(x.T @ y))) / n
    return gen, x, y, lam


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), gamma=st.sampled_from([0.0, 0.3, 5.0]),
       shape=st.sampled_from([(40, 15), (30, 60), (80, 40)]),
       step=st.sampled_from([1e-6, 1e-4]))
def test_lasso_map_refit_equals_cold_fit(seed, gamma, shape, step):
    gen, x, y, lam = _map_problem(seed, *shape)
    fit_lasso, check_kkt = solvers.fit_lasso, solvers.check_kkt
    f = lasso_fitted_map(x, lam, gamma)
    with pytest.MonkeyPatch.context() as mp:
        fits = _recording(mp, "fit_lasso")
        refits = _recording(mp, "certified_refit")
        for yv in [y] + [y + step * gen.standard_normal(shape[0])
                         for _ in range(4)]:
            before = len(fits)
            mu = f(yv)
            prob = RegressionProblem(x, yv)
            cold = fit_lasso(prob, lam, gamma=gamma)
            assert np.linalg.norm(mu - cold.mu_hat) <= 1e-8 * np.linalg.norm(
                cold.mu_hat)
            if len(fits) == before:
                # refit accepted: it carries a strict certificate at the
                # default margin, its gap is within fit_lasso's tolerance,
                # and it has the cold fit's support and signs
                (_, _, _, support, *_), cert = refits[-1]
                assert cert is not None and solvers.KKT_MARGIN == 1e-6
                beta, fitted, gap = cert
                np.testing.assert_array_equal(mu, fitted)
                assert not beta[np.setdiff1d(np.arange(shape[1]),
                                             support)].any()
                assert gap <= solvers.default_tol(yv)
                assert check_kkt(prob, lam, beta, gamma=gamma).strict
                np.testing.assert_array_equal(np.sign(beta),
                                              np.sign(cold.beta))
    assert f.unconverged == 0


@pytest.mark.parametrize("gamma", [0.0, 0.3])
def test_lasso_map_keeps_the_base_fit_gram(monkeypatch, gamma):
    # start=fit takes the fit's own Gram matrix: no Gram matrix, eigvalsh or
    # refit for the base fit, and the first probe refits on that matrix
    gen, x, y, lam = _map_problem(21, 60, 40)
    fit = solvers.fit_lasso(RegressionProblem(x, y), lam, gamma=gamma)
    grams = _recording(monkeypatch, "_support_factor")
    refits = _recording(monkeypatch, "certified_refit")
    eig = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda a: eig.append(a.shape) or eigvalsh(a))
    f = lasso_fitted_map(x, lam, gamma, start=fit)
    assert f.refit[3] is fit.gram and not (grams or refits or eig)
    f(y + 1e-6 * gen.standard_normal(60))
    assert len(refits) == 1 and refits[0][1] is not None
    assert refits[0][0][6] is fit.gram and not (grams or eig)


@pytest.mark.parametrize("gamma", [0.0, 0.3])
def test_lasso_map_refit_needs_its_gap(monkeypatch, gamma):
    # a refit that passes the strict KKT test but not the duality gap, here
    # at tolerance -1, is refused, and the map falls back to descent
    gen, x, y, lam = _map_problem(21, 60, 40)
    fit = solvers.fit_lasso(RegressionProblem(x, y), lam, gamma=gamma)
    yv = y + 1e-6 * gen.standard_normal(60)
    s = fit.support
    args = (x, x[:, s], yv, s, np.sign(fit.beta[s]), lam, fit.gram)
    beta = solvers.certified_refit(*args, solvers.default_tol(yv),
                                   gamma=gamma)[0]
    assert solvers.check_kkt(RegressionProblem(x, yv), lam, beta,
                             gamma=gamma).strict
    assert solvers.certified_refit(*args, -1.0, gamma=gamma) is None
    refit = solvers.certified_refit
    monkeypatch.setattr(solvers, "certified_refit",
                        lambda *a, **kw: refit(*a[:7], -1.0, **kw))
    fits = _recording(monkeypatch, "fit_lasso")
    refits = _recording(monkeypatch, "certified_refit")
    f = lasso_fitted_map(x, lam, gamma, start=fit)
    mu = f(yv)
    # the map's own refit comes first, at the tolerance of a fit_lasso call
    # at yv, and is refused; so is every refit of the descent fit, which
    # ends on its gap
    assert refits[0][0][7] == solvers.default_tol(yv)
    assert all(out is None for _, out in refits)
    assert len(fits) == 1 and f.unconverged == 0
    warm = fits[0][1]
    assert warm.converged and not warm.refit
    np.testing.assert_array_equal(mu, warm.mu_hat)
    np.testing.assert_allclose(mu, x @ beta, rtol=1e-8, atol=1e-10)


def test_lasso_map_support_change_falls_back_to_descent(monkeypatch):
    gen, x, y, lam = _map_problem(21, 60, 40)
    f = lasso_fitted_map(x, lam, 0.3)
    fits = _recording(monkeypatch, "fit_lasso")
    refits = _recording(monkeypatch, "certified_refit")
    f(y)
    f(y + 1e-6 * gen.standard_normal(60))
    assert len(fits) == 1 and refits[-1][1] is not None   # refit taken
    y_far = x[:, 20:26] @ np.full(6, 3.0) + gen.standard_normal(60)
    before = len(refits)
    mu = f(y_far)
    # the map's own refit comes first; the descent fit may then refit too
    assert refits[before][1] is None and len(fits) == 2
    warm = fits[-1][1]
    assert warm.converged
    np.testing.assert_array_equal(mu, warm.mu_hat)
    cold = solvers.fit_lasso(RegressionProblem(x, y_far), lam, gamma=0.3)
    assert not np.array_equal(cold.support, fits[0][1].support)
    np.testing.assert_allclose(mu, cold.mu_hat, rtol=1e-8, atol=1e-10)


def test_lasso_map_collinear_support_never_refits(monkeypatch):
    # column 7 is the mean of columns 2 and 3; the l1 fit selects all three
    gen = np.random.default_rng(3)
    x = gen.standard_normal((30, 8))
    x[:, 7] = (x[:, 2] + x[:, 3]) / 2
    y = 2 * x[:, 2] + 2 * x[:, 3] + x[:, 0] + gen.standard_normal(30)
    fits = _recording(monkeypatch, "fit_lasso")
    refits = _recording(monkeypatch, "certified_refit")
    f = lasso_fitted_map(x, 0.1)
    est = mc_divergence(f, y, 20, RngStream(4))
    assert np.isfinite(est.value)
    assert len(fits) == 21 and not refits
    np.testing.assert_array_equal(fits[0][1].support, [0, 1, 2, 3, 5, 6, 7])
