import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import chi2

from steinsure.core import (RegressionProblem, RngStream, chi_square_cdf,
                            chi_square_quantile, gaussian_design)


def _draw(stream, n):
    return stream.generator().standard_normal(n)


def test_stream_reproducible():
    a = _draw(RngStream(7, 3), 100)
    b = _draw(RngStream(7, 3), 100)
    assert np.array_equal(a, b)


def test_streams_differ_by_id_and_seed():
    a = _draw(RngStream(7, 0), 50)
    b = _draw(RngStream(7, 1), 50)
    c = _draw(RngStream(8, 0), 50)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_child_offsets():
    s = RngStream(5, 10)
    assert s.child(4) == RngStream(5, 14)


def test_gaussian_design_covariance():
    cov = np.array([[2.0, 0.8], [0.8, 1.0]])
    x = gaussian_design(RngStream(2), 200000, 2, cov)
    emp = x.T @ x / x.shape[0]
    assert np.max(np.abs(emp - cov)) < 0.03


def test_gaussian_design_rejects_indefinite():
    with pytest.raises(ValueError):
        gaussian_design(RngStream(2), 10, 2, np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_regression_problem_shape_check():
    with pytest.raises(ValueError):
        RegressionProblem(np.ones((3, 2)), np.ones(4))
    prob = RegressionProblem(np.ones((3, 2)), np.ones(3))
    assert (prob.n, prob.p) == (3, 2)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_input_rejected(bad):
    y = np.ones(3)
    y[1] = bad
    x = np.ones((3, 2))
    x[2, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        RegressionProblem(np.ones((3, 2)), y)
    with pytest.raises(ValueError, match="finite"):
        RegressionProblem(x, np.ones(3))


# the quantile routine is bespoke bisection; scipy is the independent oracle
@settings(max_examples=100, deadline=None)
@given(df=st.floats(0.5, 5000.0), prob=st.floats(0.001, 0.999))
def test_chi_square_quantile_matches_oracle(df, prob):
    ours = chi_square_quantile(df, prob)
    oracle = chi2.ppf(prob, df)
    assert ours == pytest.approx(oracle, rel=1e-8, abs=1e-8)


def test_chi_square_quantile_inverts_cdf():
    q = chi_square_quantile(10, 0.3)
    assert chi_square_cdf(10, q) == pytest.approx(0.3, abs=1e-9)


def test_chi_square_quantile_validation():
    for bad in ((0, 0.5), (3, 0.0), (3, 1.0), (-1, 0.5)):
        with pytest.raises(ValueError):
            chi_square_quantile(*bad)


def test_chi_square_quantile_extreme_tail():
    # far beyond the default bracket; forces the doubling branch (the CDF
    # itself saturates in double precision out here, hence the loose rel)
    q = chi_square_quantile(2, 1 - 1e-12)
    assert q == pytest.approx(chi2.ppf(1 - 1e-12, 2), rel=1e-4)


def test_chi_square_quantile_small_df_lower_tail():
    # the lower tail of a half degree of freedom sits near 1e-12, far below
    # any absolute tolerance; only the relative error shows a bad inverse
    assert chi_square_quantile(0.5, 0.001) == pytest.approx(
        chi2.ppf(0.001, 0.5), rel=1e-10)
