import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from steinsure.core import RngStream
from steinsure.selection import (TriangleWaveEstimator,
                                 ZeroEstimator, adversarial_gap_experiment,
                                 adversarial_pair, max_gap_bound,
                                 selection_gap_bound, squared_risk_gap_bound,
                                 sure_tune)


def test_sure_tune_picks_minimum():
    assert sure_tune([5.0, 3.0, 4.0]) == 1


def test_sure_tune_tie_goes_low():
    assert sure_tune([2.0, 1.0, 1.0]) == 1
    assert sure_tune(np.array([0.0, 0.0])) == 0


def test_sure_tune_rejects_empty():
    with pytest.raises(ValueError):
        sure_tune([])


def test_bounds_monotone_in_m():
    b1 = selection_gap_bound(4, 0.1, 1.0, 10.0, 1.0)
    b2 = selection_gap_bound(8, 0.1, 1.0, 10.0, 1.0)
    assert 0 < b1 < b2
    assert max_gap_bound(4, 0.1, 1.0, 1.0) < max_gap_bound(16, 0.1, 1.0, 1.0)
    assert squared_risk_gap_bound(100, 4, 1.0, 1.0) \
        < squared_risk_gap_bound(100, 8, 1.0, 1.0)


def test_bounds_scale_with_sigma():
    assert selection_gap_bound(4, 0.1, 1.0, 10.0, 2.0) == pytest.approx(
        2 * selection_gap_bound(4, 0.1, 1.0, 10.0, 1.0))
    assert squared_risk_gap_bound(50, 3, 2.0, 1.0) == pytest.approx(
        2.0 * math.sqrt(32 * 50 * 3))


def test_bound_validation():
    with pytest.raises(ValueError):
        selection_gap_bound(4, 0.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        max_gap_bound(0, 0.1, 1.0, 1.0)


def test_zero_estimator():
    est = ZeroEstimator()
    y = np.arange(5.0)
    assert np.all(est.mu(y) == 0.0)
    assert est.divergence(y) == 0.0


def test_wave_zero_at_origin_and_shift_norm():
    for n in (4, 100):
        est = TriangleWaveEstimator(n, sigma=1.5)
        vals, _ = est.wave(np.zeros(n))
        np.testing.assert_allclose(vals, 0.0, atol=1e-12)
        assert est.shift @ est.shift == pytest.approx(1.5**2 * math.sqrt(n))


def test_wave_closed_form_on_base_interval():
    # g(u) = sigma min(u/sigma, 2^K - u/sigma) on [0, 2^K sigma]
    est = TriangleWaveEstimator(3, sigma=2.0, period_exponent=2)
    u = np.linspace(0.0, 2.0**2 * 2.0, 33)
    vals, _ = est.wave(u)
    np.testing.assert_allclose(vals, 2.0 * np.minimum(u / 2.0, 4.0 - u / 2.0),
                               atol=1e-12)


def test_wave_periodic_and_even():
    est = TriangleWaveEstimator(2, sigma=1.0, period_exponent=-3)
    u = np.linspace(-2, 2, 101)
    v0, _ = est.wave(u)
    v1, _ = est.wave(u + est.period)
    v2, _ = est.wave(-u)
    np.testing.assert_allclose(v0, v1, atol=1e-12)
    np.testing.assert_allclose(v0, v2, atol=1e-12)


@settings(max_examples=80, deadline=None)
@given(u=st.floats(-50, 50), v=st.floats(-50, 50),
       k=st.integers(-6, 6))
def test_wave_is_one_lipschitz(u, v, k):
    est = TriangleWaveEstimator(2, sigma=1.0, period_exponent=k)
    a, _ = est.wave(np.array([u]))
    b, _ = est.wave(np.array([v]))
    assert abs(a[0] - b[0]) <= abs(u - v) + 1e-9


def test_wave_slopes_match_finite_differences():
    est = TriangleWaveEstimator(2, sigma=1.0, period_exponent=-2)
    gen = np.random.default_rng(0)
    u = gen.uniform(-3, 3, 200)
    vals, slopes = est.wave(u)
    step = 1e-9
    fd = (est.wave(u + step)[0] - vals) / step
    # matches everywhere except measure-zero kinks grazed by the step
    agree = np.abs(fd - slopes) < 1e-3
    assert np.mean(agree) > 0.95
    assert np.all(np.abs(slopes) == 1.0)


def test_divergence_is_sum_of_slopes():
    est = TriangleWaveEstimator(10, sigma=1.0, period_exponent=-4)
    y = np.random.default_rng(1).standard_normal(10)
    _, slopes = est.wave(y)
    assert est.divergence(y) == pytest.approx(np.sum(slopes))


def test_adversarial_pair_defaults():
    zero, wave = adversarial_pair(6, sigma=1.0)
    assert isinstance(zero, ZeroEstimator)
    assert wave.k == 6  # min(n, 20)
    _, wave20 = adversarial_pair(64, sigma=1.0)
    assert wave20.k == 20


def test_wave_validation():
    with pytest.raises(ValueError):
        TriangleWaveEstimator(0, 1.0)
    with pytest.raises(ValueError):
        TriangleWaveEstimator(4, 1.0, shift=np.ones(4))  # wrong norm


def test_adversarial_gap_experiment_finds_gap():
    out = adversarial_gap_experiment(1024, 1.0, 200, RngStream(2),
                                     c=0.9, period_exponent=-8)
    assert out["gap_frequency"] >= 0.05
    assert out["pick_frequency"] >= out["gap_frequency"]
