import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import chi2

from steinsure import core
from steinsure.core import (RegressionProblem, RngStream, chi_square_cdf,
                            chi_square_quantile, gaussian_design, replicate,
                            worker_count)


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


def test_worker_count_is_bounded():
    cores = len(os.sched_getaffinity(0))
    assert worker_count(10**6, 10**6) == cores
    assert worker_count(10**6, 3) == min(3, cores)
    assert worker_count(2, 10**6) == min(2, cores)
    for threads, units in ((1, 10), (0, 10), (-4, 10), (8, 0), (8, 1)):
        assert worker_count(threads, units) == 1


def test_replicate_asks_for_no_more_workers_than_cores(monkeypatch):
    asked = []

    class Refuse:
        def __init__(self, workers, **kwargs):
            asked.append(workers)
            raise RuntimeError("no pool in this test")
    monkeypatch.setattr(core.concurrent.futures, "ProcessPoolExecutor", Refuse)
    cores = len(os.sched_getaffinity(0))
    with core.workers(10**6):
        if cores == 1:
            assert replicate(abs, 4) == [0, 1, 2, 3]   # in-process
        else:
            with pytest.raises(RuntimeError, match="no pool"):
                replicate(abs, 10**6)
            assert asked == [cores]


@pytest.mark.parametrize("workers", [1, 2])
def test_replicate_returns_units_in_index_order(workers):
    with core.workers(workers):
        draws = replicate(lambda i: _draw(RngStream(5).child(i), 3), 7,
                          chunksize=3)
    assert len(draws) == 7
    for i, draw in enumerate(draws):
        np.testing.assert_array_equal(draw, _draw(RngStream(5).child(i), 3))


def _nested_unit(i):
    # the inner units report the process they ran in
    return os.getpid(), replicate(lambda j: (os.getpid(), 10 * i + j), 3)


def test_replicate_inside_a_pool_worker_runs_its_units_in_process():
    with core.workers(1):
        serial = replicate(_nested_unit, 4)
    with core.workers(2):
        pooled = replicate(_nested_unit, 4)
    assert core._WORKERS.get() == 1     # the count is given back
    for pid, inner in pooled:
        # with two usable cores the outer units ran in the pool
        assert (pid != os.getpid()) == (worker_count(2, 4) == 2)
        assert [unit_pid for unit_pid, _ in inner] == [pid] * 3
    strip = [[value for _, value in inner] for _, inner in serial]
    assert [[value for _, value in inner] for _, inner in pooled] == strip
    assert strip == [[10 * i + j for j in range(3)] for i in range(4)]


def _blas_counts():
    return [get() for get, _ in core._blas_thread_controls()]


@pytest.mark.parametrize("workers", [1, 2])
def test_replicate_runs_units_at_one_blas_thread_and_restores_the_count(
        workers):
    before = _blas_counts()
    if not before:
        pytest.skip("no OpenBLAS found in this process")
    try:
        for _, set_threads in core._blas_thread_controls():
            set_threads(2)
        caller = _blas_counts()
        if max(caller) == 1:
            pytest.skip("BLAS runs one thread here")
        with core.workers(workers):
            assert replicate(lambda i: _blas_counts(), 3) == [
                [1] * len(caller)] * 3
        assert _blas_counts() == caller
        # a unit that raises gives the count back too
        with pytest.raises(ZeroDivisionError):
            replicate(lambda i: 1 / 0, 1)
        assert _blas_counts() == caller
    finally:
        for (_, set_threads), count in zip(core._blas_thread_controls(),
                                           before):
            set_threads(count)


def test_replicate_output_does_not_depend_on_the_blas_environment():
    # the svt probe table's eigen-solves change bits with the BLAS thread
    # count; at one worker its units run in this process, at two in a pool
    code = ("import json\n"
            "from steinsure import harness\n"
            "from steinsure.core import workers\n"
            "def table(threads):\n"
            "    with workers(threads):\n"
            "        return harness.payload_json(harness.experiment_mc_divergence("
            "'svt', seed=7, m_grid=(4, 16), n_real=6))\n"
            "print(json.dumps([table(threads) for threads in (1, 2)]))")
    outs = []
    for pin in (None, "1"):
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                            "OMP_NUM_THREADS")}
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(core.__file__))
        if pin:
            env["OPENBLAS_NUM_THREADS"] = pin
        outs.append(json.loads(subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, check=True).stdout))
    assert outs[0][0] == outs[0][1] == outs[1][0] == outs[1][1]
