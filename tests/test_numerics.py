import numpy as np
import pytest

from slrl.errors import ParameterError
from slrl.numerics import finite_diff_grad, make_rng, relative_error


def test_rng_reproducible_first_10k_draws():
    a = make_rng(123).random(10_000)
    b = make_rng(123).random(10_000)
    assert np.array_equal(a, b)


def test_rng_different_seeds_differ():
    assert not np.array_equal(make_rng(1).random(10), make_rng(2).random(10))


def test_rng_rejects_a_negative_seed():
    with pytest.raises(ParameterError, match="seed must be >= 0, got -1"):
        make_rng(-1)


def test_finite_diff_square():
    g = finite_diff_grad(lambda x: float(x[0] ** 2), np.array([3.0]), eps=1e-5)
    assert abs(g[0] - 6.0) < 1e-6


def test_finite_diff_constant():
    g = finite_diff_grad(lambda x: 4.2, np.zeros(5), eps=1e-5)
    assert np.array_equal(g, np.zeros(5))


def test_finite_diff_sum_of_squares():
    rng = make_rng(3)
    x = rng.normal(size=8)
    g = finite_diff_grad(lambda v: float(np.sum(v**2)), x, eps=1e-5)
    assert np.max(np.abs(g - 2 * x)) < 1e-6


def test_finite_diff_rejects_bad_eps():
    with pytest.raises(ValueError):
        finite_diff_grad(lambda x: 0.0, np.zeros(2), eps=0.0)


def test_relative_error_metric():
    assert relative_error([1.0, 2.0], [1.0, 2.0]) == 0.0
    # |g_a - g_n| / max(1, |g_a|, |g_n|) elementwise, max over entries
    assert relative_error([10.0], [11.0]) == pytest.approx(1.0 / 11.0)
    assert relative_error([0.1], [0.2]) == pytest.approx(0.1)
