import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bicoef.series import (NormalizedFunction, TruncatedSeries,
                           inverse_coeffs_closed, revert)
from oracles import compose, revert_by_composition

TOL = 1e-10


def random_normalized(rng, order):
    """Random normalized function with |a_k| <= 2."""
    tail = rng.uniform(-2, 2, order - 1) * np.exp(2j * np.pi * rng.random(order - 1))
    tail *= rng.random(order - 1)  # keep moduli spread below 2
    return NormalizedFunction.from_tail(tail, order=order)


# ---------------------------------------------------------------- ring ops

def test_add_cancellation():
    a = TruncatedSeries([1, 2])
    b = TruncatedSeries([1, -2])
    assert list((a + b).coeffs) == [2, 0]


def test_mul_difference_of_squares():
    a = TruncatedSeries([1, 1, 0])
    b = TruncatedSeries([1, -1, 0])
    assert list((a * b).coeffs) == [1, 0, -1]


def test_derivative_term_by_term():
    s = TruncatedSeries([0, 1, 2, 3])
    assert list(s.derivative().coeffs) == [1, 4, 9]


def test_ops_truncate_to_smaller_order():
    long = TruncatedSeries([1, 1, 1, 1, 1])
    short = TruncatedSeries([1, 1])
    assert (long + short).order == 1
    assert (long * short).order == 1


def test_coeffs_are_readonly():
    s = TruncatedSeries([1, 2, 3])
    with pytest.raises(ValueError):
        s.coeffs[0] = 9


# ---------------------------------------------------------------- pow_real

def test_pow_real_binomial_oracle():
    # (1 + a2 z + a3 z^2)^m = 1 + m a2 z + (m a3 + m(m-1)/2 a2^2) z^2
    rng = np.random.default_rng(3)
    for m in (0.5, 1.7, 3.0):
        a2 = complex(rng.normal(), rng.normal())
        a3 = complex(rng.normal(), rng.normal())
        got = TruncatedSeries([1, a2, a3]).pow_real(m)
        want = [1, m * a2, m * a3 + m * (m - 1) / 2 * a2 * a2]
        assert np.allclose(got.coeffs, want, atol=TOL, rtol=0)


def test_pow_real_integer_matches_repeated_multiplication():
    rng = np.random.default_rng(4)
    c = np.concatenate(([1.0], rng.normal(size=6) + 1j * rng.normal(size=6)))
    s = TruncatedSeries(c)
    assert np.allclose(s.pow_real(2.0).coeffs, (s * s).coeffs, atol=TOL, rtol=0)
    assert np.allclose(s.pow_real(3.0).coeffs, (s * s * s).coeffs, atol=TOL, rtol=0)


def test_pow_real_trivial_exponents():
    s = TruncatedSeries([1, 0.3, -0.2, 0.1])
    assert list(s.pow_real(0.0).coeffs) == [1, 0, 0, 0]
    assert np.allclose(s.pow_real(1.0).coeffs, s.coeffs, atol=1e-14, rtol=0)


def test_pow_real_rejects_nonunit_constant():
    with pytest.raises(ValueError):
        TruncatedSeries([2, 1]).pow_real(0.5)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.complex_numbers(max_magnitude=1.5, allow_nan=False,
                                   allow_infinity=False),
                min_size=1, max_size=7),
       st.floats(0, 3), st.floats(0, 3))
def test_pow_real_is_additive_in_the_exponent(tail, m, n):
    s = TruncatedSeries([1.0] + tail)
    lhs = s.pow_real(m + n)
    rhs = s.pow_real(m) * s.pow_real(n)
    assert np.allclose(lhs.coeffs, rhs.coeffs, atol=1e-8, rtol=0)


# ---------------------------------------------------------------- reversion

def test_revert_geometric_prefix():
    # z/(1-z) inverts to w/(1+w)
    f = NormalizedFunction([0, 1, 1, 1, 1])
    g = revert(f)
    assert np.allclose(g.series.coeffs, [0, 1, -1, 1, -1], atol=TOL, rtol=0)


def test_revert_koebe_prefix():
    f = NormalizedFunction([0, 1, 2, 3, 4])
    g = revert(f)
    assert np.allclose(g.series.coeffs, [0, 1, -2, 5, -14], atol=0, rtol=0)


def test_revert_identity():
    f = NormalizedFunction.from_tail([], order=5)
    assert np.allclose(revert(f).series.coeffs, f.series.coeffs, atol=0, rtol=0)


def test_compose_revert_is_identity():
    rng = np.random.default_rng(11)
    for _ in range(30):
        order = int(rng.integers(2, 13))
        f = random_normalized(rng, order)
        g = revert(f)
        identity = NormalizedFunction.from_tail([], order=order).series
        assert np.allclose(compose(f.series, g.series).coeffs, identity.coeffs,
                           atol=TOL, rtol=0)


def test_revert_matches_reversion_by_composition():
    rng = np.random.default_rng(14)
    for order in range(1, 65):
        f = random_normalized(rng, order)
        got = revert(f).series.coeffs
        want = revert_by_composition(f).series.coeffs
        scale = np.maximum(1.0, np.abs(want))
        assert np.all(np.abs(got - want) <= 1e-12 * scale), order


def test_revert_is_an_involution():
    rng = np.random.default_rng(12)
    for _ in range(30):
        order = int(rng.integers(2, 13))
        f = random_normalized(rng, order)
        assert np.allclose(revert(revert(f)).series.coeffs, f.series.coeffs,
                           atol=TOL, rtol=0)


def test_inverse_coeffs_closed_examples():
    assert inverse_coeffs_closed(2, 3, 4) == (-2, 5, -14)
    assert inverse_coeffs_closed(0, 0, 0) == (0, 0, 0)
    assert inverse_coeffs_closed(1, 1, 1) == (-1, 1, -1)


def test_inverse_coeffs_closed_matches_revert():
    rng = np.random.default_rng(13)
    for _ in range(300):
        a = rng.uniform(-3, 3, 3) + 1j * rng.uniform(-3, 3, 3)
        f = NormalizedFunction.from_tail(a)
        g = revert(f)
        want = np.array(inverse_coeffs_closed(*a))
        got = g.series.coeffs[2:5]
        assert np.allclose(got, want, atol=TOL, rtol=0)


# ---------------------------------------------------------------- evaluate

def test_evaluate_constant_term():
    assert TruncatedSeries([1, 2, 2]).evaluate(0) == 1


def test_evaluate_direct():
    assert TruncatedSeries([0, 1, 1]).evaluate(0.5) == 0.75


def test_evaluate_truncation_error_geometric():
    # 1 + 2z + 2z^2 + 2z^3 at 0.5 approximates (1+z)/(1-z) = 3
    val = TruncatedSeries([1, 2, 2, 2]).evaluate(0.5)
    assert val == 2.75
    assert abs(val - 3.0) <= 0.25 + 1e-15


def test_evaluate_rejects_outside_disk():
    s = TruncatedSeries([1, 1])
    with pytest.raises(ValueError):
        s.evaluate(1.0)
    with pytest.raises(ValueError):
        s.evaluate(1.2j)


def test_evaluate_vectorized_matches_scalar():
    s = TruncatedSeries([1, 0.5, -0.25, 0.125])
    zs = np.array([0.1, -0.3 + 0.4j, 0.9j])
    batch = s.evaluate(zs)
    for z, v in zip(zs, batch):
        assert v == s.evaluate(complex(z))


# ------------------------------------------------------- normalized wrapper

def test_normalization_is_exact():
    with pytest.raises(ValueError):
        NormalizedFunction([0, 1.0000001, 0])
    with pytest.raises(ValueError):
        NormalizedFunction([0.1, 1, 0])
    f = NormalizedFunction.from_tail([7j], order=4)
    assert f.series[0] == 0
    assert f.series[1] == 1
    assert f.series[2] == 7j
    assert f.series[4] == 0
