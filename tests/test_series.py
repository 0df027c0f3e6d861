import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bicoef.series import (NormalizedFunction, evaluate, inverse_coeffs_closed,
                           pow_real, revert)
from oracles import _mul, compose, revert_by_composition

TOL = 1e-10


def random_normalized(rng, order):
    """Random normalized function with |a_k| <= 2."""
    tail = rng.uniform(-2, 2, order - 1) * np.exp(2j * np.pi * rng.random(order - 1))
    tail *= rng.random(order - 1)  # keep moduli spread below 2
    return NormalizedFunction.from_tail(tail, order=order)


# ---------------------------------------------------------------- pow_real

def _binomial(s, order):
    """Coefficients 0..order of (1 + z/2)^s."""
    out = np.ones(order + 1, dtype=complex)
    for k in range(1, order + 1):
        out[k] = out[k - 1] * (s - k + 1) / (2 * k)
    return out


def test_pow_real_binomial_oracle():
    # (1 + a2 z + a3 z^2)^m = 1 + m a2 z + (m a3 + m(m-1)/2 a2^2) z^2
    rng = np.random.default_rng(3)
    for m in (0.5, 1.7, 3.0):
        a2 = complex(rng.normal(), rng.normal())
        a3 = complex(rng.normal(), rng.normal())
        got = pow_real([1, a2, a3], m)
        want = [1, m * a2, m * a3 + m * (m - 1) / 2 * a2 * a2]
        assert np.allclose(got, want, atol=TOL, rtol=0)
    # at the CLI's order cap: ((1 + z/2)^s)^p = (1 + z/2)^(s p), normwise
    for s, p in ((3.5, -0.4), (0.5, 2.3), (-1, 0.5), (2, -1)):
        got, want = pow_real(_binomial(s, 256), p), _binomial(s * p, 256)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_pow_real_integer_matches_repeated_multiplication():
    rng = np.random.default_rng(4)
    c = np.concatenate(([1.0], rng.normal(size=6) + 1j * rng.normal(size=6)))
    assert np.allclose(pow_real(c, 2.0), _mul(c, c), atol=TOL, rtol=0)
    assert np.allclose(pow_real(c, 3.0), _mul(_mul(c, c), c), atol=TOL, rtol=0)


def test_pow_real_trivial_exponents():
    c = [1, 0.3, -0.2, 0.1]
    assert list(pow_real(c, 0.0)) == [1, 0, 0, 0]
    assert np.allclose(pow_real(c, 1.0), c, atol=1e-14, rtol=0)


def test_pow_real_rejects_nonunit_constant():
    with pytest.raises(ValueError):
        pow_real([2, 1], 0.5)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.complex_numbers(max_magnitude=1.5, allow_nan=False,
                                   allow_infinity=False),
                min_size=1, max_size=7),
       st.floats(0, 3), st.floats(0, 3))
def test_pow_real_is_additive_in_the_exponent(tail, m, n):
    c = [1.0] + tail
    lhs = pow_real(c, m + n)
    rhs = _mul(pow_real(c, m), pow_real(c, n))
    assert np.allclose(lhs, rhs, atol=1e-8, rtol=0)


# ---------------------------------------------------------------- reversion

def test_revert_geometric_prefix():
    # z/(1-z) inverts to w/(1+w)
    f = NormalizedFunction([0, 1, 1, 1, 1])
    g = revert(f)
    assert np.allclose(g.coeffs, [0, 1, -1, 1, -1], atol=TOL, rtol=0)


def test_revert_koebe_prefix():
    f = NormalizedFunction([0, 1, 2, 3, 4])
    g = revert(f)
    assert np.allclose(g.coeffs, [0, 1, -2, 5, -14], atol=0, rtol=0)


def test_revert_identity():
    f = NormalizedFunction.from_tail([], order=5)
    assert np.allclose(revert(f).coeffs, f.coeffs, atol=0, rtol=0)


def test_compose_revert_is_identity():
    rng = np.random.default_rng(11)
    for _ in range(30):
        order = int(rng.integers(2, 13))
        f = random_normalized(rng, order)
        g = revert(f)
        identity = NormalizedFunction.from_tail([], order=order).coeffs
        assert np.allclose(compose(f.coeffs, g.coeffs), identity,
                           atol=TOL, rtol=0)


def test_revert_matches_reversion_by_composition():
    rng = np.random.default_rng(14)
    for order in range(1, 65):
        f = random_normalized(rng, order)
        got = revert(f).coeffs
        want = revert_by_composition(f).coeffs
        scale = np.maximum(1.0, np.abs(want))
        assert np.all(np.abs(got - want) <= 1e-12 * scale), order


def test_revert_is_an_involution():
    rng = np.random.default_rng(12)
    for _ in range(30):
        order = int(rng.integers(2, 13))
        f = random_normalized(rng, order)
        assert np.allclose(revert(revert(f)).coeffs, f.coeffs,
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
        got = g.coeffs[2:5]
        assert np.allclose(got, want, atol=TOL, rtol=0)


# ---------------------------------------------------------------- evaluate

def test_evaluate_constant_term():
    assert evaluate([1, 2, 2], 0) == 1


def test_evaluate_direct():
    assert evaluate([0, 1, 1], 0.5) == 0.75


def test_evaluate_truncation_error_geometric():
    # 1 + 2z + 2z^2 + 2z^3 at 0.5 approximates (1+z)/(1-z) = 3
    val = evaluate([1, 2, 2, 2], 0.5)
    assert val == 2.75
    assert abs(val - 3.0) <= 0.25 + 1e-15


def test_evaluate_rejects_outside_disk():
    with pytest.raises(ValueError):
        evaluate([1, 1], 1.0)
    with pytest.raises(ValueError):
        evaluate([1, 1], 1.2j)
    with pytest.raises(ValueError, match="finite"):
        evaluate([1, 1], float("nan"))
    with pytest.raises(ValueError, match="finite"):
        evaluate([1, 1], np.array([0.1, np.nan, 0.2j]))


def test_evaluate_vectorized_matches_scalar():
    c = [1, 0.5, -0.25, 0.125]
    zs = np.array([0.1, -0.3 + 0.4j, 0.9j])
    batch = evaluate(c, zs)
    for z, v in zip(zs, batch):
        assert v == evaluate(c, complex(z))


# ------------------------------------------------------- normalized wrapper

def test_normalization_is_exact():
    with pytest.raises(ValueError):
        NormalizedFunction([0, 1.0000001, 0])
    with pytest.raises(ValueError):
        NormalizedFunction([0.1, 1, 0])
    f = NormalizedFunction.from_tail([7j], order=4)
    assert list(f.coeffs) == [0, 1, 7j, 0, 0]
    assert list(NormalizedFunction.from_tail([7j, 2], order=2).coeffs) == [0, 1, 7j]


def test_coeffs_are_readonly():
    f = NormalizedFunction([0, 1, 3])
    with pytest.raises(ValueError):
        f.coeffs[2] = 9
