import cmath
import math
from dataclasses import astuple
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bicoef.bounds import bounds_for
from bicoef.caratheodory import _mixture_coeffs, sample_batch, streams
from bicoef.operators import (AlphaParams, BetaParams, CoefficientTuple,
                              MembershipGrid, apply_operator, induce_q_alpha,
                              induce_q_beta, membership)
from bicoef.series import NormalizedFunction, evaluate, revert
from oracles import lift, operator_by_two_powers, operator_coeffs_closed


# ------------------------------------------------------------------- params

@pytest.mark.parametrize("bad", [
    dict(alpha=0.0, lam=1, mu=0), dict(alpha=1.1, lam=1, mu=0),
    dict(alpha=0.5, lam=0.9, mu=0), dict(alpha=0.5, lam=1, mu=-0.1),
])
def test_alpha_params_rejects_out_of_range(bad):
    with pytest.raises(ValueError):
        AlphaParams(**bad)


@pytest.mark.parametrize("bad", [
    dict(beta=-0.1, lam=1, mu=0), dict(beta=1.0, lam=1, mu=0),
    dict(beta=0.5, lam=0.5, mu=0), dict(beta=0.5, lam=1, mu=-1),
])
def test_beta_params_rejects_out_of_range(bad):
    with pytest.raises(ValueError):
        BetaParams(**bad)


def test_params_accept_boundaries():
    AlphaParams(1.0, 1.0, 0.0)
    BetaParams(0.0, 1.0, 0.0)


# ----------------------------------------------------------------- operator

def test_operator_on_identity_is_one():
    f = NormalizedFunction.from_tail([], order=4)
    for lam, mu in [(1, 0), (2, 3), (1.5, 0.5)]:
        out = apply_operator(f, lam, mu)
        assert np.allclose(out, [1, 0, 0, 0], atol=1e-14, rtol=0)


def test_operator_reduces_to_derivative():
    f = NormalizedFunction.from_tail([0.3, -0.2])
    out = apply_operator(f, 1.0, 1.0)
    assert np.allclose(out, [1, 0.6, -0.6], atol=1e-14, rtol=0)


def test_operator_frozen_example():
    f = NormalizedFunction.from_tail([0.5, 0.25])
    out = apply_operator(f, 2.0, 3.0)
    assert np.allclose(out, [1, 2.5, 3.5], atol=1e-12, rtol=0)
    assert operator_coeffs_closed(0.5, 0.25, 2.0, 3.0) == (2.5, 3.5)


def test_operator_constant_term_exactly_one():
    # (1-lam) + lam is 1 in floats only while 1-lam is exact, up to lam = 2^53,
    # and 0 at 1e17; the bracket h_k (1 + lam k) has constant term 1 at any lam
    rng = np.random.default_rng(0)
    for _ in range(20):
        f = NormalizedFunction.from_tail(rng.normal(size=3) + 1j * rng.normal(size=3))
        lam, mu = rng.uniform(1, 3), rng.uniform(0, 4)
        for lam in (lam, 2.0 ** 53, 1e17):
            assert apply_operator(f, lam, mu)[0] == 1


def test_operator_at_huge_lambda_matches_closed_form():
    out = apply_operator(NormalizedFunction.from_tail([0.1, 0.05]), 1e17, 0.5)
    assert out[0] == 1
    for got, want in zip(out[1:], operator_coeffs_closed(0.1, 0.05, 1e17, 0.5)):
        assert abs(got - want) <= 1e-15 * abs(want)


def test_operator_order_cap():
    # f/z and f' are known through order f.order - 1, and so is the result
    for order in (1, 2, 5):
        f = NormalizedFunction.from_tail([0.5, 0.25], order=order + 1)
        assert apply_operator(f, 1.5, 2.5).size == order + 1


def test_closed_coeffs_trivial_cases():
    assert operator_coeffs_closed(0, 0, 2.0, 3.0) == (0, 0)
    l1, l2 = operator_coeffs_closed(0.7, -0.4, 1.0, 1.0)
    assert l1 == pytest.approx(1.4) and l2 == pytest.approx(-1.2)


def test_closed_coeffs_match_series_route():
    rng = np.random.default_rng(1)
    for _ in range(300):
        a2 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        a3 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        lam = rng.uniform(1, 4)
        mu = rng.uniform(0, 5)
        out = apply_operator(NormalizedFunction.from_tail([a2, a3]), lam, mu)
        l1, l2 = operator_coeffs_closed(a2, a3, lam, mu)
        assert abs(out[1] - l1) < 1e-10
        assert abs(out[2] - l2) < 1e-10


@pytest.mark.parametrize("lam", [1.0, 2.5])
@pytest.mark.parametrize("mu", [0.0, 0.5, 1.0, 3.0])
def test_single_power_matches_two_power_form(lam, mu):
    rng = np.random.default_rng(2)
    for order in range(1, 13):
        tail = rng.uniform(-1, 1, order - 1) + 1j * rng.uniform(-1, 1, order - 1)
        f = NormalizedFunction.from_tail(tail, order=order)
        got = apply_operator(f, lam, mu)
        want = operator_by_two_powers(f, lam, mu)
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-12), order


def test_quadratic_term_vanishes_at_mu_one():
    _, with_a2 = operator_coeffs_closed(1.7, 0.4, 2.0, 1.0)
    _, without_a2 = operator_coeffs_closed(0.0, 0.4, 2.0, 1.0)
    assert with_a2 == without_a2


# --------------------------------------------------------------- membership

def test_membership_identity_function_passes_everywhere():
    f = NormalizedFunction.from_tail([], order=4)
    rng = np.random.default_rng(2)
    for _ in range(10):
        ap = AlphaParams(rng.uniform(0.05, 1), rng.uniform(1, 3), rng.uniform(0, 3))
        bp = BetaParams(rng.uniform(0, 0.95), rng.uniform(1, 3), rng.uniform(0, 3))
        ra = membership(f, ap)
        rb = membership(f, bp)
        assert ra.passed and ra.margin == pytest.approx(ap.alpha * math.pi / 2)
        assert rb.passed and rb.margin == pytest.approx(1 - bp.beta)


def test_membership_sector_small_perturbation_passes():
    f = NormalizedFunction.from_tail([0.05])
    rep = membership(f, AlphaParams(0.5, 1, 1))
    assert rep.passed


def test_membership_sector_koebe_prefix_fails_tight_opening():
    f = NormalizedFunction.from_tail([2.0])
    rep = membership(f, AlphaParams(0.1, 1, 1))
    assert not rep.passed
    assert rep.worst_value > 0.1 * math.pi / 2


def test_membership_half_plane_small_perturbation_passes():
    f = NormalizedFunction.from_tail([0.05])
    rep = membership(f, BetaParams(0.5, 1, 1))
    assert rep.passed


def test_membership_half_plane_koebe_prefix_fails_high_level():
    f = NormalizedFunction.from_tail([2.0])
    rep = membership(f, BetaParams(0.9, 1, 1))
    assert not rep.passed
    assert rep.worst_value < 0.9


def _reference_membership(f, params, grid):
    # the two per-class membership tests as written before both classes shared one
    pts = grid.points()
    worst = None
    for side, fn in (("f", f), ("g", revert(f))):
        values = evaluate(apply_operator(fn, params.lam, params.mu), pts)
        if params.family == "alpha":
            v = np.abs(np.angle(values))
            i = int(np.argmax(v))
            worse = worst is None or v[i] > worst[0]
        else:
            v = values.real
            i = int(np.argmin(v))
            worse = worst is None or v[i] < worst[0]
        if worse:
            worst = (float(v[i]), complex(pts[i]), side)
    value, point, side = worst
    if params.family == "alpha":
        test, threshold = "arg", params.alpha * math.pi / 2.0
        margin = threshold - value
    else:
        test, threshold = "re", params.beta
        margin = value - threshold
    return (margin > -grid.tol, test, threshold, value, margin, point, side, grid.tol)


@pytest.mark.parametrize("tail", [[0.05], [2.0], [0.3, -0.2], [0.5 + 0.1j, 0.25, -0.1]])
@pytest.mark.parametrize("params", [
    AlphaParams(1.0, 1, 1), AlphaParams(0.5, 1.5, 0.5), AlphaParams(0.1, 1, 0),
    BetaParams(0.0, 1, 1), BetaParams(0.5, 1.5, 0.5), BetaParams(0.9, 2, 3),
], ids=repr)
def test_membership_matches_per_class_reference_exactly(params, tail):
    f = NormalizedFunction.from_tail(tail, order=6)
    grid = MembershipGrid(radii=(0.5, 0.99), n_angles=64)
    rep = membership(f, params, grid)
    assert astuple(rep) == _reference_membership(f, params, grid)


def test_membership_grid_rejects_bad_radius():
    f = NormalizedFunction.from_tail([0.1])
    with pytest.raises(ValueError):
        membership(f, AlphaParams(1, 1, 1), MembershipGrid(radii=(1.0,)))


# ------------------------------------------------------------- lift / induce

def _angular_lift(t, params):
    # the two functionals the angular class read before both classes shared lift
    out = lift(t, params)
    return out.a2sq_from_p2q2, out.a3_primary


def test_lift_angular_extremal_tuple_attains_bound():
    a2_sq, a3 = _angular_lift(CoefficientTuple(2, 2, 2, 2), AlphaParams(1, 1, 1))
    assert a2_sq == pytest.approx(4 / 6, abs=1e-15)
    assert abs(math.sqrt(abs(a2_sq)) - math.sqrt(2 / 3)) < 1e-15
    assert a3 == pytest.approx(1.0, abs=1e-15)


def test_lift_angular_zero_tuple():
    assert _angular_lift(CoefficientTuple(0, 0, 0, 0), AlphaParams(1, 2, 0)) == (0, 0)


def test_lift_angular_second_coefficients_only():
    a2_sq, a3 = _angular_lift(CoefficientTuple(0, 2, 0, -2), AlphaParams(1, 1, 1))
    assert a2_sq == 0
    assert a3 == pytest.approx(2 / 3, abs=1e-15)


@pytest.mark.parametrize("params,a2sq", [(AlphaParams(0.5, 1, 1), 0.2),
                                         (BetaParams(0.0, 1, 1), 2 / 3)], ids=repr)
def test_lift_routes_differ_off_the_induced_tuples(params, a2sq):
    # p1 = q1 = 0 with p2 = q2 = 2 solves no class system, so each route shows
    out = lift(CoefficientTuple(0, 2, 0, 2), params)
    assert (out.a2sq_from_p1q1, out.a3_primary) == (0, 0)
    assert out.a2sq_from_p2q2 == pytest.approx(a2sq, abs=1e-15)
    assert out.a3_alternate == pytest.approx(a2sq, abs=1e-15)


def test_lift_rejects_inconsistent_first_coefficients():
    with pytest.raises(ValueError):
        lift(CoefficientTuple(1, 0, 0.5, 0), AlphaParams(1, 1, 1))
    with pytest.raises(ValueError):
        lift(CoefficientTuple(1, 0, 0.5, 0), BetaParams(0, 1, 1))


def test_induce_alpha_frozen_example():
    a2, a3, q1, q2 = induce_q_alpha(2, 2, AlphaParams(1, 1, 1))
    assert (a2, q1) == (1, -2)
    assert a3 == pytest.approx(2 / 3, abs=1e-15)
    assert q2 == pytest.approx(4.0, abs=1e-14)  # inadmissible: |q2| > 2


def test_induce_alpha_zero():
    assert induce_q_alpha(0, 0, AlphaParams(0.5, 2, 1)) == (0, 0, 0, 0)


def test_induce_beta_frozen_examples():
    assert induce_q_beta(0, 0, BetaParams(0.5, 1, 1)) == (0, 0, 0, 0)
    a2, a3, q1, q2 = induce_q_beta(2, 2, BetaParams(0.0, 1, 1))
    assert (a2, q1) == (1, -2)
    assert a3 == pytest.approx(2 / 3, abs=1e-15)
    assert q2 == pytest.approx(4.0, abs=1e-14)
    a2, a3, q1, q2 = induce_q_beta(2, 2, BetaParams(0.5, 1, 1))
    assert a2 == pytest.approx(0.5)
    assert a3 == pytest.approx(1 / 3, abs=1e-15)
    assert q2 == pytest.approx(1.0, abs=1e-14)


def _reference_induce_q_alpha(p1, p2, params):
    # the angular-class system as written out before both classes shared one kernel
    a, lam, mu = params.alpha, params.lam, params.mu
    a2 = a * p1 / (lam + mu)
    half_quad = (mu - 1.0) * (lam + mu / 2.0) * a2 * a2
    a3 = (a * p2 + a * (a - 1.0) / 2.0 * p1 * p1 - half_quad) / (2.0 * lam + mu)
    q1 = -p1
    q2 = (-(2.0 * lam + mu) * a3 + (3.0 + mu) * (lam + mu / 2.0) * a2 * a2
          - a * (a - 1.0) / 2.0 * q1 * q1) / a
    return a2, a3, q1, q2


def _reference_induce_q_beta(p1, p2, params):
    b, lam, mu = params.beta, params.lam, params.mu
    one_b = 1.0 - b
    a2 = one_b * p1 / (lam + mu)
    a3 = (one_b * p2 - (mu - 1.0) * (lam + mu / 2.0) * a2 * a2) / (2.0 * lam + mu)
    q1 = -p1
    q2 = (-(2.0 * lam + mu) * a3 + (3.0 + mu) * (lam + mu / 2.0) * a2 * a2) / one_b
    return a2, a3, q1, q2


_ORACLES = {"alpha": (AlphaParams, induce_q_alpha, _reference_induce_q_alpha),
            "beta": (BetaParams, induce_q_beta, _reference_induce_q_beta)}


_U = 2.0 ** -53
# c of the forward-error bound c u (|p2 term| + |p1^2 term|) on a3 and q2: the
# smallest power of two that the per-class reference meets on these rows and
# calls, where it errs by up to 9.6 u (a3) and 5.2 u (q2), and the shared
# kernel by up to 8.9 u and 3.1 u
_C = 16


@pytest.fixture(scope="module")
def exact_rows():
    """1000 sampled (p1, p2), and each row's p2 and p1^2 as (re, im) Fractions."""
    coeffs = _mixture_coeffs(*sample_batch(streams(17), 1000, 3))
    p1, p2 = coeffs[:, 0], coeffs[:, 1]
    p2_exact = [(Fraction(z.real), Fraction(z.imag)) for z in p2.tolist()]
    p1_exact = [(Fraction(z.real), Fraction(z.imag)) for z in p1.tolist()]
    p1sq_exact = [(x * x - y * y, 2 * x * y) for x, y in p1_exact]
    return p1, p2, p2_exact, p1sq_exact


def _solution_coefficients(params):
    """((a, b), (q, k)): the system's a3 = a p2 + b p1^2 and q2 = q p2 + k p1^2.

    f's two equations, then the inverse's second one, whose coefficients are
    -a2 and 2 a2^2 - a3 with q1 = -p1, solved in the number type of
    ``params``.  With a2 = phi1 p1 / (lam+mu) put in they are linear in p2 and
    p1^2, so the solutions at (p1, p2) = (0, 1) and (1, 0) are the coefficients.
    """
    (phi1, phi2), lam, mu = params.phi, params.lam, params.mu

    def solve(p1, p2):
        a2 = phi1 * p1 / (lam + mu)
        quad = (mu - 1) * (lam + mu / 2) * a2 * a2
        a3 = (phi1 * p2 + phi2 * p1 * p1 - quad) / (2 * lam + mu)
        return a3, ((2 * lam + mu) * (2 * a2 * a2 - a3) + quad - phi2 * p1 * p1) / phi1

    (a, q), (b, k) = solve(0, 1), solve(1, 0)
    return (a, b), (q, k)


def _exact_values(c2, csq, p2_exact, p1sq_exact):
    """c2 p2 + csq p1^2 of each row, exactly, as the float arrays hi + lo."""
    hi, lo = [], []
    for (u, v), (x, y) in zip(p2_exact, p1sq_exact):
        re, im = c2 * u + csq * x, c2 * v + csq * y
        h = complex(re, im)
        hi.append(h)
        lo.append(complex(re - Fraction(h.real), im - Fraction(h.imag)))
    return np.array(hi), np.array(lo)


@pytest.mark.parametrize("mu", [0.0, 0.2, 0.5, 1.0, 3.0])
@pytest.mark.parametrize("family,shape", [
    ("alpha", 1.0), ("alpha", 0.5), ("alpha", 0.3),
    ("beta", 0.0), ("beta", 0.5), ("beta", 0.1),
])
def test_shared_kernel_is_as_accurate_as_the_per_class_reference(family, shape, mu,
                                                                  exact_rows):
    # a2 and q1 are the reference's bits; a3 and q2, on the array rows and on
    # 50 scalar calls, are within the reference's forward-error bound of the
    # system solved exactly at the same float params and (p1, p2)
    cls, induce, reference = _ORACLES[family]
    p1, p2, p2_exact, p1sq_exact = exact_rows
    params = cls(shape, 1.5, mu)
    got, want = induce(p1, p2, params), reference(p1, p2, params)
    calls = [(induce(a, b, params), reference(a, b, params))
             for a, b in zip(p1[:50].tolist(), p2[:50].tolist())]
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[2], want[2])
    assert all((g[0], g[2]) == (w[0], w[2]) for g, w in calls)
    exact = cls(Fraction(shape), Fraction(1.5), Fraction(mu))
    for k, (c2, csq) in zip((1, 3), _solution_coefficients(exact)):
        hi, lo = _exact_values(c2, csq, p2_exact, p1sq_exact)
        bound = _C * _U * (np.abs(float(c2) * p2) + np.abs(float(csq) * p1 * p1))
        for out in (got[k], want[k], [g[k] for g, _ in calls], [w[k] for _, w in calls]):
            n = len(out)
            # out - hi is exact where out is within a factor 2 of hi, so this is
            # the error to within 2 u of itself
            assert np.all(np.abs((np.asarray(out) - hi[:n]) - lo[:n]) <= bound[:n])


@pytest.mark.filterwarnings("error")   # a numpy overflow fails the test
@settings(max_examples=300, deadline=None)
@given(family=st.sampled_from(("alpha", "beta")), shape=st.floats(0.0, 1.0),
       lam=st.floats(1.0, 1e150), mu=st.floats(0.0, 1e150), r=st.floats(0.0, 1.0),
       rho=st.floats(0.0, 1.0), phi=st.floats(0.0, 2 * np.pi), psi=st.floats(0.0, 2 * np.pi))
def test_summed_identity_over_the_parameter_domain(family, shape, lam, mu, r, rho, phi, psi):
    # on params that bounds_for accepts and an admissible prefix (|p1| = 2r and
    # p2 in the disk |p2 - p1^2/2| <= 2 - |p1|^2/2), the kernel's outputs are
    # finite and a2^2 = phi1 (p2+q2) / D, with D from params.sum_denominator,
    # to 2^-48 of the terms' magnitudes plus 4 subnormal units of underflow
    cls, induce, _ = _ORACLES[family]
    try:
        params = cls(shape, lam, mu)
        bounds_for(params)
    except ValueError:
        assume(False)
    p1 = 2 * r * cmath.exp(1j * phi)
    p2 = p1 * p1 / 2 + rho * (2 - abs(p1) ** 2 / 2) * cmath.exp(1j * psi)
    a2, a3, q1, q2 = (v[0] for v in induce(np.array([p1]), np.array([p2]), params))
    assert all(map(np.isfinite, (a2, a3, q1, q2)))
    phi1, d = params.phi[0], params.sum_denominator
    scale = abs(a2) ** 2 + phi1 * (abs(p2) + abs(q2)) / d
    assert abs(a2 * a2 - phi1 * (p2 + q2) / d) <= 2.0 ** -48 * scale + 4 * math.ulp(0.0)


def test_params_state_their_class_shape():
    assert AlphaParams(0.5, 1, 0).family == "alpha"
    assert AlphaParams(0.5, 1, 0).phi == (0.5, -0.125)
    assert BetaParams(0.25, 1, 0).family == "beta"
    assert BetaParams(0.25, 1, 0).phi == (0.75, 0.0)


def _random_params(rng):
    ap = AlphaParams(rng.uniform(0.05, 1), rng.uniform(1, 3), rng.uniform(0, 4))
    bp = BetaParams(rng.uniform(0, 0.95), rng.uniform(1, 3), rng.uniform(0, 4))
    return ap, bp


def test_induce_lift_round_trip():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        p1 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        p2 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        ap, bp = _random_params(rng)

        a2, a3, q1, q2 = induce_q_alpha(p1, p2, ap)
        a2_sq, a3_back = _angular_lift(CoefficientTuple(p1, p2, q1, q2), ap)
        assert abs(a2_sq - a2 * a2) < 1e-9
        assert abs(a3_back - a3) < 1e-9

        a2, a3, q1, q2 = induce_q_beta(p1, p2, bp)
        out = lift(CoefficientTuple(p1, p2, q1, q2), bp)
        assert abs(out.a2sq_from_p1q1 - a2 * a2) < 1e-9
        assert abs(out.a2sq_from_p2q2 - a2 * a2) < 1e-9
        assert abs(out.a3_primary - a3) < 1e-9
        assert abs(out.a3_alternate - a3) < 1e-9


@pytest.mark.parametrize("family,shapes", [
    ("alpha", (1.0, 0.9, 0.5, 0.05)), ("beta", (0.0, 0.5, 0.8, 0.95)),
])
def test_lift_recovers_induced_tuples_on_every_route(family, shapes):
    # lam^2 > 2 lam + mu (lam = 5, mu = 0) is where the angular a2^2 denominator
    # differs most from (lam+mu)^2
    cls, induce, _ = _ORACLES[family]
    coeffs = _mixture_coeffs(*sample_batch(streams(5), 500, 3))
    for shape in shapes:
        for lam, mu in [(1.0, 0.0), (1.5, 0.5), (5.0, 0.0), (2.0, 3.0)]:
            params = cls(shape, lam, mu)
            for p1, p2 in coeffs.tolist():
                a2, a3, q1, q2 = induce(p1, p2, params)
                out = lift(CoefficientTuple(p1, p2, q1, q2), params)
                assert abs(out.a2sq_from_p1q1 - a2 * a2) < 1e-9
                assert abs(out.a2sq_from_p2q2 - a2 * a2) < 1e-9
                assert abs(out.a3_primary - a3) < 1e-9
                assert abs(out.a3_alternate - a3) < 1e-9


def test_first_coefficient_square_identity():
    # 2 (lam+mu)^2 a2^2 equals alpha^2 (p1^2 + q1^2) on induced data
    rng = np.random.default_rng(4)
    for _ in range(200):
        p1 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        p2 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        ap, _ = _random_params(rng)
        a2, _, q1, _ = induce_q_alpha(p1, p2, ap)
        lhs = 2 * (ap.lam + ap.mu) ** 2 * a2 * a2
        rhs = ap.alpha ** 2 * (p1 * p1 + q1 * q1)
        assert abs(lhs - rhs) < 1e-10


def test_lift_real_part_frozen_example():
    out = lift(CoefficientTuple(2, 2, -2, 4), BetaParams(0.0, 1, 1))
    assert out.a2sq_from_p1q1 == pytest.approx(1.0, abs=1e-15)
    assert out.a2sq_from_p2q2 == pytest.approx(1.0, abs=1e-15)
    assert out.a3_primary == pytest.approx(2 / 3, abs=1e-15)
    assert out.a3_alternate == pytest.approx(2 / 3, abs=1e-15)


def test_lift_real_part_zero_tuple():
    out = lift(CoefficientTuple(0, 0, 0, 0), BetaParams(0.3, 1.5, 2))
    assert (out.a2sq_from_p1q1, out.a2sq_from_p2q2) == (0, 0)
    assert (out.a3_primary, out.a3_alternate) == (0, 0)


def test_denominator_positive_on_dense_grid():
    alphas = np.linspace(1e-6, 1.0, 40).tolist()
    lams = np.linspace(1.0, 6.0, 40).tolist()
    mus = np.linspace(0.0, 6.0, 40).tolist()
    assert min(AlphaParams(a, l, m).sum_denominator
               for a in alphas for l in lams for m in mus) > 0
