import hashlib
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from bicoef.bounds import COROLLARY_IDS, _exact_forms, bounds_for, corollary_check
from bicoef.operators import AlphaParams, BetaParams
from oracles import (a2sq_alpha_exact, a2sq_beta_arms_exact, a3_alpha_exact,
                     a3_beta_arms_exact)


# ------------------------------------------------------------- point values

def test_alpha_bounds_at_unit_params():
    rep = bounds_for(AlphaParams(1, 1, 1))
    assert abs(rep.a2_bound - math.sqrt(2 / 3)) < 1e-12
    assert abs(rep.a3_bound - 5 / 3) < 1e-12
    assert rep.a2_branch == rep.a3_branch == "single"


def test_alpha_bounds_at_starlike_specialization():
    rep = bounds_for(AlphaParams(1, 1, 0))
    assert abs(rep.a2_bound - math.sqrt(2)) < 1e-12
    assert abs(rep.a3_bound - 5.0) < 1e-12


def test_alpha_bounds_vanish_with_alpha():
    rep = bounds_for(AlphaParams(1e-9, 1, 1))
    assert rep.a2_bound < 1e-8 and rep.a3_bound < 1e-8


def test_beta_bounds_bistarlike_point():
    rep = bounds_for(BetaParams(0, 1, 0))
    assert abs(rep.a2_bound - math.sqrt(2)) < 1e-12
    assert rep.a2_branch == "min-arm-sqrt"
    assert abs(rep.a3_bound - 2.0) < 1e-12
    assert rep.a3_branch == "mu-lt-1-min-arm-1"


def test_beta_bounds_upper_branch_point():
    rep = bounds_for(BetaParams(7 / 8, 1, 0))
    assert abs(rep.a3_bound - 0.1875) < 1e-15
    assert rep.a3_branch == "mu-lt-1-min-arm-2"
    assert abs(rep.a3_bound - (1 - 7 / 8) * (5 - 4 * 7 / 8)) < 1e-15


def test_beta_bounds_vanish_as_beta_tends_to_one():
    rep = bounds_for(BetaParams(1 - 1e-9, 1, 1))
    assert rep.a2_bound < 1e-4 and rep.a3_bound < 1e-8


def test_beta_mu_case_assignment():
    assert bounds_for(BetaParams(0.2, 1, 1)).a3_branch == "mu-ge-1"
    assert bounds_for(BetaParams(0.2, 1, 2.5)).a3_branch == "mu-ge-1"
    assert bounds_for(BetaParams(0.2, 1, 0.99)).a3_branch.startswith("mu-lt-1")


def test_beta_ties_go_to_the_first_listed_arm():
    # lam = 1, mu = 0: both |a2| arms are 1 at beta = 1/2, both a3 arms 1/2 at 3/4
    rep = bounds_for(BetaParams(0.5, 1, 0))
    assert (rep.a2_bound, rep.a2_branch) == (1.0, "min-arm-sqrt")
    rep = bounds_for(BetaParams(0.75, 1, 0))
    assert (rep.a3_bound, rep.a3_branch) == (0.5, "mu-lt-1-min-arm-1")

def test_bounds_are_pure_and_reproducible():
    p = BetaParams(0.37, 1.4, 0.8)
    assert bounds_for(p) == bounds_for(p)
    q = AlphaParams(0.37, 1.4, 0.8)
    assert bounds_for(q) == bounds_for(q)


# sha256 of repr((bounds_for(p) or None where it raises, p.phi, p.sum_denominator))
# over the grid below, generated with 4.0, 2.0 and 1.0 written as float literals
GOLDEN_GRID = {AlphaParams: (1e-300, 1e-9, 0.1, 0.5, 0.999, 1.0),
               BetaParams: (0.0, 0.1, 0.5, 0.9, 0.999)}
GOLDEN_LAMS = (1.0, 1.5, 2.0, 1e3, 1e8, 1e16)
GOLDEN_MUS = (0.0, 0.2, 0.5, 1.0, 3.0, 1e3)
GOLDEN_SHA256 = "f3556e726b8ad0c2cafa9f91176afd6cafd481f6ef67c83536bef3df1a67e2d8"


def test_golden_digest_of_the_bounds():
    # int literals keep the float bits of the bounds, phi and D; the grid's
    # ValueErrors are alpha = 1e-300 from lam = 1e8 on, where D overflows
    items = []
    for P, shapes in GOLDEN_GRID.items():
        for s in shapes:
            for lam in GOLDEN_LAMS:
                for mu in GOLDEN_MUS:
                    p = P(s, lam, mu)
                    try:
                        rep = bounds_for(p)
                    except ValueError:
                        rep = None
                    items.append((rep, p.phi, p.sum_denominator))
    assert len(items) == 396 and sum(rep is None for rep, _, _ in items) == 12
    assert hashlib.sha256(repr(items).encode()).hexdigest() == GOLDEN_SHA256


# ------------------------------------------------------------ exact oracles

def test_float_paths_match_exact_rational_oracle():
    rng = np.random.default_rng(0)
    for _ in range(100):
        a = Fraction(int(rng.integers(1, 64)), 64)
        b = Fraction(int(rng.integers(0, 63)), 64)
        lam = 1 + Fraction(int(rng.integers(0, 16)), 8)
        mu = Fraction(int(rng.integers(0, 32)), 8)
        ra = bounds_for(AlphaParams(float(a), float(lam), float(mu)))
        assert abs(ra.a2_bound ** 2 - float(a2sq_alpha_exact(a, lam, mu))) < 1e-12
        assert abs(ra.a3_bound - float(a3_alpha_exact(a, lam, mu))) < 1e-12
        rb = bounds_for(BetaParams(float(b), float(lam), float(mu)))
        sq, lin_sq = a2sq_beta_arms_exact(b, lam, mu)
        assert abs(rb.a2_bound ** 2 - float(min(sq, lin_sq))) < 1e-12
        arm1, arm2, ge1 = a3_beta_arms_exact(b, lam, mu)
        want = ge1 if mu >= 1 else min(arm1, arm2)
        assert abs(rb.a3_bound - float(want)) < 1e-12

    # large lam, where the paper's angular denominator (lam+mu)^2 +
    # alpha (mu + 2 lam - lam^2) cancels: within 1e-15 relative
    for lam in (1e3, 1e8, 1e16):
        for a, b in zip((1.0, 0.999, 0.9, 0.5, 0.01), (0.0, 0.001, 0.1, 0.5, 0.99)):
            for mu in (0.0, 0.5, 1.0, 3.0):
                fa, fb, fl, fm = (Fraction(x) for x in (a, b, lam, mu))
                ra = bounds_for(AlphaParams(a, lam, mu))
                rb = bounds_for(BetaParams(b, lam, mu))
                arm1, arm2, ge1 = a3_beta_arms_exact(fb, fl, fm)
                for got, want in [
                        (ra.a2_bound, math.sqrt(a2sq_alpha_exact(fa, fl, fm))),
                        (ra.a3_bound, float(a3_alpha_exact(fa, fl, fm))),
                        (rb.a2_bound, math.sqrt(min(a2sq_beta_arms_exact(fb, fl, fm)))),
                        (rb.a3_bound, float(ge1 if mu >= 1 else min(arm1, arm2)))]:
                    assert abs(got - want) <= 1e-15 * want, (a, b, lam, mu, got, want)



def _log_uniform(lo: float, hi: float):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)


_LAMS = _log_uniform(1.0, 1e308)
_MUS = st.sampled_from((0.0, 1.0)) | _log_uniform(1e-300, 1e308)


@given(st.sampled_from((AlphaParams, BetaParams)),
       st.floats(sys.float_info.min, 1.0), st.floats(0.0, 0.9999999999999999), _LAMS, _MUS)
# the real-part class with |a2| bounds below the smallest normal float, where
# a subnormal reads 2.2e-323 as 2e-323 and campaigns fake violations
@example(BetaParams, 1.0, 0.9999999999999999, 1e307, 0.0)
@example(BetaParams, 1.0, 0.9999999999999999, 5e305, 0.0)
@example(BetaParams, 1.0, 0.9999999999999999, 1e306, 0.0)
def test_accepted_bounds_are_normal_and_match_the_exact_oracle(cls, alpha, beta, lam, mu):
    # bounds_for refuses the params, or both bounds are normal floats within
    # 1e-15 of the exact rationals (|a2| through its square, at 2e-15)
    shape = alpha if cls is AlphaParams else beta
    try:
        rep = bounds_for(cls(shape, lam, mu))
    except ValueError:
        return
    assert rep.a2_bound >= sys.float_info.min and rep.a3_bound >= sys.float_info.min
    s, fl, fm = Fraction(shape), Fraction(lam), Fraction(mu)
    if cls is AlphaParams:
        a2sq, a3 = a2sq_alpha_exact(s, fl, fm), a3_alpha_exact(s, fl, fm)
    else:
        arm1, arm2, ge1 = a3_beta_arms_exact(s, fl, fm)
        a2sq, a3 = min(a2sq_beta_arms_exact(s, fl, fm)), ge1 if mu >= 1 else min(arm1, arm2)
    assert abs(Fraction(rep.a2_bound) ** 2 / a2sq - 1) <= 2e-15, (rep, a2sq)
    assert abs(Fraction(rep.a3_bound) / a3 - 1) <= 1e-15, (rep, a3)


_EXACT_LAMS = (Fraction(1), Fraction(7, 4), Fraction(10) ** 20)


@pytest.mark.parametrize("mu", [Fraction(0), Fraction(1, 3), Fraction(999, 1000),
                                Fraction(1), Fraction(5, 2)])
def test_phi_d_forms_equal_the_paper_forms_exactly(mu):
    # on Fraction params, the production expressions in phi and D against the
    # paper's per-class forms: equal as rationals, not to a tolerance
    for a in (Fraction(1e-300), Fraction(1, 7), Fraction(1, 2), Fraction(0.999), Fraction(1)):
        for lam in _EXACT_LAMS:
            forms = _exact_forms(AlphaParams(a, lam, mu))
            assert all(type(v) is Fraction for v in forms.values())
            sq = a2sq_alpha_exact(a, lam, mu)
            assert forms == {"a2": sq, "a2-sqrt-arm": sq, "a2-linear-arm": (2 * a / (lam + mu)) ** 2,
                             "a3": a3_alpha_exact(a, lam, mu)}
    for b in (Fraction(0), Fraction(1, 7), Fraction(1, 2), Fraction(3, 4), Fraction(0.999)):
        for lam in _EXACT_LAMS:
            forms = _exact_forms(BetaParams(b, lam, mu))
            assert all(type(v) is Fraction for v in forms.values())
            sq, lin_sq = a2sq_beta_arms_exact(b, lam, mu)
            arm1, arm2, ge1 = a3_beta_arms_exact(b, lam, mu)
            assert forms == {"a2": min(sq, lin_sq), "a2-sqrt-arm": sq, "a2-linear-arm": lin_sq,
                             "a3": ge1 if mu >= 1 else min(arm1, arm2)}


@pytest.mark.parametrize("alpha", [1e-150, 1e-160, 1e-200, 1e-300])
def test_tiny_alpha_bounds_match_exact_rational_oracle(alpha):
    # |a2|^2 is about alpha^2 here, below the smallest normal float
    for lam, mu in [(1.0, 1.0), (1.0, 0.0), (3.0, 0.5)]:
        fa, fl, fm = Fraction(alpha), Fraction(lam), Fraction(mu)
        rep = bounds_for(AlphaParams(alpha, lam, mu))
        for got, exact in [(Fraction(rep.a2_bound) ** 2, a2sq_alpha_exact(fa, fl, fm)),
                           (rep.a3_bound, a3_alpha_exact(fa, fl, fm))]:
            assert abs(Fraction(got) / exact - 1) <= 1e-15

# ------------------------------------------------------ corollary reductions

@pytest.mark.parametrize("which", COROLLARY_IDS)
def test_corollary_reductions_pass(which):
    rep = corollary_check(which)
    assert rep.passed, rep
    assert rep.points >= 50
    assert rep.max_deviation < 1e-12
    assert rep.exact_identity


def test_corollary_crossovers():
    c4 = corollary_check("c4")
    assert c4.crossover_expected == pytest.approx(1 / 3)
    assert abs(c4.crossover_found - 1 / 3) < 1e-10
    c5 = corollary_check("c5")
    assert c5.crossover_expected == 0.75
    assert abs(c5.crossover_found - 0.75) < 1e-10


def test_corollary_check_unknown_id():
    with pytest.raises(ValueError):
        corollary_check("c9")


def test_mu_ge1_case_notes_surface_denominator_variant():
    assert any("2*lam + mu" in n for n in corollary_check("c3").notes)
    assert any("2*lam + mu" in n for n in corollary_check("c4").notes)


def test_c5_note_explains_sqrt_arm_comparison():
    assert any("sqrt arm" in n for n in corollary_check("c5").notes)


# ---------------------------------------------------------------- invariants

def test_mu_ge1_value_never_exceeds_unminimized_expression():
    for b in np.linspace(0, 0.99, 25):
        for lam in np.linspace(1, 3, 9):
            for mu in np.linspace(1, 5, 17):
                rep = bounds_for(BetaParams(b, lam, mu))
                loose = 4 * (1 - b) ** 2 / (lam + mu) ** 2 + 2 * (1 - b) / (2 * lam + mu)
                assert rep.a3_bound <= loose + 1e-14


def test_a3_continuity_across_mu_seam():
    for b in (0.0, 0.4, 0.9):
        for lam in (1.0, 2.0):
            below = bounds_for(BetaParams(b, lam, 1 - 1e-9)).a3_bound
            at = bounds_for(BetaParams(b, lam, 1.0)).a3_bound
            assert abs(below - at) < 1e-7


def test_bounds_continuous_on_dense_grid():
    # branch switches change the tag, never jump the value
    betas = np.linspace(0, 0.999, 2000)
    for lam, mu in [(1.0, 0.0), (1.0, 0.5), (2.0, 0.25)]:
        vals = np.array([bounds_for(BetaParams(float(b), lam, mu)).a2_bound
                         for b in betas])
        step = betas[1] - betas[0]
        assert np.abs(np.diff(vals)).max() < 50 * step
        vals3 = np.array([bounds_for(BetaParams(float(b), lam, mu)).a3_bound
                          for b in betas])
        assert np.abs(np.diff(vals3)).max() < 50 * step


def test_alpha_bounds_continuous_in_alpha():
    alphas = np.linspace(1e-4, 1.0, 2000)
    vals = np.array([bounds_for(AlphaParams(float(a), 2.0, 0.5)).a2_bound
                     for a in alphas])
    step = alphas[1] - alphas[0]
    assert np.abs(np.diff(vals)).max() < 50 * step
