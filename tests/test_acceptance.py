"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines live.
"""

import math
from fractions import Fraction

import numpy as np

from bicoef.bounds import COROLLARY_IDS, bounds_for, corollary_check
from bicoef.cli import main
from bicoef.harness import falsify
from bicoef.operators import (AlphaParams, BetaParams, CoefficientTuple,
                              apply_operator, induce_q_alpha, induce_q_beta,
                              lift, operator_coeffs_closed)
from bicoef.series import NormalizedFunction, inverse_coeffs_closed, revert


def _verdict(n: int, ok: bool, desc: str) -> None:
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {n} failed: {desc}"


def test_criterion_1_bound_evaluation():
    checks = []
    rep = bounds_for(AlphaParams(1, 1, 1))
    checks.append(abs(rep.a2_bound - math.sqrt(float(Fraction(2, 3)))) < 1e-12)
    checks.append(abs(rep.a3_bound - float(Fraction(5, 3))) < 1e-12)
    rep = bounds_for(AlphaParams(1, 1, 0))
    checks.append(abs(rep.a2_bound - math.sqrt(float(Fraction(2)))) < 1e-12)
    checks.append(abs(rep.a3_bound - float(Fraction(5))) < 1e-12)
    _verdict(1, all(checks),
             "closed-form bounds match the exact-rational oracle at the two "
             "pinned parameter points within 1e-12")


def test_criterion_2_corollary_reductions():
    ok = True
    for which in COROLLARY_IDS:
        rep = corollary_check(which)
        ok &= rep.passed and rep.points >= 50 and rep.max_deviation < 1e-12
    c4 = corollary_check("c4")
    c5 = corollary_check("c5")
    ok &= abs(c4.crossover_found - 1 / 3) < 1e-10
    ok &= abs(c5.crossover_found - 3 / 4) < 1e-10
    _verdict(2, ok,
             "all six corollary reductions hold to 1e-12 on >= 50-point "
             "grids; crossovers located at 1/3 and 3/4 within 1e-10")


def test_criterion_3_inverse_series_formula():
    rng = np.random.default_rng(1)
    ok = True
    for _ in range(1000):
        a = rng.uniform(-3, 3, 3) + 1j * rng.uniform(-3, 3, 3)
        got = revert(NormalizedFunction.from_tail(a)).series.coeffs[2:5]
        want = np.array(inverse_coeffs_closed(*a))
        ok &= bool(np.all(np.abs(got - want) < 1e-10))
    koebe = revert(NormalizedFunction.from_tail([2, 3, 4]))
    ok &= list(koebe.series.coeffs[2:5]) == [-2, 5, -14]
    _verdict(3, ok,
             "closed-form inverse coefficients match series reversion on "
             "1000 random inputs within 1e-10; Koebe prefix gives "
             "(-2, 5, -14) exactly")


def test_criterion_4_operator_identity():
    rng = np.random.default_rng(2)
    ok = True
    for i in range(1000):
        a2 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        a3 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        lam = rng.uniform(1, 4)
        mu = 1.0 if i % 4 == 0 else rng.uniform(0, 5)
        series = apply_operator(NormalizedFunction.from_tail([a2, a3]), lam, mu)
        l1, l2 = operator_coeffs_closed(a2, a3, lam, mu)
        ok &= abs(series[1] - l1) < 1e-10 and abs(series[2] - l2) < 1e-10
        if mu == 1.0:
            # quadratic term carries the factor (mu - 1): it must vanish
            ok &= l2 == (2 * lam + 1) * a3
    _verdict(4, ok,
             "closed operator coefficients match the brute-force series "
             "route on 1000 random draws within 1e-10, including the mu = 1 "
             "degeneration")


def test_criterion_5_falsification_dominance():
    lam_grid = (1.0, 2.0)
    mu_grid = (0.0, 0.5, 1.0, 3.0)
    seeds = (1, 2, 3, 4, 5)
    n = 100_000
    total = violations = 0
    for lam in lam_grid:
        for mu in mu_grid:
            for seed in seeds:
                for alpha in (0.25, 0.5, 1.0):
                    s = falsify(AlphaParams(alpha, lam, mu), n, seed)
                    total += 1
                    violations += len(s.violations)
                for beta in (0.0, 0.5, 0.9):
                    s = falsify(BetaParams(beta, lam, mu), n, seed)
                    total += 1
                    violations += len(s.violations)
    a2_sq = lift(CoefficientTuple(2, 2, 2, 2), AlphaParams(1, 1, 1)).a2sq_from_p2q2
    attained = math.sqrt(abs(a2_sq))
    bound = bounds_for(AlphaParams(1, 1, 1)).a2_bound
    exact_attainment = abs(attained - bound) < 1e-12
    _verdict(5, violations == 0 and exact_attainment,
             f"{total} campaigns x {n} samples: {violations} bound "
             "violations at 1e-9; the extremal tuple attains the |a2| bound "
             "within 1e-12")


def test_criterion_6_self_consistency():
    rng = np.random.default_rng(3)
    ok = True
    for _ in range(10_000):
        p1 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        p2 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        ap = AlphaParams(rng.uniform(0.05, 1), rng.uniform(1, 3), rng.uniform(0, 4))
        bp = BetaParams(rng.uniform(0, 0.95), rng.uniform(1, 3), rng.uniform(0, 4))
        for induce, params in ((induce_q_alpha, ap), (induce_q_beta, bp)):
            a2, a3, q1, q2 = induce(p1, p2, params)
            out = lift(CoefficientTuple(p1, p2, q1, q2), params)
            ok &= abs(out.a2sq_from_p1q1 - a2 * a2) < 1e-9
            ok &= abs(out.a2sq_from_p2q2 - a2 * a2) < 1e-9
            ok &= abs(out.a3_primary - a3) < 1e-9
            ok &= abs(out.a3_primary - out.a3_alternate) < 1e-9
    _verdict(6, ok,
             "induce -> lift round trips and the two a3 derivations agree "
             "within 1e-9 over 10^4 random draws in both families")


def test_criterion_7_determinism(tmp_path, capsys):
    paths = [tmp_path / "run1.csv", tmp_path / "run2.csv"]
    for p in paths:
        code = main(["falsify", "--family", "beta", "--beta", "0.5",
                     "--lambda", "1", "--mu", "1", "-n", "20000",
                     "--seed", "42", "--out", str(p)])
        assert code == 0
    capsys.readouterr()
    identical = paths[0].read_bytes() == paths[1].read_bytes()
    _verdict(7, identical,
             "repeated falsify runs with identical flags produce "
             "bitwise-identical CSV")
