"""Oracles the tests hold the package to; nothing in ``bicoef`` uses them.

* :func:`toeplitz_moment_matrix`, whose smallest ``eigvalsh`` eigenvalue
  decides admissibility by definition: the K=2 closed form of
  ``caratheodory.admissibility_mask_k2`` must agree with it.
* :func:`operator_coeffs_closed`, the operator's first two coefficients in
  closed form, against the series route of ``operators.apply_operator``.
* :func:`lift`, the inverse of ``operators.induce_q_*``: it recovers ``a2^2``
  and ``a3`` from a full coefficient tuple, by two routes each.
* :func:`compose` and :func:`revert_by_composition`, series composition and
  reversion solved coefficient by coefficient through it, against the
  Lagrange inversion of ``series.revert``.
* :func:`operator_by_two_powers`, the operator series with one real power per
  term, against the single-power form of ``operators.apply_operator``.
* :func:`csv_lines_row_by_row`, the campaign CSV formatted one f-string per
  row, against the column-by-column rows that ``CampaignSummary.write_csv``
  formats from the kernel's chunks of its ranges.
* :func:`a2sq_alpha_exact`, :func:`a3_alpha_exact`,
  :func:`a2sq_beta_arms_exact` and :func:`a3_beta_arms_exact`, the bounds in
  the paper's own per-class forms, against ``bounds.bounds_for`` and, on
  exact rationals, against ``bounds._exact_forms``: the production case table
  of both classes on the phi/D arms, every |a2| arm included.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from bicoef.harness import CSV_HEADER, _campaign_chunks
from bicoef.operators import AlphaParams, BetaParams, CoefficientTuple
from bicoef.series import NormalizedFunction, pow_real

CONSISTENCY_TOL = 1e-9


def toeplitz_moment_matrix(c) -> np.ndarray:
    """Hermitian (K+1)x(K+1) moment matrix of the prefix c_1..c_K.

    Unit diagonal, entry (i, j) = c_{j-i}/2 above it, conjugates below.
    Positive semidefiniteness characterizes admissible prefixes.
    """
    c = np.asarray(c, dtype=complex)
    k = c.size
    m = np.eye(k + 1, dtype=complex)
    for d in range(1, k + 1):
        for i in range(k + 1 - d):
            m[i, i + d] = c[d - 1] / 2.0
            m[i + d, i] = np.conj(c[d - 1]) / 2.0
    return m


def operator_coeffs_closed(a2, a3, lam, mu):
    """Closed forms of the operator's first two coefficients.

    l1 = (lam+mu)*a2 and l2 = (2*lam+mu)*a3 + (mu-1)*(lam+mu/2)*a2^2; matches
    the series route of ``apply_operator`` coefficient by coefficient.
    """
    l1 = (lam + mu) * a2
    l2 = (2.0 * lam + mu) * a3 + (mu - 1.0) * (lam + mu / 2.0) * a2 * a2
    return l1, l2


def _mul(a, b):
    """Product of two coefficient arrays of equal length, truncated to it."""
    return np.convolve(a, b)[:len(a)]


def operator_by_two_powers(f: NormalizedFunction, lam, mu) -> np.ndarray:
    """(1-lam) h^mu + lam f' h^(mu-1) with h = f/z, each power taken apart."""
    h = f.coeffs[1:]
    df = h * np.arange(1, h.size + 1)
    return (1.0 - lam) * pow_real(h, mu) + lam * _mul(df, pow_real(h, mu - 1.0))


def compose(outer, inner) -> np.ndarray:
    """outer(inner(z)) truncated to the smaller operand order, by Horner.

    Both are coefficient arrays.  The inner series must have zero constant
    term, otherwise the truncated composition would depend on unknown
    coefficients of ``outer``.
    """
    if inner[0] != 0:
        raise ValueError("inner series must have zero constant term")
    n = min(len(outer), len(inner))
    oc = outer[:n]
    acc = np.full(n, oc[-1])
    for ck in oc[-2::-1]:
        acc = _mul(acc, inner[:n])
        acc[0] += ck
    return acc


def revert_by_composition(f: NormalizedFunction) -> NormalizedFunction:
    """Compositional inverse of f, solved coefficient by coefficient.

    With g known through degree k-1 and g_k set to zero, the degree-k
    coefficient of f(g) equals g_k plus known terms, so the correction is
    its negation.
    """
    n = f.order
    g = np.zeros(n + 1, dtype=complex)
    g[1] = 1.0
    for k in range(2, n + 1):
        g[k] = -compose(f.coeffs[: k + 1], g[: k + 1])[k]
    return NormalizedFunction(g)


def _check_first_coeff_consistency(p1, q1):
    # The coefficient systems force q1 = -p1; everything downstream uses only
    # the squares, so the sign-mirrored tuple is accepted as well.
    if abs(p1 * p1 - q1 * q1) > CONSISTENCY_TOL:
        raise ValueError(f"inconsistent tuple: p1^2 != q1^2 ({p1!r}, {q1!r})")


@dataclass(frozen=True)
class Lift:
    """Functionals of a tuple, from the equations L[f] = phi(p), L[g] = phi(q).

    The two a2^2 candidates come from the first-coefficient equations and
    from the sum of the second-coefficient equations; each a3 route adds
    phi1 (p2-q2) / (2 (2 lam+mu)), from their difference, to its a2^2.  For
    tuples produced by ``induce_q_*`` all four agree pairwise.
    """

    a2sq_from_p1q1: complex
    a2sq_from_p2q2: complex
    a3_primary: complex
    a3_alternate: complex


def lift(t: CoefficientTuple, params: AlphaParams | BetaParams) -> Lift:
    """The :class:`Lift` of a coefficient tuple for the class of ``params``.

    a2^2 = phi1^2 (p1^2+q1^2) / (2 (lam+mu)^2) or phi1 (p2+q2) / D with
    D = ``params.sum_denominator``.
    """
    _check_first_coeff_consistency(t.p1, t.q1)
    phi1, lam, mu = params.phi[0], params.lam, params.mu
    sq_1 = phi1 * phi1 * (t.p1 * t.p1 + t.q1 * t.q1) / (2.0 * (lam + mu) ** 2)
    sq_2 = phi1 * (t.p2 + t.q2) / params.sum_denominator
    half_diff = phi1 * (t.p2 - t.q2) / (2.0 * (2.0 * lam + mu))
    return Lift(sq_1, sq_2, sq_1 + half_diff, sq_2 + half_diff)


def csv_lines_row_by_row(summary):
    """The header and the rows of the CSV that ``summary.write_csv`` writes,
    without their newlines.

    Each row is one f-string that writes the column order out, with the
    filter reason and the admissible flag read from the masks row by row.
    """
    yield ",".join(CSV_HEADER)
    params, bounds = summary.params, summary.bounds
    fam = params.family
    alpha = repr(params.alpha) if fam == "alpha" else ""
    beta = repr(params.beta) if fam == "beta" else ""
    prefix = f"{fam},{summary.seed},"
    mid = f",{alpha},{beta},{params.lam!r},{params.mu!r},"
    b2, b3 = repr(bounds.a2_bound), repr(bounds.a3_bound)
    for first, a in _campaign_chunks(params, bounds, summary.n_samples, summary.seed,
                                     summary.filter_mode, summary.atom_count):
        p1, p2, q1, q2 = (a[k].tolist() for k in ("p1", "p2", "q1", "q2"))
        a2a, a3a = a["a2_abs"].tolist(), a["a3_abs"].tolist()
        m2, m3 = a["a2_margin"].tolist(), a["a3_margin"].tolist()
        adm = a["admissible"].tolist()
        fmod, ftoe = a["fail_modulus"].tolist(), a["fail_toeplitz"].tolist()
        for i in range(len(adm)):
            reason = "modulus" if fmod[i] else "toeplitz" if ftoe[i] else ""
            yield (f"{prefix}{first + i}{mid}"
                   f"{p1[i].real!r},{p1[i].imag!r},{p2[i].real!r},{p2[i].imag!r},"
                   f"{q1[i].real!r},{q1[i].imag!r},{q2[i].real!r},{q2[i].imag!r},"
                   f"{'true' if adm[i] else 'false'},{reason},"
                   f"{a2a[i]!r},{a3a[i]!r},{b2},{b3},{m2[i]!r},{m3[i]!r}")


def a2sq_alpha_exact(a: Fraction, lam: Fraction, mu: Fraction) -> Fraction:
    return 4 * a * a / ((lam + mu) ** 2 + a * (mu + 2 * lam - lam * lam))


def a3_alpha_exact(a: Fraction, lam: Fraction, mu: Fraction) -> Fraction:
    return 4 * a * a / (lam + mu) ** 2 + 2 * a / (2 * lam + mu)


def a2sq_beta_arms_exact(b: Fraction, lam: Fraction, mu: Fraction):
    """Squares of both |a2| arms (sqrt arm first)."""
    sqrt_arm_sq = 4 * (1 - b) / ((mu + 1) * (2 * lam + mu))
    lin_arm_sq = (2 * (1 - b) / (lam + mu)) ** 2
    return sqrt_arm_sq, lin_arm_sq


def a3_beta_arms_exact(b: Fraction, lam: Fraction, mu: Fraction):
    """(mu<1 arm 1, mu<1 arm 2, mu>=1 value) as exact rationals."""
    arm1 = 4 * (1 - b) / ((mu + 1) * (2 * lam + mu))
    arm2 = 4 * (1 - b) ** 2 / (lam + mu) ** 2 + 2 * (1 - b) / (2 * lam + mu)
    ge1 = 2 * (1 - b) / (2 * lam + mu)
    return arm1, arm2, ge1
