"""Closed-form coefficient bounds for both classes, with branch bookkeeping.

Every arm is written in phi1, lam, mu and D = ``params.sum_denominator``, a
sum of non-negative terms (the paper's angular form of alpha D cancels for
large lam).  One case table, :func:`_cases`, picks the bounds from the arms:
the angular-opening class has single-expression bounds; the real-part class
bound is a min of two arms for |a2| and, for |a3|, a min of two arms below
mu = 1 and a single expression at and above it.  Reports record which arm or
case produced the value.

Corollary reductions (the classical special cases at mu = 1, lam = mu = 1 and
lam = 1, mu = 0) run the same table and expressions on ``Fraction`` params,
where they are exact rationals, against their classical closed forms; float
deviations are reported alongside.  ``fractions`` is imported by the two
functions that build those grids, so an import of bicoef does not load it.
"""

import math
import sys
from typing import NamedTuple

from .operators import AlphaParams, BetaParams

__all__ = [
    "BoundReport",
    "IdentityReport",
    "bounds_for",
    "corollary_check",
    "COROLLARY_IDS",
    "IDENTITY_TOL",
    "CROSSOVER_TOL",
]

IDENTITY_TOL = 1e-12
CROSSOVER_TOL = 1e-10

# branch tags
SINGLE = "single"
MIN_ARM_SQRT = "min-arm-sqrt"
MIN_ARM_LINEAR = "min-arm-linear"
MU_LT1_ARM1 = "mu-lt-1-min-arm-1"
MU_LT1_ARM2 = "mu-lt-1-min-arm-2"
MU_GE1 = "mu-ge-1"


class BoundReport(NamedTuple):
    """Upper bounds for |a2| and |a3| plus the branch that produced each."""

    a2_bound: float
    a3_bound: float
    a2_branch: str
    a3_branch: str


def _a3_sum(phi1, lam, mu):
    """4 phi1^2/(l+m)^2 + 2 phi1/(2l+m): the alpha |a3| bound, beta mu<1 arm 2.

    A float (lam+mu)**2 raises OverflowError once lam+mu exceeds about
    1.34e154.  The first term is then below 4 phi1 / (lam+mu) < 2^-500 times
    the second, so the float sum is the second term alone.
    """
    try:
        first = 4 * phi1 * phi1 / (lam + mu) ** 2
    except OverflowError:
        first = 0
    return first + 2 * phi1 / (2 * lam + mu)


def _arms(params):
    """4 phi1 / D and 2 phi1 / (lam+mu) in the number type of ``params``: the
    |a2| sqrt arm squared and the |a2| linear arm."""
    phi1 = params.phi[0]
    return 4 * phi1 / params.sum_denominator, 2 * phi1 / (params.lam + params.mu)


def _cases(params, sqrt_arm, linear_arm):
    """((|a2|, branch), (|a3|, branch)): the case table of the class of ``params``.

    The two |a2| arms come in the caller's form, both unsquared or both
    squared.  Angular class: the sqrt arm and the a3 sum.  Real-part class:
    the min of the |a2| arms; for |a3|, the min of 4 phi1 / D and the a3 sum
    below mu = 1 and 2 phi1 / (2 lam+mu) at and above it.  Ties go to the
    first-listed arm.  The a3 sum is evaluated only where used.  At lam =
    1e200 the real-part class has finite bounds at every mu, while the
    angular class's D, which squares lam+mu, overflows, and ``bounds_for``
    rejects its params.
    """
    phi1, lam, mu = params.phi[0], params.lam, params.mu
    if params.family == "alpha":
        return (sqrt_arm, SINGLE), (_a3_sum(phi1, lam, mu), SINGLE)
    a2 = (sqrt_arm, MIN_ARM_SQRT) if sqrt_arm <= linear_arm else (linear_arm, MIN_ARM_LINEAR)
    if mu >= 1:
        return a2, (2 * phi1 / (2 * lam + mu), MU_GE1)
    arm1, arm2 = 4 * phi1 / params.sum_denominator, _a3_sum(phi1, lam, mu)
    return a2, (arm1, MU_LT1_ARM1) if arm1 <= arm2 else (arm2, MU_LT1_ARM2)


def _bounds(params) -> BoundReport:
    """The case table on floats, the |a2| arms unsquared.

    phi1 / D is about alpha^2, so phi1 is scaled by 4^-k around the sqrt: no
    bit changes where 4 phi1 / D is normal, and alpha < 1e-154 cannot underflow.
    """
    phi1 = params.phi[0]
    k = math.frexp(phi1)[1] // 2
    sqrt_arm = math.ldexp(math.sqrt(4 * math.ldexp(phi1, -2 * k) / params.sum_denominator), k)
    (a2, a2_branch), (a3, a3_branch) = _cases(params, sqrt_arm, _arms(params)[1])
    return BoundReport(a2, a3, a2_branch, a3_branch)


def bounds_for(params: AlphaParams | BetaParams) -> BoundReport:
    """The bounds of the class that ``params`` belongs to, from ``phi`` and ``D``.

    Parameters under which a bound overflows, or falls below the smallest
    normal float, raise ValueError rather than yield a bound that is not a
    normal float: a subnormal bound has lost bits, enough to fake violations.
    """
    if not isinstance(params, (AlphaParams, BetaParams)):
        raise TypeError(f"expected AlphaParams or BetaParams, got {type(params).__name__}")
    try:
        rep = _bounds(params)
    except OverflowError:   # (lam+mu)**2
        rep = None
    if rep is None or not all(sys.float_info.min <= b < math.inf
                              for b in (rep.a2_bound, rep.a3_bound)):
        raise ValueError(f"{params.family} = {getattr(params, params.family)!r}, lambda = "
                         f"{params.lam!r} and mu = {params.mu!r} give bounds that are "
                         "not normal floats")
    return rep


# ---------------------------------------------------------------------------
# Corollary reductions.

class IdentityReport(NamedTuple):
    """Result of checking one corollary reduction against its classical form."""

    which: str
    passed: bool
    points: int
    max_deviation: float
    exact_identity: bool
    crossover_expected: float | None = None
    crossover_found: float | None = None
    crossover_error: float | None = None
    notes: tuple[str, ...] = ()


_MU_GE1_NOTE = ("the a3 case for mu >= 1 uses denominator 2*lam + mu; the "
                "variant with 2*lam + 1 coincides only at mu = 1")
_C5_A2_NOTE = ("the classical |a2| form is the sqrt arm of the min; the min "
               "switches to the linear arm for beta > 1/2, where it is tighter")

_SHAPE_POINTS = 101


def _shape_grid(family: str, n: int):
    """n points of the shape range as Fractions: (0, 1] for alpha, [0, 1) for beta."""
    from fractions import Fraction

    first = 1 if family == "alpha" else 0
    return tuple(Fraction(i, n) for i in range(first, first + n))


def _bisect_branch_switch(predicate, lo: float, hi: float) -> float | None:
    """Midpoint of the sign change of a boolean predicate on [lo, hi], or None
    where it does not switch from True to False there."""
    if not predicate(lo) or predicate(hi):
        return None
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if predicate(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _exact_forms(params) -> dict:
    """The general bounds of ``params`` by quantity, |a2| forms squared.

    The case table of :func:`_bounds` on the squared |a2| arms, in the number
    type of ``params``: on ``Fraction`` fields, the production table and
    expressions as exact rationals.
    """
    sq, linear = _arms(params)
    lin_sq = linear * linear
    (a2, _), (a3, _) = _cases(params, sq, lin_sq)
    return {"a2": a2, "a2-sqrt-arm": sq, "a2-linear-arm": lin_sq, "a3": a3}


def _float_forms(params) -> dict:
    """The same quantities in floats, |a2| unsquared (sqrt arm as in _bounds)."""
    rep = bounds_for(params)
    sq, linear = _arms(params)
    return {"a2": rep.a2_bound, "a3": rep.a3_bound,
            "a2-sqrt-arm": math.sqrt(sq), "a2-linear-arm": linear}


class _Corollary(NamedTuple):
    """A corollary: the general bounds at fixed parameters, and its classical forms.

    ``classical`` maps quantities of :func:`_exact_forms` to their classical
    closed forms in (shape, lam), |a2| squared; each must equal the general
    form exactly, and its float must match the production route.  ``lam`` and
    ``mu`` are ints, exact in the Fraction arithmetic of the shape grid;
    ``lam`` is None for a sweep over lam = 1, 5/4, ..., 11/4.  ``crossover``
    is (where the branch switches, as the nearest float, BoundReport branch
    field, tag below the switch).
    """

    params: type
    lam: int | None
    mu: int
    classical: dict
    crossover: tuple | None = None
    notes: tuple[str, ...] = ()


_COROLLARIES = {
    "c1": _Corollary(AlphaParams, None, 1, {
        "a2": lambda a, lam: 4 * a * a / ((lam + 1) ** 2 + a * (1 + 2 * lam - lam * lam)),
        "a3": lambda a, lam: 4 * a * a / (lam + 1) ** 2 + 2 * a / (2 * lam + 1)}),
    "c2": _Corollary(AlphaParams, 1, 1, {
        "a2": lambda a, lam: 2 * a * a / (a + 2),
        "a3": lambda a, lam: a * (3 * a + 2) / 3}),
    "c51": _Corollary(AlphaParams, 1, 0, {
        "a2": lambda a, lam: 4 * a * a / (1 + a),
        "a3": lambda a, lam: a * (4 * a + 1)}),
    "c3": _Corollary(BetaParams, None, 1, {
        "a2-sqrt-arm": lambda b, lam: 2 * (1 - b) / (2 * lam + 1),
        "a2-linear-arm": lambda b, lam: (2 * (1 - b) / (lam + 1)) ** 2,
        "a3": lambda b, lam: 2 * (1 - b) / (2 * lam + 1)},
        notes=(_MU_GE1_NOTE,)),
    "c4": _Corollary(BetaParams, 1, 1, {
        "a2": lambda b, lam: 2 * (1 - b) / 3 if 3 * b < 1 else (1 - b) ** 2,
        "a3": lambda b, lam: 2 * (1 - b) / 3},
        crossover=(1 / 3, "a2_branch", MIN_ARM_SQRT), notes=(_MU_GE1_NOTE,)),
    "c5": _Corollary(BetaParams, 1, 0, {
        "a2-sqrt-arm": lambda b, lam: 2 * (1 - b),
        "a3": lambda b, lam: 2 * (1 - b) if 4 * b < 3 else (1 - b) * (5 - 4 * b)},
        crossover=(3 / 4, "a3_branch", MU_LT1_ARM1), notes=(_C5_A2_NOTE,)),
}
COROLLARY_IDS = tuple(_COROLLARIES)


def corollary_check(which: str) -> IdentityReport:
    """Verify one corollary reduction on a grid of _SHAPE_POINTS shape values.

    PASS requires exact rational identity between the specialized general
    bounds and the corollary closed forms, float deviation below
    IDENTITY_TOL at every grid point, and (where a case table switches
    branches) the crossover located within CROSSOVER_TOL of its known value;
    a branch that never switches on the bracket is a crossover not found.
    """
    if which not in _COROLLARIES:
        raise ValueError(f"unknown corollary {which!r}; expected one of {COROLLARY_IDS}")
    from fractions import Fraction

    row = _COROLLARIES[which]
    lams = tuple(1 + Fraction(j, 4) for j in range(8)) if row.lam is None else (row.lam,)
    max_dev, pts, exact = 0.0, 0, True
    for s in _shape_grid(row.params.family, _SHAPE_POINTS):
        for lam in lams:
            pts += 1
            general = _exact_forms(row.params(s, lam, row.mu))
            floats = _float_forms(row.params(float(s), float(lam), float(row.mu)))
            for name, form in row.classical.items():
                classical = form(s, lam)
                exact &= general[name] == classical
                value = math.sqrt(classical) if name.startswith("a2") else float(classical)
                max_dev = max(max_dev, abs(floats[name] - value))
    passed = exact and max_dev < IDENTITY_TOL
    expected = found = err = None
    if row.crossover is not None:
        at, field, tag = row.crossover
        expected = at
        found = _bisect_branch_switch(
            lambda x: getattr(bounds_for(row.params(x, float(row.lam), float(row.mu))),
                              field) == tag, 0.0, 0.999)
        err = None if found is None else abs(found - expected)
        passed = passed and err is not None and err <= CROSSOVER_TOL
    return IdentityReport(which, passed, pts, max_dev, exact,
                          expected, found, err, row.notes)
