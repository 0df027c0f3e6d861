"""The class operator, membership grids, and the coefficient-equating systems.

The operator L[f] = (1-lam)*(f/z)^mu + lam*f'(z)*(f/z)^(mu-1) maps a
normalized function to a unit-constant series.  ``induce_q_*`` solves the
coefficient-equating system used to derive the bounds: (a2, a3) and the
second positive-real-part element from a given first one.  Both classes share
one system, written in the (phi1, phi2) that the params objects state, and one
grid membership test of the region ``phi(U)`` that they state as ``region``.

All scalar formulas are plain arithmetic, so they broadcast over numpy
arrays; the falsification harness relies on that.
"""

import math
import sys
from dataclasses import dataclass
from typing import ClassVar, NamedTuple

import numpy as np

from .series import NormalizedFunction, _mul, evaluate, pow_real, revert

__all__ = [
    "AlphaParams",
    "BetaParams",
    "CoefficientTuple",
    "MembershipGrid",
    "MembershipReport",
    "apply_operator",
    "membership",
    "induce_q_alpha",
    "induce_q_beta",
]

# bicoef's records: a class that checks its fields when built is a frozen
# dataclass (the params and the grid); a plain result record is a NamedTuple.
# At import, a NamedTuple of eight fields took 0.34 ms to build and a frozen
# dataclass 1.5 ms, most of it the methods it compiles (Python 3.11, Xeon).


class _ClassParams:
    """Checks and shape shared by the two classes.

    Both classes are ``L[f] = phi(p)`` for a positive-real-part ``p``, with
    ``L1 = phi1 p1`` and ``L2 = phi1 p2 + phi2 p1^2`` (the Ma-Minda form);
    ``phi`` is ``(phi1, phi2)``, ``sum_denominator`` is the ``D`` that every
    bound arm uses, and ``region`` is the region ``phi(U)`` that ``L[f]``
    must map into, as ``(test, threshold)``.
    ``family`` names the class and its shape field.  ``phi`` and ``D`` write
    int literals only: on ``Fraction`` fields they are exact rationals.
    """

    family: ClassVar[str]

    def __post_init__(self):
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        self._check_shape()
        if self.lam < 1.0:
            raise ValueError(f"lam must be >= 1, got {self.lam!r}")
        if self.mu < 0.0:
            raise ValueError(f"mu must be >= 0, got {self.mu!r}")

    @property
    def sum_denominator(self) -> float:
        """D = (mu+1)(2 lam+mu) - 2 phi2 (lam+mu)^2 / phi1^2 >= 2, as phi2 <= 0.

        The summed second-coefficient equations of f and its inverse give
        a2^2 = phi1 (p2+q2) / D.  The phi2 term is skipped when phi2 = 0: the
        real-part class's D needs no (lam+mu)**2, which would raise
        OverflowError once lam+mu exceeds about 1.34e154.
        """
        (phi1, phi2), lam, mu = self.phi, self.lam, self.mu
        d = (mu + 1) * (2 * lam + mu)
        return d - 2 * phi2 / phi1 * (lam + mu) ** 2 / phi1 if phi2 else d


@dataclass(frozen=True)
class AlphaParams(_ClassParams):
    """Parameters of the angular-opening class: 0 < alpha <= 1, lam >= 1, mu >= 0."""

    family: ClassVar[str] = "alpha"
    alpha: float
    lam: float
    mu: float

    def _check_shape(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha!r}")
        # a subnormal alpha rounds phi2, and D ~ (lam+mu)^2 / alpha overflows
        if self.alpha < sys.float_info.min:
            raise ValueError(f"alpha must be a normal float, at least "
                             f"{sys.float_info.min!r}, got {self.alpha!r}")

    @property
    def phi(self) -> tuple[float, float]:
        """L = p^alpha, so (phi1, phi2) = (alpha, alpha (alpha-1) / 2)."""
        a = self.alpha
        return a, a * (a - 1) / 2

    @property
    def region(self) -> tuple[str, float]:
        """The sector |arg w| < alpha pi/2."""
        return "arg", self.alpha * math.pi / 2.0


@dataclass(frozen=True)
class BetaParams(_ClassParams):
    """Parameters of the real-part class: 0 <= beta < 1, lam >= 1, mu >= 0."""

    family: ClassVar[str] = "beta"
    beta: float
    lam: float
    mu: float

    def _check_shape(self):
        if not 0.0 <= self.beta < 1.0:
            raise ValueError(f"beta must lie in [0, 1), got {self.beta!r}")

    @property
    def phi(self) -> tuple[float, float]:
        """L = beta + (1-beta) p, so (phi1, phi2) = (1-beta, 0)."""
        return 1 - self.beta, 0 * self.beta

    @property
    def region(self) -> tuple[str, float]:
        """The half-plane Re w > beta."""
        return "re", self.beta


class CoefficientTuple(NamedTuple):
    """First two coefficients of the paired positive-real-part elements."""

    p1: complex
    p2: complex
    q1: complex
    q2: complex


def apply_operator(f: NormalizedFunction, lam: float, mu: float) -> np.ndarray:
    """Coefficients of the operator series (1-lam)*(f/z)^mu + lam*f'*(f/z)^(mu-1).

    Computed as (f/z)^(mu-1) * ((1-lam)*f/z + lam*f'), one real power; with
    h = f/z the bracket is h_k (1 + lam k) term by term, which does not cancel
    at large lam.  f/z and f' are known only through order f.order - 1, the
    order of the returned array.  Its constant term is exactly 1.
    """
    h = f.coeffs[1:]
    return _mul(pow_real(h, mu - 1.0), h * (1.0 + lam * np.arange(f.order)))


@dataclass(frozen=True)
class MembershipGrid:
    """Evaluation grid for the disk: circles of the given radii."""

    radii: tuple[float, ...] = (0.5, 0.8, 0.9, 0.95)
    n_angles: int = 256
    tol: float = 1e-8

    def __post_init__(self):
        if not self.radii:
            raise ValueError("radii must not be empty")
        for r in self.radii:
            if not 0.0 <= r < 1.0:
                raise ValueError(f"radii must lie in [0, 1), got {r!r}")
        if self.n_angles < 1:
            raise ValueError(f"n_angles must be >= 1, got {self.n_angles!r}")
        if not (math.isfinite(self.tol) and self.tol >= 0.0):
            raise ValueError(f"tol must be finite and >= 0, got {self.tol!r}")

    def points(self) -> np.ndarray:
        ang = 2.0 * np.pi * np.arange(self.n_angles) / self.n_angles
        ring = np.exp(1j * ang)
        return np.concatenate([r * ring for r in self.radii])


class MembershipReport(NamedTuple):
    """Outcome of a grid membership check (a necessary condition only).

    ``worst_value`` is the largest |arg| (angular test) or the smallest real
    part (real-part test) over both the function and its reversion; a
    positive ``margin`` means the condition held with that much room.
    """

    passed: bool
    test: str               # "arg" or "re"
    threshold: float
    worst_value: float
    margin: float
    worst_point: complex
    worst_side: str         # "f" or "g"
    tol: float


def membership(f: NormalizedFunction, params: AlphaParams | BetaParams,
               grid: MembershipGrid | None = None) -> MembershipReport:
    """Grid test that L maps f and its reversion into ``params.region``.

    Works on truncations, so a PASS is necessary, not sufficient, for class
    membership; a FAIL is conclusive at the truncation level.  Raises
    OverflowError where an operator value on the grid is not finite.
    """
    grid = grid or MembershipGrid()
    test, threshold = params.region
    # score each value so that larger is worse: |arg w| for the sector,
    # -Re w for the half-plane
    sign = 1.0 if test == "arg" else -1.0
    pts = grid.points()
    worst = None
    for side, fn in (("f", f), ("g", revert(f))):
        values = evaluate(apply_operator(fn, params.lam, params.mu), pts)
        if not np.isfinite(values).all():
            raise OverflowError(f"operator values on side {side} are not finite")
        score = np.abs(np.angle(values)) if test == "arg" else -values.real
        i = int(np.argmax(score))
        if worst is None or score[i] > worst[0]:
            worst = (float(score[i]), complex(pts[i]), side)
    score, point, side = worst
    margin = sign * threshold - score
    return MembershipReport(margin > -grid.tol, test, threshold, sign * score,
                            margin, point, side, grid.tol)


def _induce_q(p1, p2, params):
    """Solve the coefficient system for (a2, a3, q1, q2) from (p1, p2).

    f's equations are (lam+mu) a2 = phi1 p1 and (2 lam+mu) a3 + (mu-1)
    (lam+mu/2) a2^2 = phi1 p2 + phi2 p1^2; those of the inverse, whose
    coefficients are -a2 and 2 a2^2 - a3, give q1 = -p1 and, added to f's,
    a2^2 = phi1 (p2+q2) / D.  With s = phi1 / (lam+mu), a2^2 = s^2 p1^2, so
    a3 = (phi1 p2 + (phi2 - (mu-1) (lam+mu/2) s^2) p1^2) / (2 lam+mu) and
    q2 = kappa p1^2 - p2 with kappa = phi1 D / (lam+mu)^2
    = (mu+1) (2 lam+mu) s / (lam+mu) - 2 phi2 / phi1.  phi2 enters only these
    two scalars, so both classes run the same array arithmetic, with no class
    branch.  The scalars' partial products stay below 2 (mu+1) and lam+mu,
    both at most D, so none overflows where ``bounds_for`` accepts the params.
    """
    (phi1, phi2), lam, mu = params.phi, params.lam, params.mu
    s = phi1 / (lam + mu)
    kappa = (mu + 1) * ((2 * lam + mu) / (lam + mu)) * s - 2 * phi2 / phi1
    p1sq = p1 * p1
    a3 = (phi1 * p2 + (phi2 - (mu - 1) * s * (lam + mu / 2) * s) * p1sq) / (2 * lam + mu)
    return phi1 * p1 / (lam + mu), a3, -p1, kappa * p1sq - p2


def induce_q_alpha(p1, p2, params: AlphaParams):
    """(a2, a3, q1, q2) of the angular class from (p1, p2).

    Scalar or broadcasting array inputs.
    """
    return _induce_q(p1, p2, params)


def induce_q_beta(p1, p2, params: BetaParams):
    """Real-part-class analogue of :func:`induce_q_alpha`."""
    return _induce_q(p1, p2, params)
