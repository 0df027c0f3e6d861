"""Truncated complex power series: ring arithmetic, real powers, reversion.

A series is known only through its truncation order N; coefficients beyond
index N are treated as unknown, never as zero.  Every binary operation
truncates its result to the smaller operand order.  Real powers run the
log/exp coefficient recurrences, and reversion is Lagrange inversion on them.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "TruncatedSeries",
    "NormalizedFunction",
    "revert",
    "inverse_coeffs_closed",
]


class TruncatedSeries:
    """Power series c_0 + c_1 z + ... + c_N z^N known through order N.

    Immutable value type: the coefficient array is read-only and all
    operations return fresh instances.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs):
        c = np.array(coeffs, dtype=complex)
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coefficients must form a non-empty 1-D sequence")
        c.flags.writeable = False
        self._c = c

    @property
    def coeffs(self) -> np.ndarray:
        """Read-only coefficient vector c_0..c_N."""
        return self._c

    @property
    def order(self) -> int:
        return self._c.size - 1

    def __getitem__(self, k: int) -> complex:
        return complex(self._c[k])

    def __repr__(self) -> str:
        return f"TruncatedSeries({list(self._c)})"

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = min(self.order, other.order) + 1
        return TruncatedSeries(self._c[:n] + other._c[:n])

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            n = min(self.order, other.order) + 1
            return TruncatedSeries(np.convolve(self._c[:n], other._c[:n])[:n])
        return TruncatedSeries(self._c * complex(other))

    __rmul__ = __mul__

    def derivative(self) -> "TruncatedSeries":
        """Term-by-term derivative: c_k -> k*c_k, shifted down one degree."""
        if self.order == 0:
            return TruncatedSeries([0.0])
        k = np.arange(1, self.order + 1)
        return TruncatedSeries(self._c[1:] * k)

    def shift_down(self) -> "TruncatedSeries":
        """Divide by z, requiring c_0 = 0; the result has order N-1."""
        if self._c[0] != 0:
            raise ValueError("cannot divide by z: constant term is nonzero")
        if self.order == 0:
            raise ValueError("cannot divide by z: order 0")
        return TruncatedSeries(self._c[1:])

    def pow_real(self, exponent: float) -> "TruncatedSeries":
        """Principal-branch real power of a unit-constant series.

        Computed as exp(exponent * log(self)) via the standard coefficient
        recurrences, so non-integer exponents cost the same as integer ones.
        Requires c_0 = 1 exactly.
        """
        if self._c[0] != 1:
            raise ValueError("pow_real requires constant term exactly 1")
        return TruncatedSeries(_exp_coeffs(exponent * _log_coeffs(self._c)))

    def evaluate(self, z):
        """Horner evaluation of the truncated polynomial at |z| < 1.

        Accepts a scalar or an ndarray of points; shape is preserved.
        """
        zs = np.asarray(z, dtype=complex)
        if np.any(np.abs(zs) >= 1):
            raise ValueError("evaluation points must satisfy |z| < 1")
        acc = np.full_like(zs, self._c[-1])
        for ck in self._c[-2::-1]:
            acc = acc * zs + ck
        return complex(acc) if acc.ndim == 0 else acc


def _log_coeffs(c: np.ndarray) -> np.ndarray:
    """log of a series with c_0 = 1, via k*L_k = k*c_k - sum j*L_j*c_{k-j}."""
    out = np.zeros_like(c)
    for k in range(1, c.size):
        acc = k * c[k]
        for j in range(1, k):
            acc -= j * out[j] * c[k - j]
        out[k] = acc / k
    return out


def _exp_coeffs(h: np.ndarray) -> np.ndarray:
    """exp of a series with h_0 = 0, via k*E_k = sum j*h_j*E_{k-j}."""
    out = np.zeros_like(h)
    out[0] = 1.0
    for k in range(1, h.size):
        acc = 0.0
        for j in range(1, k + 1):
            acc += j * h[j] * out[k - j]
        out[k] = acc / k
    return out


class NormalizedFunction:
    """A series with c_0 = 0 and c_1 = 1 exactly (disk-normalized function)."""

    __slots__ = ("_s",)

    def __init__(self, series):
        if not isinstance(series, TruncatedSeries):
            series = TruncatedSeries(series)
        if series.order < 1:
            raise ValueError("normalized function needs order >= 1")
        if series.coeffs[0] != 0 or series.coeffs[1] != 1:
            raise ValueError("normalization requires c_0 = 0 and c_1 = 1 exactly")
        self._s = series

    @property
    def series(self) -> TruncatedSeries:
        return self._s

    @property
    def order(self) -> int:
        return self._s.order

    @classmethod
    def from_tail(cls, tail, order: int | None = None) -> "NormalizedFunction":
        """Build z + a_2 z^2 + a_3 z^3 + ... from the tail (a_2, a_3, ...).

        The result is truncated at ``order`` (default: the tail's length + 1),
        which must be >= 1.
        """
        tail = np.asarray(tail, dtype=complex)
        n = tail.size + 1 if order is None else order
        if n < 1:
            raise ValueError(f"order must be >= 1, got {n}")
        c = np.zeros(n + 1, dtype=complex)
        c[1] = 1.0
        m = min(tail.size, n - 1)
        c[2 : 2 + m] = tail[:m]
        return cls(TruncatedSeries(c))

    def __repr__(self) -> str:
        return f"NormalizedFunction({list(self._s.coeffs)})"


def revert(f: NormalizedFunction) -> NormalizedFunction:
    """Compositional inverse g of f, with f(g(w)) = w through order N.

    Lagrange inversion: with h = z/f, g_k = [z^(k-1)] h^k / k.  h is one
    pow_real(-1) and each power h^k is the previous one times h.
    """
    h = f.series.shift_down().pow_real(-1.0)
    g = np.zeros(f.order + 1, dtype=complex)
    g[1] = 1.0
    hk = h
    for k in range(2, f.order + 1):
        hk = hk * h
        g[k] = hk.coeffs[k - 1] / k
    return NormalizedFunction(TruncatedSeries(g))


def inverse_coeffs_closed(a2: complex, a3: complex, a4: complex):
    """Closed-form coefficients 2..4 of the compositional inverse.

    Equals the corresponding output of :func:`revert` for any normalized
    series with leading tail (a2, a3, a4).
    """
    b2 = -a2
    b3 = 2 * a2 * a2 - a3
    b4 = -(5 * a2**3 - 5 * a2 * a3 + a4)
    return b2, b3, b4
