"""Truncated complex power series as coefficient arrays: real powers, reversion.

A series c_0 + c_1 z + ... + c_N z^N is its complex coefficient array of
length N + 1; coefficients beyond index N are unknown, never zero.  Every
product in the package has operands of equal order and keeps that order.
Real powers run J. C. P. Miller's coefficient recurrence (Knuth, TAOCP
vol. 2, section 4.7), and reversion is Lagrange inversion through one
real power.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "NormalizedFunction",
    "pow_real",
    "evaluate",
    "revert",
    "inverse_coeffs_closed",
]


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of two series of equal order, truncated to that order."""
    return np.convolve(a, b)[:len(a)]


def pow_real(c, exponent: float) -> np.ndarray:
    """Principal-branch real power of a series with constant term exactly 1.

    Miller's recurrence for a = c^p, p = exponent: a_0 = 1 and
    k a_k = sum_{j=1..k} ((p+1) j - k) c_j a_{k-j}, one dot product per k,
    so non-integer exponents cost the same as integer ones.
    """
    c = np.asarray(c, dtype=complex)
    if c[0] != 1:
        raise ValueError("pow_real requires constant term exactly 1")
    out = np.zeros_like(c)
    out[0] = 1.0
    pj = (exponent + 1) * np.arange(1, c.size)   # (p+1) j
    for k in range(1, c.size):
        out[k] = np.dot((pj[:k] - k) * c[1:k + 1], out[k - 1::-1]) / k
    return out


def evaluate(c, z):
    """Horner evaluation of the truncated polynomial c at finite |z| < 1.

    Accepts a scalar or an ndarray of points; shape is preserved.
    """
    zs = np.asarray(z, dtype=complex)
    if not np.all(np.abs(zs) < 1):
        raise ValueError("evaluation points must be finite with |z| < 1")
    acc = np.full_like(zs, c[-1])
    for ck in c[-2::-1]:
        acc = acc * zs + ck
    return complex(acc) if acc.ndim == 0 else acc


class NormalizedFunction:
    """A series with c_0 = 0 and c_1 = 1 exactly (disk-normalized function).

    Holds its coefficients as a read-only array.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs):
        c = np.array(coeffs, dtype=complex)
        if c.ndim != 1 or c.size < 2:
            raise ValueError("normalized function needs a 1-D sequence of order >= 1")
        if c[0] != 0 or c[1] != 1:
            raise ValueError("normalization requires c_0 = 0 and c_1 = 1 exactly")
        c.flags.writeable = False
        self._c = c

    @property
    def coeffs(self) -> np.ndarray:
        """Read-only coefficient vector c_0..c_N."""
        return self._c

    @property
    def order(self) -> int:
        return self._c.size - 1

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
        c[2 : 2 + tail.size] = tail[: n - 1]
        return cls(c)


def revert(f: NormalizedFunction) -> NormalizedFunction:
    """Compositional inverse g of f, with f(g(w)) = w through order N.

    Lagrange inversion: with h = z/f, g_k = [z^(k-1)] h^k / k.  h is one
    pow_real(-1) of f/z, and each power h^k is the previous one times h.
    """
    h = pow_real(f.coeffs[1:], -1.0)
    g = np.zeros(f.order + 1, dtype=complex)
    g[1] = 1.0
    hk = h
    for k in range(2, f.order + 1):
        hk = _mul(hk, h)
        g[k] = hk[k - 1] / k
    return NormalizedFunction(g)


def inverse_coeffs_closed(a2: complex, a3: complex, a4: complex):
    """Closed-form coefficients 2..4 of the compositional inverse.

    Equals the corresponding output of :func:`revert` for any normalized
    series with leading tail (a2, a3, a4).
    """
    b2 = -a2
    b3 = 2 * a2 * a2 - a3
    b4 = -(5 * a2**3 - 5 * a2 * a3 + a4)
    return b2, b3, b4
