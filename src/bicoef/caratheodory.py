"""Positive-real-part (Caratheodory) elements from finite Herglotz atom mixtures.

Every element built here is a convex combination of Moebius atoms
(1 + e^{i*theta} z) / (1 - e^{i*theta} z), each of which has positive real
part on the disk, so class membership is exact by construction.  The
admissibility test for bare coefficient prefixes combines the modulus
condition |c_k| <= 2 with positive semidefiniteness of the Toeplitz moment
matrix; the modulus condition alone is available as the "modulus" mode.

For K = 2 the moment matrix is PSD iff |c1| <= 2 and
|c2 - c1^2/2| <= 2 - |c1|^2/2 (the Caratheodory-Toeplitz criterion; see
Grenander & Szego, *Toeplitz Forms*, and the lemma of Libera & Zlotkiewicz,
Proc. AMS 85 (1982)), so the K = 2 checks use this closed form.  EIG_TOL maps
onto it exactly: lambda_min(T) >= -eps iff T + eps*I is PSD iff the prefix
c / (1 + eps) is admissible, i.e. with a = c1 / (2(1+eps)) and
b = c2 / (2(1+eps)) the test is |b - a^2| <= 1 - |a|^2.  ``eigvalsh`` of
:func:`toeplitz_moment_matrix` remains the check for K > 2 and the oracle the
tests hold the closed form to.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .series import TruncatedSeries, DEFAULT_ORDER

__all__ = [
    "CaratheodoryElement",
    "herglotz",
    "sample_random",
    "sample_batch",
    "is_admissible_prefix",
    "admissibility_mask_k2",
    "toeplitz_moment_matrix",
    "PASS",
    "FAIL_MODULUS",
    "FAIL_TOEPLITZ",
    "MODULUS_TOL",
    "EIG_TOL",
    "WEIGHT_TOL",
]

PASS = "PASS"
FAIL_MODULUS = "FAIL_MODULUS"
FAIL_TOEPLITZ = "FAIL_TOEPLITZ"

MODULUS_TOL = 1e-9   # slack on |c_k| <= 2
EIG_TOL = 1e-9       # smallest moment-matrix eigenvalue may dip this far below 0
WEIGHT_TOL = 1e-12   # atom weights must sum to 1 within this


@dataclass(frozen=True)
class CaratheodoryElement:
    """A coefficient prefix of an element p with p(0) = 1 and Re p > 0.

    ``atoms`` holds the generating (weight, angle) pairs when the element was
    produced constructively; reconstruction then gives
    c_k = 2 * sum_i t_i * exp(i*k*theta_i).
    """

    series: TruncatedSeries
    atoms: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        if self.series.coeffs[0] != 1:
            raise ValueError("constant term must be exactly 1")

    @property
    def order(self) -> int:
        return self.series.order

    def coeff_prefix(self, k: int | None = None) -> np.ndarray:
        """Coefficients c_1..c_k (defaults to the full known prefix)."""
        k = self.order if k is None else k
        return self.series.coeffs[1 : k + 1]

    def atom_value(self, z):
        """Exact evaluation sum_i t_i (1+e^{i th} z)/(1-e^{i th} z).

        Unlike truncated-series evaluation there is no tail error, so this is
        the right way to test Re p > 0 on a grid.  Requires atoms.
        """
        if self.atoms is None:
            raise ValueError("element carries no atom representation")
        zs = np.asarray(z, dtype=complex)
        acc = np.zeros_like(zs)
        for t, theta in self.atoms:
            u = np.exp(1j * theta) * zs
            acc = acc + t * (1 + u) / (1 - u)
        return complex(acc) if acc.ndim == 0 else acc


def _mixture_coeffs(weights, angles, order: int) -> np.ndarray:
    """(count, order) array of c_1..c_order, c_k = 2 sum_i t_i e^{ik th_i}."""
    k = np.arange(1, order + 1)
    phases = np.exp(1j * angles[:, :, None] * k)          # (count, m, order)
    return 2.0 * (weights[:, :, None] * phases).sum(axis=1)


def herglotz(atoms, order: int = DEFAULT_ORDER) -> CaratheodoryElement:
    """Element generated by a finite atom mixture [(t_i, theta_i), ...].

    Weights must be positive and sum to 1 within WEIGHT_TOL.
    """
    atoms = tuple((float(t), float(th)) for t, th in atoms)
    if not atoms:
        raise ValueError("need at least one atom")
    w = np.array([t for t, _ in atoms])
    if np.any(w <= 0):
        raise ValueError("atom weights must be positive")
    if abs(w.sum() - 1.0) > WEIGHT_TOL:
        raise ValueError(f"atom weights must sum to 1, got {w.sum()!r}")
    th = np.array([t for _, t in atoms])
    c = np.concatenate(([1.0], _mixture_coeffs(w[None, :], th[None, :], order)[0]))
    return CaratheodoryElement(TruncatedSeries(c), atoms)


def _spawn_streams(seed: int):
    ws, ts = np.random.SeedSequence(seed).spawn(2)
    return np.random.default_rng(ws), np.random.default_rng(ts)


def sample_batch(seed: int, count: int, atom_count: int, order: int = 2):
    """Vectorized atom sampling, deterministic per seed.

    Returns (weights, angles, coeffs) with shapes (count, m), (count, m) and
    (count, order); coeffs[:, k-1] holds c_k.  Weights come from the uniform
    distribution on the simplex (normalized exponentials), angles are uniform
    on [0, 2*pi).  Row i depends only on (seed, i), never on count, so a
    longer batch extends a shorter one.
    """
    if atom_count < 1:
        raise ValueError("atom_count must be >= 1")
    if count < 0:
        raise ValueError("count must be >= 0")
    wrng, arng = _spawn_streams(seed)
    w = wrng.standard_exponential((count, atom_count))
    t = w / w.sum(axis=1, keepdims=True)
    theta = arng.uniform(0.0, 2.0 * np.pi, (count, atom_count))
    return t, theta, _mixture_coeffs(t, theta, order)


def sample_random(seed: int, atom_count: int, order: int = DEFAULT_ORDER) -> CaratheodoryElement:
    """One random atom-mixture element; bitwise deterministic per seed.

    Coincides with row 0 of :func:`sample_batch` for the same seed.
    """
    t, theta, _ = sample_batch(seed, 1, atom_count, order=1)
    atoms = tuple(zip(t[0].tolist(), theta[0].tolist()))
    return herglotz(atoms, order=order)


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


def _k2_psd(c1, c2, eig_tol: float):
    """Whether the K=2 moment matrix has smallest eigenvalue >= -eig_tol.

    Closed form on scalars or arrays: |b - a^2| <= 1 - |a|^2 for the prefix
    scaled by 1/(2(1+eig_tol)); False where an input is NaN or infinite.
    """
    s = 0.5 / (1.0 + eig_tol)
    a = c1 * s
    return abs(c2 * s - a * a) <= 1.0 - (a.real * a.real + a.imag * a.imag)


def is_admissible_prefix(c, mode: str = "toeplitz", eig_tol: float = EIG_TOL) -> str:
    """Verdict for a coefficient prefix c_1..c_K: PASS or a failure reason.

    The modulus condition |c_k| <= 2 + MODULUS_TOL is necessary; the Toeplitz
    positivity check (the default) is the full prefix characterization and
    strictly tightens it.  The smallest moment-matrix eigenvalue may dip
    eig_tol below 0.  For K = 2 this is decided by the closed form of the
    module docstring, for K > 2 by ``eigvalsh``.  A non-finite K = 2 prefix
    that passes the modulus check fails the Toeplitz check.
    """
    c = np.asarray(c, dtype=complex)
    if c.ndim != 1 or c.size == 0:
        raise ValueError("need a 1-D prefix c_1..c_K with K >= 1")
    if np.any(np.abs(c) > 2.0 + MODULUS_TOL):
        return FAIL_MODULUS
    if mode == "modulus":
        return PASS
    if mode != "toeplitz":
        raise ValueError(f"unknown mode {mode!r}")
    if c.size == 2:
        psd = _k2_psd(complex(c[0]), complex(c[1]), eig_tol)
    else:
        psd = np.linalg.eigvalsh(toeplitz_moment_matrix(c))[0] >= -eig_tol
    return PASS if psd else FAIL_TOEPLITZ


def admissibility_mask_k2(c1, c2, mode: str = "toeplitz", eig_tol: float = EIG_TOL):
    """Vectorized K=2 admissibility for prefix arrays (c1[i], c2[i]).

    Returns boolean arrays (admissible, fail_modulus, fail_toeplitz); the two
    failure masks are disjoint, modulus (|c_k| <= 2 + MODULUS_TOL) checked
    first.  The Toeplitz check is the closed form of the module docstring
    with eig_tol mapped exactly, so it agrees with ``eigvalsh`` of the moment
    matrix wherever the smallest eigenvalue is not within rounding of
    -eig_tol; non-finite prefixes that pass the modulus check fail it.
    Agrees entrywise with :func:`is_admissible_prefix`.
    """
    c1 = np.asarray(c1, dtype=complex)
    c2 = np.asarray(c2, dtype=complex)
    fail_mod = (np.abs(c1) > 2.0 + MODULUS_TOL) | (np.abs(c2) > 2.0 + MODULUS_TOL)
    if mode == "modulus":
        return ~fail_mod, fail_mod, np.zeros_like(fail_mod)
    if mode != "toeplitz":
        raise ValueError(f"unknown mode {mode!r}")
    psd = _k2_psd(c1, c2, eig_tol)
    return ~fail_mod & psd, fail_mod, ~(fail_mod | psd)
