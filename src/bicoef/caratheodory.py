"""Positive-real-part (Caratheodory) elements from finite Herglotz atom mixtures.

Every element built here is a convex combination of Moebius atoms
(1 + e^{i*theta} z) / (1 - e^{i*theta} z), each of which has positive real
part on the disk, so class membership is exact by construction.  An element
is its coefficient array c_1..c_K (p(0) = 1 is implied): :func:`herglotz`
gives it for one atom mixture, :func:`sample_batch` for the next batch of
random ones from the generator pair :func:`streams` of a seed, with
c_k = 2 sum_i t_i e^{i k theta_i}.  The admissibility test for bare
coefficient prefixes combines the modulus condition |c_k| <= 2 with positive
semidefiniteness of the Toeplitz moment matrix.  The batch mask
:func:`admissibility_mask_k2` also has a "modulus" mode that applies the
modulus condition alone.

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

import numpy as np

__all__ = [
    "herglotz",
    "streams",
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


def _mixture_coeffs(weights, angles, order: int) -> np.ndarray:
    """(count, order) array of c_1..c_order, c_k = 2 sum_i t_i e^{ik th_i}.

    One exp per atom; the higher powers are repeated products, so c_k
    carries k roundings of e^{i th}, not one of k*th.  The powers are held
    k-major, (order, count, m), and summed over the atoms in one reduction.
    """
    powers = np.empty((order,) + angles.shape, dtype=complex)
    z = powers[0]
    z.real = 0.0      # i*theta set in place: 1j * angles would cast, which
    z.imag = angles   # costs more than the exp on a one-row call
    np.exp(z, out=z)
    for k in range(1, order):
        np.multiply(powers[k - 1], z, out=powers[k])
    return 2.0 * np.einsum("kcm,cm->ck", powers, weights)


def herglotz(atoms, order: int) -> np.ndarray:
    """c_1..c_order, as an (order,) array, of the atom mixture [(t_i, theta_i), ...].

    Weights and angles must be finite, and the weights positive with sum 1
    within WEIGHT_TOL.  Equals the row of :func:`sample_batch` drawn with the
    same atoms, bit for bit.
    """
    a = np.array(atoms, dtype=float)
    if a.ndim != 2 or a.shape[1] != 2 or not len(a):
        raise ValueError("need at least one (weight, angle) atom")
    if not np.isfinite(a).all():
        raise ValueError("atom weights and angles must be finite")
    w, th = a.T
    if np.any(w <= 0):
        raise ValueError("atom weights must be positive")
    if abs(w.sum() - 1.0) > WEIGHT_TOL:
        raise ValueError(f"atom weights must sum to 1, got {float(w.sum())!r}")
    return _mixture_coeffs(w[None, :], th[None, :], order)[0]


def streams(seed: int):
    """The (weights, angles) generator pair of a seed, for :func:`sample_batch`."""
    ws, ts = np.random.SeedSequence(seed).spawn(2)
    return np.random.default_rng(ws), np.random.default_rng(ts)


def sample_batch(rngs, count: int, atom_count: int, order: int = 2):
    """The next count random atom mixtures drawn from rngs = streams(seed).

    Returns (weights, angles, coeffs) with shapes (count, m), (count, m) and
    (count, order); coeffs[:, k-1] holds c_k.  Weights come from the uniform
    distribution on the simplex (normalized exponentials), angles are uniform
    on [0, 2*pi).  Each call continues the pair's streams, so batches of
    n1, n2, ... rows drawn in turn equal one batch of n1 + n2 + ... rows,
    bit for bit: row i depends only on (seed, i).
    """
    if atom_count < 1:
        raise ValueError("atom_count must be >= 1")
    if count < 0:
        raise ValueError("count must be >= 0")
    wrng, arng = rngs
    w = wrng.standard_exponential((count, atom_count))
    t = w / w.sum(axis=1, keepdims=True)
    theta = arng.uniform(0.0, 2.0 * np.pi, (count, atom_count))
    return t, theta, _mixture_coeffs(t, theta, order)


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


def _k2_psd(c1, c2):
    """Whether the K=2 moment matrix has smallest eigenvalue >= -EIG_TOL.

    Closed form on scalars or arrays: |b - a^2| <= 1 - |a|^2 for the prefix
    scaled by 1/(2(1+EIG_TOL)); False where an input is NaN or infinite.
    """
    s = 0.5 / (1.0 + EIG_TOL)
    a = c1 * s
    return abs(c2 * s - a * a) <= 1.0 - (a.real * a.real + a.imag * a.imag)


def is_admissible_prefix(c) -> str:
    """Verdict for a coefficient prefix c_1..c_K: PASS or a failure reason.

    The modulus condition |c_k| <= 2 + MODULUS_TOL is checked first; the
    Toeplitz positivity check is the full prefix characterization and
    strictly tightens it.  The smallest moment-matrix eigenvalue may dip
    EIG_TOL below 0.  For K = 2 this is decided by the closed form of the
    module docstring, for K > 2 by ``eigvalsh``.  A non-finite K = 2 prefix
    that passes the modulus check fails the Toeplitz check.
    """
    c = np.asarray(c, dtype=complex)
    if c.ndim != 1 or c.size == 0:
        raise ValueError("need a 1-D prefix c_1..c_K with K >= 1")
    if np.any(np.abs(c) > 2.0 + MODULUS_TOL):
        return FAIL_MODULUS
    if c.size == 2:
        psd = _k2_psd(complex(c[0]), complex(c[1]))
    else:
        psd = np.linalg.eigvalsh(toeplitz_moment_matrix(c))[0] >= -EIG_TOL
    return PASS if psd else FAIL_TOEPLITZ


def admissibility_mask_k2(c1, c2, mode: str = "toeplitz"):
    """Vectorized K=2 admissibility for prefix arrays (c1[i], c2[i]).

    Returns boolean arrays (admissible, fail_modulus, fail_toeplitz); the two
    failure masks are disjoint, modulus (|c_k| <= 2 + MODULUS_TOL) checked
    first.  mode="modulus" stops there (the campaigns' ``--filter modulus``);
    mode="toeplitz" adds the closed form of the module docstring with EIG_TOL
    mapped exactly, so it agrees with ``eigvalsh`` of the moment matrix
    wherever the smallest eigenvalue is not within rounding of -EIG_TOL;
    non-finite prefixes that pass the modulus check fail it.  In that mode it
    agrees entrywise with :func:`is_admissible_prefix`.
    """
    c1 = np.asarray(c1, dtype=complex)
    c2 = np.asarray(c2, dtype=complex)
    fail_mod = (np.abs(c1) > 2.0 + MODULUS_TOL) | (np.abs(c2) > 2.0 + MODULUS_TOL)
    if mode == "modulus":
        return ~fail_mod, fail_mod, np.zeros_like(fail_mod)
    if mode != "toeplitz":
        raise ValueError(f"unknown mode {mode!r}")
    psd = _k2_psd(c1, c2)
    return ~fail_mod & psd, fail_mod, ~(fail_mod | psd)
