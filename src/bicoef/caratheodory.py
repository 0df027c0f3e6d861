"""Positive-real-part (Caratheodory) elements from finite Herglotz atom mixtures.

Every element built here is a convex combination of Moebius atoms
(1 + e^{i*theta} z) / (1 - e^{i*theta} z), each of which has positive real
part on the disk, so class membership is exact by construction.  An element
is its prefix (c1, c2) (p(0) = 1 is implied): the bounds on |a2| and |a3|
read no further coefficient, so K = 2 is the whole scope.  :func:`herglotz`
gives it for one atom mixture, c_k = 2 sum_i t_i e^{i k theta_i}, and
:func:`sample_batch` draws the next batch of random mixtures from the
generator pair :func:`streams` of a seed; the harness's scoring kernel maps
such a batch to its prefixes with the same arithmetic.

A bare prefix is admissible when it satisfies the modulus condition
|c_k| <= 2 and its 3x3 Toeplitz moment matrix is positive semidefinite.
:func:`admissibility_mask_k2` is the one place this is written; its
"modulus" mode applies the modulus condition alone, and
:func:`is_admissible_prefix` reads one prefix's verdict from it.  The matrix
is PSD iff |c1| <= 2 and |c2 - c1^2/2| <= 2 - |c1|^2/2 (the
Caratheodory-Toeplitz criterion; see Grenander & Szego, *Toeplitz Forms*, and
the lemma of Libera & Zlotkiewicz, Proc. AMS 85 (1982)), so no matrix is
built.  EIG_TOL maps onto it exactly: lambda_min(T) >= -eps iff T + eps*I is
PSD iff the prefix c / (1 + eps) is admissible, i.e. with a = c1 / (2(1+eps))
and b = c2 / (2(1+eps)) the test is |b - a^2| <= 1 - |a|^2.  The tests hold
this closed form to ``eigvalsh`` of the moment matrix, their oracle.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "herglotz",
    "streams",
    "sample_batch",
    "is_admissible_prefix",
    "admissibility_mask_k2",
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


def _mixture_coeffs(weights, angles) -> np.ndarray:
    """(count, 2) array of (c1, c2), c_k = 2 sum_i t_i e^{ik th_i}.

    One exp per atom; e^{2i th} is its square, so c2 carries two roundings
    of e^{i th}, not one of 2*th.  The powers are held k-major, (2, count, m),
    and summed over the atoms in one reduction.
    """
    powers = np.empty((2,) + angles.shape, dtype=complex)
    z = powers[0]
    z.real = 0.0      # i*theta set in place: 1j * angles would cast, which
    z.imag = angles   # costs more than the exp on a one-row call
    np.exp(z, out=z)
    np.multiply(z, z, out=powers[1])
    return 2.0 * np.einsum("kcm,cm->ck", powers, weights)


def herglotz(atoms) -> np.ndarray:
    """(c1, c2), as a (2,) array, of the atom mixture [(t_i, theta_i), ...].

    Weights and angles must be finite, and the weights positive with sum 1
    within WEIGHT_TOL.  The batched form behind it, which the harness's
    scoring kernel runs, gives these bits for the same atoms in any row of
    any batch.
    """
    a = np.array(atoms, dtype=float)
    if a.ndim != 2 or a.shape[1] != 2 or not len(a):
        raise ValueError("need at least one (weight, angle) atom")
    if not np.isfinite(a).all():
        raise ValueError("atom weights and angles must be finite")
    w, th = a.T
    if w.min() <= 0:   # finite here, so the min decides, for a third of np.any's cost
        raise ValueError("atom weights must be positive")
    if abs(w.sum() - 1.0) > WEIGHT_TOL:
        raise ValueError(f"atom weights must sum to 1, got {float(w.sum())!r}")
    return _mixture_coeffs(w[None, :], th[None, :])[0]


def streams(seed: int):
    """The (weights, angles) generator pair of a seed, for :func:`sample_batch`."""
    ws, ts = np.random.SeedSequence(seed).spawn(2)
    return np.random.default_rng(ws), np.random.default_rng(ts)


def sample_batch(rngs, count: int, atom_count: int):
    """The next count random atom mixtures drawn from rngs = streams(seed).

    Returns (weights, angles), each of shape (count, m).  Weights come from
    the uniform distribution on the simplex (normalized exponentials), angles
    are uniform on [0, 2*pi).  Each call continues the pair's streams, so
    batches of n1, n2, ... rows drawn in turn equal one batch of
    n1 + n2 + ... rows, bit for bit: row i depends only on (seed, i).
    """
    if atom_count < 1:
        raise ValueError("atom_count must be >= 1")
    if count < 0:
        raise ValueError("count must be >= 0")
    wrng, arng = rngs
    w = wrng.standard_exponential((count, atom_count))
    t = w / w.sum(axis=1, keepdims=True)
    theta = arng.uniform(0.0, 2.0 * np.pi, (count, atom_count))
    return t, theta


def is_admissible_prefix(c) -> str:
    """Verdict for one prefix (c1, c2): PASS, FAIL_MODULUS or FAIL_TOEPLITZ.

    The row of :func:`admissibility_mask_k2` for this prefix, in its
    "toeplitz" mode.  Raises ValueError unless c has exactly two terms.
    """
    c = np.asarray(c, dtype=complex)
    if c.shape != (2,):
        raise ValueError(f"need a prefix (c1, c2) of two terms, got shape {c.shape}")
    # one-row arrays, not scalars: numpy rounds a scalar's abs and complex
    # product differently from its array loops, so only arrays give the row
    _, fail_mod, fail_toe = admissibility_mask_k2(c[:1], c[1:])
    return FAIL_MODULUS if fail_mod[0] else FAIL_TOEPLITZ if fail_toe[0] else PASS


def admissibility_mask_k2(c1, c2, mode: str = "toeplitz"):
    """Vectorized admissibility for prefix arrays (c1[i], c2[i]).

    Returns boolean arrays (admissible, fail_modulus, fail_toeplitz); the two
    failure masks are disjoint, modulus (|c_k| <= 2 + MODULUS_TOL) checked
    first.  mode="modulus" stops there (the campaigns' ``--filter modulus``);
    mode="toeplitz" adds the closed form of the module docstring with EIG_TOL
    mapped exactly, so it agrees with ``eigvalsh`` of the moment matrix
    wherever the smallest eigenvalue is not within rounding of -EIG_TOL;
    non-finite prefixes that pass the modulus check fail it.
    """
    c1 = np.asarray(c1, dtype=complex)
    c2 = np.asarray(c2, dtype=complex)
    fail_mod = (np.abs(c1) > 2.0 + MODULUS_TOL) | (np.abs(c2) > 2.0 + MODULUS_TOL)
    if mode == "modulus":
        return ~fail_mod, fail_mod, np.zeros_like(fail_mod)
    if mode != "toeplitz":
        raise ValueError(f"unknown mode {mode!r}")
    s = 0.5 / (1.0 + EIG_TOL)
    a = c1 * s
    psd = abs(c2 * s - a * a) <= 1.0 - (a.real * a.real + a.imag * a.imag)
    passed_mod = ~fail_mod
    admissible = passed_mod & psd
    return admissible, fail_mod, passed_mod ^ admissible   # passed, yet not PSD
