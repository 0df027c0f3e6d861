import cmath

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bicoef import caratheodory
from bicoef.caratheodory import (FAIL_MODULUS, FAIL_TOEPLITZ, MODULUS_TOL, PASS,
                                 _mixture_coeffs, admissibility_mask_k2, herglotz,
                                 is_admissible_prefix, sample_batch, streams)
from oracles import toeplitz_moment_matrix


def _prefixes(seed, count, atom_count):
    """(count, 2) prefixes (c1, c2) of the sampler's first count mixtures."""
    return _mixture_coeffs(*sample_batch(streams(seed), count, atom_count))


# ----------------------------------------------------------------- herglotz

def test_single_atom_at_zero_is_extremal():
    assert np.allclose(herglotz([(1.0, 0.0)]), 2.0, atol=1e-14, rtol=0)


def test_two_symmetric_atoms():
    # (1+z^2)/(1-z^2): c1 vanishes, c2 is 2
    c = herglotz([(0.5, 0.0), (0.5, np.pi)])
    assert c.shape == (2,)
    assert np.allclose(c, [0.0, 2.0], atol=1e-13, rtol=0)


def test_single_atom_at_pi_alternates():
    assert np.allclose(herglotz([(1.0, np.pi)]), [-2.0, 2.0], atol=1e-13, rtol=0)


def test_herglotz_rejects_bad_weights():
    # the sum prints as a Python float, not as np.float64(...)
    with pytest.raises(ValueError, match=r"must sum to 1, got 0\.9$"):
        herglotz([(0.5, 0.0), (0.4, 1.0)])
    with pytest.raises(ValueError):
        herglotz([(-0.5, 0.0), (1.5, 1.0)])
    with pytest.raises(ValueError):
        herglotz([])
    # rejected before any arithmetic, so no RuntimeWarning either
    for atom in ((float("nan"), 0.0), (1.0, float("nan")), (1.0, float("inf"))):
        with pytest.raises(ValueError, match="must be finite"):
            herglotz([atom])


def test_herglotz_of_a_batch_row_is_that_row():
    # the second batch continues the streams of the first: its rows are
    # those a second chunk of a campaign draws
    rngs = streams(42)
    for _ in range(2):
        t, theta = sample_batch(rngs, 50, 3)
        coeffs = _mixture_coeffs(t, theta)
        for i in (0, 1, 17, 49):
            atoms = list(zip(t[i].tolist(), theta[i].tolist()))
            assert np.array_equal(herglotz(atoms), coeffs[i])


def _direct_coeffs(atoms):
    """2 sum_i t_i e^{i k theta_i} for k = 1, 2; k*theta_i is exact for both."""
    return np.array([2.0 * sum(t * cmath.exp(1j * k * theta) for t, theta in atoms)
                     for k in (1, 2)])


@pytest.mark.parametrize("atom_count", [1, 2, 3, 5])
def test_herglotz_matches_the_direct_sum_within_k_roundings(atom_count):
    # c2 is the square of e^{i theta}: one rounding more than c1
    tol = 4e-16 * np.arange(1, 3)
    t, theta = sample_batch(streams(atom_count), 400, atom_count)
    for i in range(len(t)):
        atoms = list(zip(t[i].tolist(), theta[i].tolist()))
        assert (np.abs(herglotz(atoms) - _direct_coeffs(atoms)) <= tol).all()


# ------------------------------------------------------------------ sampler

def test_sampler_is_deterministic():
    a = sample_batch(streams(123), 5, 3)
    b = sample_batch(streams(123), 5, 3)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def test_single_atom_draws_have_extremal_moduli():
    for seed in range(5):
        coeffs = _prefixes(seed, 4, 1)
        assert np.allclose(np.abs(coeffs), 2.0, atol=1e-12, rtol=0)


def test_batch_never_violates_modulus_condition():
    coeffs = _prefixes(7, 10_000, 4)
    assert np.abs(coeffs).max() <= 2.0 + 1e-12


def test_batch_rows_are_prefix_stable():
    # a longer batch extends a shorter one, and batches drawn in turn from
    # one stream pair are one batch, bit for bit
    one = sample_batch(streams(9), 500, 3)
    for sizes in ((20,), (1, 499), (300, 200), (0, 7, 493)):
        rngs = streams(9)
        parts = [sample_batch(rngs, n, 3) for n in sizes]
        for whole, pieces in zip(one, zip(*parts)):
            assert np.array_equal(whole[:sum(sizes)], np.concatenate(pieces))


# ------------------------------------------------------------- admissibility

def test_extremal_prefix_passes():
    assert is_admissible_prefix([2, 2]) == PASS


def test_modulus_violation_fails():
    assert is_admissible_prefix([2.5, 0]) == FAIL_MODULUS
    assert is_admissible_prefix([-2, 4]) == FAIL_MODULUS


def test_constant_element_passes():
    assert is_admissible_prefix([0, 0]) == PASS


def test_toeplitz_catches_infeasible_pair():
    # c1 = 2 forces the point mass at angle 0, hence c2 = 2
    assert is_admissible_prefix([2, -2]) == FAIL_TOEPLITZ
    adm, fmod, ftoe = admissibility_mask_k2([2], [-2], mode="modulus")
    assert adm.tolist() == [True] and not fmod.any() and not ftoe.any()


@pytest.mark.parametrize("c", [[], [1], [1, 1, 1], [[1, 1]], 1])
def test_prefix_of_other_than_two_terms_is_rejected(c):
    with pytest.raises(ValueError, match="two terms"):
        is_admissible_prefix(c)


def test_moment_matrix_layout():
    m = toeplitz_moment_matrix([2j, -2])
    assert m.shape == (3, 3)
    assert m[0, 1] == 1j and m[1, 2] == 1j and m[0, 2] == -1
    assert m[1, 0] == -1j and m[2, 0] == -1
    assert np.allclose(m, m.conj().T)


def test_herglotz_outputs_are_admissible():
    rng = np.random.default_rng(5)
    for _ in range(20):
        m = int(rng.integers(1, 5))
        coeffs = _prefixes(int(rng.integers(1e6)), 3, m)
        for c in coeffs:
            assert is_admissible_prefix(c) == PASS


def test_convex_combination_of_admissible_prefixes_is_admissible():
    rng = np.random.default_rng(6)
    for _ in range(20):
        a = _prefixes(int(rng.integers(1e6)), 1, 3)[0]
        b = _prefixes(int(rng.integers(1e6)), 1, 2)[0]
        t = rng.random()
        assert is_admissible_prefix(t * a + (1 - t) * b) == PASS


# -------------------------------------------------------- vectorized filter

def test_mask_agrees_with_scalar_verdicts():
    rng = np.random.default_rng(10)
    # random points, including inadmissible ones well away from the boundary
    c1 = rng.uniform(-3, 3, 400) + 1j * rng.uniform(-3, 3, 400)
    c2 = rng.uniform(-3, 3, 400) + 1j * rng.uniform(-3, 3, 400)
    adm, fmod, ftoe = admissibility_mask_k2(c1, c2)
    for i in range(400):
        verdict = is_admissible_prefix([c1[i], c2[i]])
        assert adm[i] == (verdict == PASS)
        assert fmod[i] == (verdict == FAIL_MODULUS)
        assert ftoe[i] == (verdict == FAIL_TOEPLITZ)


def test_mask_modulus_mode_skips_toeplitz():
    c1 = np.array([2.0, 2.0])
    c2 = np.array([-2.0, 2.5])
    adm, fmod, ftoe = admissibility_mask_k2(c1, c2, mode="modulus")
    assert list(adm) == [True, False]
    assert not ftoe.any()


def test_mask_agrees_with_closed_form_interior_condition():
    # For prefixes away from the boundary, PSD of the 3x3 moment matrix is
    # equivalent to |c2 - c1^2/2| <= 2 - |c1|^2/2.
    rng = np.random.default_rng(11)
    c1 = rng.uniform(-2, 2, 300) + 1j * rng.uniform(-2, 2, 300)
    c2 = rng.uniform(-2, 2, 300) + 1j * rng.uniform(-2, 2, 300)
    slack = (2 - np.abs(c1) ** 2 / 2) - np.abs(c2 - c1 ** 2 / 2)
    keep = (np.abs(slack) > 1e-6) & (np.abs(c1) < 2) & (np.abs(c2) < 2)
    adm, _, _ = admissibility_mask_k2(c1, c2)
    assert np.array_equal(adm[keep], slack[keep] > 0)


# ------------------------------------------- closed form vs eigvalsh oracle

EIG_TOLS = (0.0, 1e-12, 1e-9, 1e-6, 1e-3)
EDGE_OFFSETS = (0.0,) + tuple(sgn * 10.0 ** -k for k in range(6, 13) for sgn in (1, -1))


def _assert_matches_eigvalsh(c1, c2, eig_tol):
    """Check both K=2 paths against eigvalsh of the moment matrix.

    Both run with caratheodory.EIG_TOL set to eig_tol.  Points whose
    smallest eigenvalue lies within 1e-12 of -eig_tol are left out: there the
    verdict is decided by rounding.  The modulus check is the same np.abs
    comparison as in the code, so it is not part of the oracle.  Returns how
    many points were checked.
    """
    c1 = np.asarray(c1, dtype=complex)
    c2 = np.asarray(c2, dtype=complex)
    want, keep = [], []
    for x1, x2 in zip(c1.tolist(), c2.tolist()):
        lam = np.linalg.eigvalsh(toeplitz_moment_matrix([x1, x2]))[0]
        if np.abs([x1, x2]).max() > 2.0 + MODULUS_TOL:
            want.append(FAIL_MODULUS)
        else:
            want.append(PASS if lam >= -eig_tol else FAIL_TOEPLITZ)
        keep.append(want[-1] == FAIL_MODULUS or abs(lam + eig_tol) > 1e-12)
    # a context, not the monkeypatch fixture: one caller is a hypothesis test
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(caratheodory, "EIG_TOL", eig_tol)
        adm, fmod, ftoe = admissibility_mask_k2(c1, c2)
        for i in np.flatnonzero(keep):
            assert is_admissible_prefix([c1[i], c2[i]]) == want[i]
            assert adm[i] == (want[i] == PASS)
            assert fmod[i] == (want[i] == FAIL_MODULUS)
            assert ftoe[i] == (want[i] == FAIL_TOEPLITZ)
    return int(np.sum(keep))


def _near_edge(r, phi, psi, d, scale):
    """|c1| = 2r and c2 at distance d outside the edge
    |c2 - c1^2/2| = 2 - |c1|^2/2, both multiplied by scale."""
    c1 = 2.0 * r * cmath.exp(1j * phi)
    c2 = c1 * c1 / 2 + (2.0 - abs(c1) ** 2 / 2 + d) * cmath.exp(1j * psi)
    return c1 * scale, c2 * scale


@settings(max_examples=400, deadline=None)
@given(r=st.one_of(st.floats(0.0, 1.0), st.sampled_from([1.0 + d for d in EDGE_OFFSETS])),
       phi=st.floats(0.0, 2 * np.pi), psi=st.floats(0.0, 2 * np.pi),
       d=st.sampled_from(EDGE_OFFSETS), eig_tol=st.sampled_from(EIG_TOLS),
       on_tolerance_edge=st.booleans())
def test_k2_closed_form_matches_eigvalsh_near_the_edge(r, phi, psi, d, eig_tol,
                                                       on_tolerance_edge):
    # scaling by 1 + eig_tol moves the point from the exact edge onto the
    # edge that eig_tol admits, which is where the mapping has to be exact
    scale = 1.0 + eig_tol if on_tolerance_edge else 1.0
    c1, c2 = _near_edge(r, phi, psi, d, scale)
    _assert_matches_eigvalsh([c1], [c2], eig_tol)


@pytest.mark.parametrize("eig_tol", EIG_TOLS)
def test_k2_closed_form_matches_eigvalsh_on_a_boundary_grid(eig_tol):
    angles = np.linspace(0.0, 2 * np.pi, 7)
    c1, c2 = [2.0, 2.0], [2.0, -2.0]
    for phi in angles:
        c1.append(2 * cmath.exp(1j * phi))
        c2.append(2 * cmath.exp(2j * phi))
        for d in EDGE_OFFSETS:
            for scale in (1.0, 1.0 + eig_tol):
                # |c1| -> 2 from both sides, and points beside the edge
                for r, psi in ((1.0 + d, 2 * phi), (0.5, phi), (0.999, 3.0)):
                    x1, x2 = _near_edge(r, phi, psi, d, scale)
                    c1.append(x1)
                    c2.append(x2)
    checked = _assert_matches_eigvalsh(c1, c2, eig_tol)
    assert checked > len(c1) // 2


# boundary prefixes: m = 2 < K + 1 atoms make the 3x3 moment matrix
# singular, with smallest eigenvalue 0; no c_k is extremal
EDGE_MIXTURES = ([(0.5, 0.3), (0.5, 2.0)], [(0.2, 1.0), (0.8, 4.0)],
                 [(0.3, 0.0), (0.7, 2.5)], [(0.6, 5.0), (0.4, 1.2)])


@pytest.mark.parametrize("eig_tol", EIG_TOLS)
@pytest.mark.parametrize("atoms", EDGE_MIXTURES)
def test_k2_closed_form_admits_exactly_eig_tol_beyond_the_edge(atoms, eig_tol):
    # T(s c) = (1 - s) I + s T(c), so scaling a boundary prefix by
    # s = 1 + eig_tol + d puts the smallest eigenvalue at -eig_tol - d
    c = herglotz(atoms)
    assert np.abs(c).max() < 1.99   # the scaled prefixes pass the modulus check
    assert abs(np.linalg.eigvalsh(toeplitz_moment_matrix(c))[0]) < 1e-15
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(caratheodory, "EIG_TOL", eig_tol)
        for d, want in ((-1e-12, PASS), (1e-12, FAIL_TOEPLITZ)):
            scaled = c * (1.0 + eig_tol + d)
            lam = np.linalg.eigvalsh(toeplitz_moment_matrix(scaled))[0]
            assert (lam >= -eig_tol) == (want == PASS)   # the oracle agrees
            assert is_admissible_prefix(scaled) == want
            adm, fmod, ftoe = admissibility_mask_k2(scaled[:1], scaled[1:])
            assert [adm[0], fmod[0], ftoe[0]] == [want == PASS, False, want != PASS]


def test_extremal_tuples_against_eigvalsh():
    # (2 e^{i phi}, 2 e^{2 i phi}); phi = 0 is the tuple (2, 2)
    phis = np.linspace(0.0, 2 * np.pi, 13)
    c1 = [2 * cmath.exp(1j * p) for p in phis]
    c2 = [2 * cmath.exp(2j * p) for p in phis]
    assert _assert_matches_eigvalsh(c1, c2, 1e-9) == len(c1)
    adm, _, _ = admissibility_mask_k2(c1, c2)
    assert adm.all()


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_non_finite_k2_prefix_is_not_admissible():
    nan = float("nan")
    assert is_admissible_prefix([nan, 0]) == FAIL_TOEPLITZ
    assert is_admissible_prefix([0, complex(0, nan)]) == FAIL_TOEPLITZ
    adm, fmod, ftoe = admissibility_mask_k2([nan, 0, np.inf], [0, nan, 0])
    assert not adm.any()
    assert list(fmod) == [False, False, True]
    assert list(ftoe) == [True, True, False]
