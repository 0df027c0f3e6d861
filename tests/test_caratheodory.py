import cmath

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bicoef.caratheodory import (FAIL_MODULUS, FAIL_TOEPLITZ, MODULUS_TOL, PASS,
                                 CaratheodoryElement, admissibility_mask_k2,
                                 herglotz, is_admissible_prefix, sample_batch,
                                 sample_random, toeplitz_moment_matrix)
from bicoef.series import TruncatedSeries


# ----------------------------------------------------------------- herglotz

def test_single_atom_at_zero_is_extremal():
    el = herglotz([(1.0, 0.0)], order=6)
    assert np.allclose(el.coeff_prefix(), 2.0, atol=1e-14, rtol=0)


def test_two_symmetric_atoms():
    # (1+z^2)/(1-z^2): odd coefficients vanish, even ones are 2
    el = herglotz([(0.5, 0.0), (0.5, np.pi)], order=6)
    want = [1 + (-1) ** k for k in range(1, 7)]
    assert np.allclose(el.coeff_prefix(), want, atol=1e-13, rtol=0)


def test_single_atom_at_pi_alternates():
    el = herglotz([(1.0, np.pi)], order=5)
    want = [2 * (-1) ** k for k in range(1, 6)]
    assert np.allclose(el.coeff_prefix(), want, atol=1e-13, rtol=0)


def test_herglotz_rejects_bad_weights():
    with pytest.raises(ValueError):
        herglotz([(0.5, 0.0), (0.4, 1.0)])
    with pytest.raises(ValueError):
        herglotz([(-0.5, 0.0), (1.5, 1.0)])
    with pytest.raises(ValueError):
        herglotz([])


def test_element_requires_unit_constant():
    with pytest.raises(ValueError):
        CaratheodoryElement(TruncatedSeries([0.9, 1.0]))


# ------------------------------------------------------------------ sampler

def test_sampler_is_deterministic():
    a = sample_random(123, 3)
    b = sample_random(123, 3)
    assert np.array_equal(a.series.coeffs, b.series.coeffs)
    assert a.atoms == b.atoms


def test_single_atom_draws_have_extremal_moduli():
    for seed in range(5):
        el = sample_random(seed, 1)
        assert np.allclose(np.abs(el.coeff_prefix()), 2.0, atol=1e-12, rtol=0)


def test_batch_never_violates_modulus_condition():
    _, _, coeffs = sample_batch(7, 10_000, 4, order=2)
    assert np.abs(coeffs).max() <= 2.0 + 1e-12


def test_batch_rows_are_prefix_stable():
    _, _, big = sample_batch(9, 500, 3, order=2)
    _, _, small = sample_batch(9, 20, 3, order=2)
    assert np.array_equal(big[:20], small)


def test_sample_random_matches_batch_row_zero():
    t, th, coeffs = sample_batch(42, 1, 3, order=2)
    el = sample_random(42, 3)
    assert np.array_equal(el.coeff_prefix(2), coeffs[0])
    assert np.allclose([a[0] for a in el.atoms], t[0], atol=0, rtol=0)


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
    assert is_admissible_prefix([2, -2], mode="modulus") == PASS


def test_moment_matrix_layout():
    m = toeplitz_moment_matrix([2j, -2])
    assert m.shape == (3, 3)
    assert m[0, 1] == 1j and m[1, 2] == 1j and m[0, 2] == -1
    assert m[1, 0] == -1j and m[2, 0] == -1
    assert np.allclose(m, m.conj().T)


def test_herglotz_outputs_are_admissible_at_every_prefix_length():
    rng = np.random.default_rng(5)
    for _ in range(20):
        m = int(rng.integers(1, 5))
        el = sample_random(int(rng.integers(1e6)), m, order=6)
        c = el.coeff_prefix()
        for k in range(1, 7):
            assert is_admissible_prefix(c[:k]) == PASS


def test_convex_combination_of_admissible_prefixes_is_admissible():
    rng = np.random.default_rng(6)
    for _ in range(20):
        a = sample_random(int(rng.integers(1e6)), 3, order=4).coeff_prefix()
        b = sample_random(int(rng.integers(1e6)), 2, order=4).coeff_prefix()
        t = rng.random()
        assert is_admissible_prefix(t * a + (1 - t) * b) == PASS


def test_atom_value_has_positive_real_part_on_grid():
    rng = np.random.default_rng(8)
    radii = np.linspace(0.05, 0.9, 10)
    ring = np.exp(2j * np.pi * np.arange(64) / 64)
    grid = np.concatenate([r * ring for r in radii])
    for seed in range(10):
        el = sample_random(seed, int(rng.integers(1, 5)))
        assert el.atom_value(grid).real.min() > 0


def test_atom_value_requires_atoms():
    el = CaratheodoryElement(TruncatedSeries([1, 0.5]))
    with pytest.raises(ValueError):
        el.atom_value(0.1)


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

    Points whose smallest eigenvalue lies within 1e-12 of -eig_tol are left
    out: there the verdict is decided by rounding.  The modulus check is the
    same np.abs comparison as in the code, so it is not part of the oracle.
    Returns how many points were checked.
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
    adm, fmod, ftoe = admissibility_mask_k2(c1, c2, eig_tol=eig_tol)
    for i in np.flatnonzero(keep):
        assert is_admissible_prefix([c1[i], c2[i]], eig_tol=eig_tol) == want[i]
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
