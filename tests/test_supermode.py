import dataclasses
import math

import numpy as np
import pytest
from scipy.special import eval_hermite

from spopo.phasematch import DispersionParams, coupling_matrix
from spopo.supermode import (
    SupermodeDataError,
    _hermite,
    build_supermodes,
    coupling_tensors,
    diagonalize_signal,
    hermite_gaussian_basis,
    parity_signature,
    single_mode_set,
    transform_pump,
)

DESK = DispersionParams(beta1=0.0, beta2s=0.01, beta2p=0.0025, g0=1.0, M=10)


def desk_set(**kwargs):
    defaults = dict(Np=4.0, n_signal=5, k_max=9, odd_only=True)
    defaults.update(kwargs)
    return build_supermodes(DESK, **defaults)


# ---------------------------------------------------------------- pump basis

def test_hg_gaussian_row_value_before_orthonormalization():
    # order 0 at q = 0 with Np = 1 evaluates to pi^(-1/4)
    grid = np.arange(-20, 21)
    x = grid / 1.0
    raw = (math.sqrt(math.pi) * 1.0) ** -0.5 * np.exp(-x * x / 2)
    assert raw[20] == pytest.approx(math.pi ** -0.25, rel=1e-12)
    assert math.pi ** -0.25 == pytest.approx(0.75113, abs=5e-6)


def test_hermite_recurrence_matches_scipy_bit_for_bit():
    # SciPy's own recurrence in numpy: every pump row keeps its bits without scipy.special
    x = DESK.pump_indices / 4.0
    for order in range(25):
        assert np.array_equal(_hermite(order, x), eval_hermite(order, x))


def test_hg_rows_parity():
    grid = np.arange(-20, 21)
    R = hermite_gaussian_basis(4.0, grid, 4)
    # QR's Householder reflections leave only roundoff-level parity defects
    assert np.allclose(R[0], R[0][::-1], atol=1e-14)   # label 1: even
    assert np.allclose(R[1], -R[1][::-1], atol=1e-14)  # label 2: odd
    assert parity_signature(R[2]) == 1
    assert parity_signature(R[3]) == -1


def test_hg_rows_orthonormal():
    grid = np.arange(-40, 41)
    R = hermite_gaussian_basis(4.0, grid, 5)
    assert np.max(np.abs(R @ R.T - np.eye(5))) < 1e-12


def test_hg_count_exceeds_grid():
    with pytest.raises(ValueError):
        hermite_gaussian_basis(4.0, np.arange(-3, 4), 8)


def test_hg_numerically_dependent_rows():
    with pytest.raises(ValueError):
        hermite_gaussian_basis(0.05, np.arange(-10, 11), 12)


# ------------------------------------------------------------ pump transform

def test_transform_pump_identity_selects_diagonals():
    F = coupling_matrix(DESK)
    M = DESK.M
    R = np.eye(4 * M + 1)
    Fp = transform_pump(F, R)
    for qi, q in enumerate(range(-2 * M, 2 * M + 1)):
        for i, m in enumerate(range(-M, M + 1)):
            for j, n in enumerate(range(-M, M + 1)):
                expected = F[i, j] if m + n == q else 0.0
                assert Fp[qi][i, j] == expected


def test_transform_pump_all_ones_row():
    p = DispersionParams(beta1=0.0, beta2s=0.0, beta2p=0.0, g0=1.0, M=2)
    F = coupling_matrix(p)  # all entries 1
    R = np.full((1, 9), 1.0 / 3.0)
    Fp = transform_pump(F, R)
    assert np.allclose(Fp[0], np.full((5, 5), 1.0 / 3.0))


def test_transform_pump_odd_row_antisymmetric_for_even_mismatch():
    F = coupling_matrix(DESK)
    R = hermite_gaussian_basis(4.0, DESK.pump_indices, 2)
    Fp = transform_pump(F, R)
    flipped = Fp[1][::-1, ::-1]
    assert np.allclose(flipped, -Fp[1], atol=1e-15)


def test_transform_pump_range_mismatch():
    F = coupling_matrix(DESK)
    with pytest.raises(ValueError):
        transform_pump(F, np.eye(5))


# ----------------------------------------------------------- diagonalization

def test_diagonalize_trivial_cases():
    T, lam = diagonalize_signal(np.array([[2.5]]))
    assert np.array_equal(T, [[1.0]])
    assert lam[0] == 2.5
    T, lam = diagonalize_signal(np.diag([3.0, 1.0]))
    assert np.allclose(lam, [3.0, 1.0])
    assert np.allclose(np.abs(T), np.eye(2))
    assert T[0, 0] > 0 and T[1, 1] > 0


def test_diagonalize_random_symmetric_against_charpoly():
    rng = np.random.default_rng(7)
    A = rng.normal(size=(5, 5))
    A = (A + A.T) / 2 + np.eye(5)  # push the top eigenvalue positive
    T, lam = diagonalize_signal(A)
    D = T @ A @ T.T
    assert np.max(np.abs(D - np.diag(lam))) < 1e-10
    # independent oracle: roots of the characteristic polynomial
    roots = np.sort(np.roots(np.poly(A)).real)
    assert np.allclose(np.sort(lam), roots, atol=1e-8)
    # rows orthonormal
    assert np.max(np.abs(T @ T.T - np.eye(5))) < 1e-12


def test_diagonalize_rejects_asymmetric():
    with pytest.raises(ValueError):
        diagonalize_signal(np.array([[0.0, 1.0], [0.5, 0.0]]))


def test_diagonalize_rejects_negative_leading():
    with pytest.raises(SupermodeDataError):
        diagonalize_signal(np.array([[-1.0]]))


# -------------------------------------------------------------------- tensors

def test_tensor_label1_diagonal():
    sm = desk_set()
    G1 = sm.tensors[sm.pump_labels.index(1)]
    assert np.array_equal(G1, np.diag(sm.eigenvalues))  # no off-diagonal round-off


def test_even_label_tensors_vanish_on_retained_block():
    sm = build_supermodes(DESK, Np=4.0, n_signal=4, k_max=8, odd_only=False)
    lam1 = sm.lambda1
    for label, G in zip(sm.pump_labels, sm.tensors):
        if label % 2 == 0:
            assert np.max(np.abs(G)) < 1e-10 * lam1, f"label {label} tensor nonzero"


def test_selection_rule_entries_are_exactly_zero_under_magnitude_retention():
    # magnitude retention keeps an odd-parity supermode, so every label's tensor has entries
    # the rule forbids; they held round-off up to 1.2e-15 before the builder zeroed them
    sm = build_supermodes(DESK, Np=4.0, n_signal=3, k_max=9, odd_only=False,
                          parity_retention="magnitude")
    p = np.array(sm.parities)
    assert sorted(set(p)) == [-1, 1]
    for label, G in zip(sm.pump_labels, sm.tensors):
        forbidden = (-1) ** (label - 1) * np.outer(p, p) == -1
        assert forbidden.any() and np.all(G[forbidden] == 0.0)


def test_parity_selection_rule_full_basis():
    # on the full (unretained) eigenbasis the rule is
    # G^(k)_ij = 0 whenever (-1)^(k-1) parity_i parity_j = -1
    F = coupling_matrix(DESK)
    R = hermite_gaussian_basis(4.0, DESK.pump_indices, 6)
    Fp = transform_pump(F, R)
    T, lam = diagonalize_signal(Fp[0])
    G = coupling_tensors(Fp, T)
    pars = [parity_signature(T[i]) for i in range(T.shape[0])]
    assert all(p != 0 for p in pars[:8])
    for k0, Gk in enumerate(G):  # k0 = label-1 = Hermite order
        for i in range(8):
            for j in range(8):
                if (-1) ** k0 * pars[i] * pars[j] == -1:
                    assert abs(Gk[i, j]) < 1e-10 * lam[0]


def test_single_mode_restriction_tensor():
    p = DispersionParams(beta1=0.0, beta2s=0.04, beta2p=0.01, g0=1.0, M=1)
    F = coupling_matrix(p)
    R = hermite_gaussian_basis(1.5, p.pump_indices, 1)
    Fp = transform_pump(F, R)
    # T selecting the center line m = 0 (array index M) reduces the tensor to
    # the center element of F'
    G = coupling_tensors(Fp, np.array([[0.0, 1.0, 0.0]]))
    assert G[0][0, 0] == pytest.approx(Fp[0][1, 1])


# ------------------------------------------------------------ signal basis

def test_signal_basis_rows_orthonormal():
    # T T^dag = I is what makes uniform comb-line loss kappa * identity on the
    # supermodes, the loss term the models and the mean field use
    T = desk_set(n_signal=3).signal_basis
    assert np.allclose(T @ T.conj().T, np.eye(3), rtol=0.0, atol=1e-12)


# ------------------------------------------------------------------ builder

def test_builder_retains_even_parity_with_descending_magnitude():
    sm = desk_set()
    assert sm.parities == (1,) * 5
    mags = np.abs(sm.eigenvalues)
    assert np.all(np.diff(mags) < 0)
    assert sm.eigenvalues[0] > 0


def test_builder_odd_labels_only():
    sm = desk_set(k_max=9)
    assert sm.pump_labels == (1, 3, 5, 7, 9)


def test_spectrum_concentration_desk_default():
    sm = desk_set()
    assert (sm.eigenvalues[4] / sm.eigenvalues[0]) ** 2 < 0.5


def test_reconstruction_residual_decreases_with_retained_labels():
    # summing conj(R_kq) F'^(k) over retained k approaches the delta-selected
    # frequency-basis coefficients; the residual shrinks monotonically
    F = coupling_matrix(DESK)
    M = DESK.M
    count = 4 * M + 1
    R = hermite_gaussian_basis(4.0, DESK.pump_indices, count)
    Fp = transform_pump(F, R)
    m = np.arange(-M, M + 1)
    qindex = (m[:, None] + m[None, :]) + 2 * M
    target = np.zeros((count, 2 * M + 1, 2 * M + 1))
    for qi in range(count):
        target[qi] = np.where(qindex == qi, F, 0.0)
    residuals = []
    recon = np.zeros_like(target)
    for k in range(count):
        for qi in range(count):
            recon[qi] += R[k, qi] * Fp[k]
        residuals.append(np.sqrt(np.sum((recon - target) ** 2)))
    assert all(b <= a + 1e-12 for a, b in zip(residuals, residuals[1:]))
    # the complete basis reconstructs the delta-selected coefficients exactly
    assert residuals[-1] < 1e-12


def test_builder_rejects_odd_only_without_symmetry():
    p = DispersionParams(beta1=1e-3, beta2s=0.01, beta2p=0.0025, g0=1.0, M=10)
    with pytest.raises(SupermodeDataError):
        build_supermodes(p, Np=4.0, n_signal=3, k_max=9, odd_only=True)
    sm = build_supermodes(p, Np=4.0, n_signal=3, k_max=9, odd_only=False,
                          parity_retention="magnitude")
    assert sm.pump_labels == tuple(range(1, 10))


def test_builder_rejects_odd_only_with_magnitude_retention():
    # magnitude retention keeps an odd-parity supermode, so even-label tensors are not zero
    full = desk_set(n_signal=3, odd_only=False, parity_retention="magnitude")
    assert full.parities == (1, -1, 1)
    even_label = [G for k, G in zip(full.pump_labels, full.tensors) if k % 2 == 0]
    assert min(np.max(np.abs(G)) for G in even_label) > 0.5
    with pytest.raises(SupermodeDataError, match="odd_only"):
        desk_set(n_signal=3, parity_retention="magnitude")


@pytest.mark.parametrize("field, value", [("g0", -1.0), ("g0", 0.0), ("M", -1)])
def test_builder_rejects_out_of_range_dispersion(field, value):
    # a directly built DispersionParams meets no config rule: the builder names the field
    # before numpy warns on sqrt(g0) or the pump count goes negative
    params = dataclasses.replace(DESK, **{field: value})
    with pytest.raises(ValueError, match=f"^{field} must be") as err:
        build_supermodes(params, Np=4.0, n_signal=3, k_max=9)
    assert type(err.value) is ValueError


def test_single_mode_set_shape():
    sm = single_mode_set(2.0)
    assert sm.lambda1 == 2.0
    assert sm.tensors[sm.pump_labels.index(1)][0, 0] == 2.0
    assert sm.n_signal == 1
