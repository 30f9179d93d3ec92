import math

import numpy as np
import pytest
from scipy import sparse

from spopo import dynamics
from spopo.hilbert import FockSpace, LinearOperator, annihilation
from spopo.model import (
    Lindblad,
    ModelParams,
    OpenSystemModel,
    build_lossless,
    build_spopo,
    linearized_spectrum,
    liouvillian_matrix,
)
from spopo.phasematch import DispersionParams
from spopo.supermode import build_supermodes, single_mode_set

DESK = DispersionParams(beta1=0.0, beta2s=0.01, beta2p=0.0025, g0=1.0, M=10)


def desk_sm(n_signal=3, k_max=9):
    return build_supermodes(DESK, Np=4.0, n_signal=n_signal, k_max=k_max)


# ------------------------------------------------------------------- lossy

def test_unpumped_model_has_no_drive():
    mdl = build_spopo(single_mode_set(1.0), r=0.0, eta=1.0, cutoffs=(6,))
    assert mdl.H.norm() == 0.0
    L = mdl.nonlinear_lindblads()[0].op.to_dense()
    assert L[0, 0] == 0.0  # no constant term on the vacuum diagonal
    assert not mdl.nonlinear_lindblads()[0].pumped


def test_single_supermode_nonlinear_lindblad_form():
    # eta = 1, r = 1: L_nl = S^2 + 1/2
    mdl = build_spopo(single_mode_set(1.0), r=1.0, eta=1.0, cutoffs=(6,))
    s = FockSpace((6,))
    a = annihilation(s, 0)
    expected = (a @ a).to_dense() + 0.5 * np.eye(6)
    assert np.allclose(mdl.nonlinear_lindblads()[0].op.to_dense(), expected, atol=1e-15)


def test_hamiltonian_squeezing_coefficients():
    sm = desk_sm()
    r = 0.7
    mdl = build_spopo(sm, r=r, eta=1.0, cutoffs=(5, 4, 3))
    s = mdl.space
    H = mdl.H.to_dense()
    for i in range(3):
        a = annihilation(s, i)
        sq = (a @ a).to_dense()
        # coefficient of S_i^2 extracted against the vacuum-row matrix element
        row, col = np.argwhere(sq == sq.max())[0]
        coeff = H[row, col] / sq[row, col]
        assert coeff == pytest.approx(1j * r / 4 * sm.eigenvalues[i] / sm.lambda1)


def test_lindblad_ordering_contract():
    sm = desk_sm()
    mdl = build_spopo(sm, r=0.5, eta=1.0, cutoffs=(5, 4, 3))
    kinds = [(l.kind, l.index) for l in mdl.lindblads]
    assert kinds == [("linear", 1), ("linear", 2), ("linear", 3),
                     ("nonlinear", 1), ("nonlinear", 3), ("nonlinear", 5),
                     ("nonlinear", 7), ("nonlinear", 9)]
    assert [l.pumped for l in mdl.lindblads] == [False] * 3 + [True] + [False] * 4


def test_linear_lindblads_are_sqrt2_ladders():
    mdl = build_spopo(desk_sm(), r=0.3, eta=0.5, cutoffs=(4, 3, 2))
    for i, lb in enumerate(mdl.linear_lindblads()):
        a = annihilation(mdl.space, i)
        assert np.allclose(lb.op.to_dense(), math.sqrt(2) * a.to_dense())


def test_build_validation():
    sm = desk_sm()
    with pytest.raises(ValueError):
        build_spopo(sm, r=-0.1, eta=1.0, cutoffs=(4, 3, 2))
    with pytest.raises(ValueError):
        build_spopo(sm, r=0.5, eta=0.0, cutoffs=(4, 3, 2))
    with pytest.raises(ValueError):
        build_spopo(sm, r=0.5, eta=1.0, cutoffs=(4, 3))  # wrong cutoff count


# ----------------------------------------------------------------- lossless

def test_lossless_unpumped_single_mode():
    mdl = build_lossless(single_mode_set(1.0), p=0.0, cutoffs=(6,))
    s = FockSpace((6,))
    a = annihilation(s, 0)
    assert mdl.H.norm() == 0.0
    assert np.allclose(mdl.nonlinear_lindblads()[0].op.to_dense(), (a @ a).to_dense())
    assert mdl.linear_lindblads() == []


def test_lossless_constant_term_at_p2():
    mdl = build_lossless(single_mode_set(1.0), p=2.0, cutoffs=(6,))
    L = mdl.nonlinear_lindblads()[0].op.to_dense()
    assert L[0, 0] == pytest.approx(1.0)  # p/2 * lambda1 with lambda1 = 1


def test_lossless_channel_count_matches_odd_labels():
    sm = desk_sm(k_max=9)
    mdl = build_lossless(sm, p=2.0, cutoffs=(5, 4, 3))
    labels = [l.index for l in mdl.nonlinear_lindblads()]
    assert labels == [1, 3, 5, 7, 9]
    assert mdl.linear_lindblads() == []


# ---------------------------------------------------------------- restriction
# The cw counterpart of a comb model, restricted to the first supermode, is the
# model built on ``single_mode_set``: the CLI's cw-single path.

def test_restrict_single_mode_lossless_p2():
    single = build_lossless(single_mode_set(1.0), p=2.0, cutoffs=(8,))
    assert single.space.cutoffs == (8,)
    s = single.space
    a = annihilation(s, 0)
    expected_L = (a @ a).to_dense() + np.eye(8)
    assert np.allclose(single.nonlinear_lindblads()[0].op.to_dense(), expected_L)
    expected_H = 0.5j * ((a @ a).to_dense() - (a.dag() @ a.dag()).to_dense())
    assert np.allclose(single.H.to_dense(), expected_H)


def test_restrict_single_mode_lossy():
    single = build_spopo(single_mode_set(1.0), r=1.0, eta=1.0, cutoffs=(10,))
    s = single.space
    a = annihilation(s, 0)
    expected = (a @ a).to_dense() + 0.5 * np.eye(10)
    assert np.allclose(single.nonlinear_lindblads()[0].op.to_dense(), expected)
    assert len(single.linear_lindblads()) == 1


def test_restrict_p0_is_pure_two_photon_loss():
    single = build_lossless(single_mode_set(1.0), p=0.0, cutoffs=(6,))
    assert single.H.norm() == 0.0
    assert len(single.lindblads) == 1


# ------------------------------------------------------------------ spectrum

def test_linearized_spectrum_values():
    w = np.array([0.0, 1.0])
    assert np.allclose(linearized_spectrum(0.0, 1.0, w), [1.0, 1.0])
    assert linearized_spectrum(0.5, 1.0, [0.0])[0] == pytest.approx(9.0)
    assert linearized_spectrum(0.5, 1.0, [1e6])[0] == pytest.approx(1.0, abs=1e-5)


def test_linearized_spectrum_pole():
    S = linearized_spectrum(1.0, 1.0, [0.0, 1.0])
    assert np.isinf(S[0])
    assert S[1] == pytest.approx((1.0 + 4.0) / 1.0)


def test_linearized_spectrum_validation():
    with pytest.raises(ValueError):
        linearized_spectrum(-0.5, 1.0, [0.0])
    with pytest.raises(ValueError):
        linearized_spectrum(0.5, 0.0, [0.0])


# ---------------------------------------------------------------- invariants

def test_hamiltonian_hermitian():
    for mdl in (
        build_spopo(desk_sm(), r=0.9, eta=1.0, cutoffs=(5, 4, 3)),
        build_lossless(desk_sm(), p=2.0, cutoffs=(5, 4, 3)),
    ):
        assert abs(mdl.H.matrix - mdl.H.matrix.conj().T).max() < 1e-12


@pytest.mark.parametrize("build", [
    lambda: build_spopo(desk_sm(), r=1.2, eta=1.0, cutoffs=(4, 3, 2)),
    lambda: build_lossless(desk_sm(), p=2.0, cutoffs=(4, 3, 2)),
    lambda: build_spopo(build_supermodes(DESK, Np=4.0, n_signal=3, k_max=9, odd_only=False),
                        r=0.8, eta=1.0, cutoffs=(4, 3, 2)),
    lambda: build_lossless(build_supermodes(DESK, Np=4.0, n_signal=3, k_max=9, odd_only=False),
                           p=2.0, cutoffs=(4, 3, 2)),
    lambda: build_spopo(
        build_supermodes(DispersionParams(beta1=0.05, beta2s=0.01, beta2p=0.0025, g0=1.0, M=10),
                         Np=4.0, n_signal=3, k_max=9, odd_only=False,
                         parity_retention="magnitude"),
        r=0.8, eta=1.0, cutoffs=(4, 3, 2)),
    lambda: build_lossless(single_mode_set(1.0), p=2.0, cutoffs=(16,)),
], ids=["lossy", "lossless", "lossy-all-labels", "lossless-all-labels", "lossy-beta1",
        "cw-lossless"])
def test_model_builds_give_a_real_generator(build):
    # -iH and every Lindblad operator are real, so the generator drops nothing
    mdl = build()
    assert abs((-1j * mdl.H.matrix).imag).max() == 0.0
    assert all(abs(l.op.matrix.imag).max() == 0.0 for l in mdl.lindblads)
    gen = dynamics._MasterRHS(mdl)
    assert {op.dtype for op in [gen.C, *gen.Ls]} == {np.dtype(float)}


def test_displacement_equivalence_of_liouvillians():
    # D[L + alpha] with no Hamiltonian equals D[L] plus the squeezing drive
    # H = (i/2)(conj(alpha) L - alpha L^dag) at the superoperator level
    s = FockSpace((5,))
    a = annihilation(s, 0)
    L = a @ a
    alpha = 0.37
    H0 = LinearOperator(s, sparse.csr_matrix((5, 5), dtype=complex))
    displaced = OpenSystemModel(
        s, H0,
        (Lindblad(LinearOperator(s, L.matrix + alpha * sparse.identity(5, dtype=complex)),
                  "nonlinear", 1, True),),
        ModelParams("lossless", p=2 * alpha),
    )
    Hd = LinearOperator(s, 0.5j * (np.conj(alpha) * L.matrix - alpha * L.dag().matrix))
    undisplaced = OpenSystemModel(
        s, Hd, (Lindblad(L, "nonlinear", 1, False),), ModelParams("lossless", p=0.0),
    )
    gen_a = liouvillian_matrix(displaced).toarray()
    gen_b = liouvillian_matrix(undisplaced).toarray()
    assert np.max(np.abs(gen_a - gen_b)) < 1e-12


def test_lossy_and_lossless_generators_agree_after_rescaling():
    # dropping the linear-loss channels, the lossy generator in kappa = 1 units
    # equals eta times the lossless generator with p = r / eta
    sm = desk_sm(n_signal=2, k_max=5)
    r, eta = 0.8, 0.5
    cutoffs = (4, 3)
    lossy = build_spopo(sm, r=r, eta=eta, cutoffs=cutoffs)
    nl_only = OpenSystemModel(
        lossy.space, lossy.H, tuple(lossy.nonlinear_lindblads()), lossy.params
    )
    lossless = build_lossless(sm, p=r / eta, cutoffs=cutoffs)
    gen_a = liouvillian_matrix(nl_only).toarray()
    gen_b = liouvillian_matrix(lossless).toarray()
    assert np.max(np.abs(gen_a - eta * gen_b)) < 1e-12
