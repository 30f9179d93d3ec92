import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

from spopo import hilbert
from spopo.hilbert import (
    DensityOperator,
    FockSpace,
    LinearOperator,
    StateVector,
    TruncationWarning,
    annihilation,
    coherent_state,
    expectation,
    fock_state,
    number_operator,
    partial_trace,
    total_number_operator,
    vacuum_state,
)
from spopo.model import build_spopo
from spopo.phasematch import DispersionParams
from spopo.supermode import build_supermodes

import oracles


def test_space_validation():
    with pytest.raises(ValueError):
        FockSpace((1, 3))
    with pytest.raises(ValueError):
        FockSpace(())
    s = FockSpace((3, 4, 2))
    assert s.dim == 24
    assert s.mode_count == 3


def test_annihilation_cutoff_two_matrix():
    s = FockSpace((2,))
    a = annihilation(s, 0).matrix.toarray()
    assert np.array_equal(a, np.array([[0, 1], [0, 0]], dtype=complex))


def test_annihilation_kills_vacuum():
    s = FockSpace((3, 4))
    vac = vacuum_state(s)
    for m in range(2):
        out = annihilation(s, m).matrix @ vac.amplitudes
        assert np.all(out == 0)


def test_ladder_matrix_element():
    # <2|a|3> = sqrt(3) on a single mode with cutoff 4
    s = FockSpace((4,))
    a = annihilation(s, 0)
    bra = fock_state(s, (2,)).amplitudes
    ket = fock_state(s, (3,)).amplitudes
    assert np.vdot(bra, a.matrix @ ket) == pytest.approx(math.sqrt(3))


def test_mode_out_of_range():
    s = FockSpace((2, 2))
    with pytest.raises(IndexError):
        annihilation(s, 2)


def test_commutators_below_truncation_boundary():
    s = FockSpace((4, 3))
    eye = np.eye(s.dim)
    occs = list(np.ndindex(*s.cutoffs))
    for i in range(2):
        for j in range(2):
            ai, aj_dag = annihilation(s, i).matrix, annihilation(s, j).matrix.conj().T
            comm = (ai @ aj_dag - aj_dag @ ai).toarray()
            target = eye if i == j else np.zeros_like(eye)
            # exclude any basis state at the top level of mode i or j
            keep = [
                k for k, occ in enumerate(occs)
                if occ[i] < s.cutoffs[i] - 1 and occ[j] < s.cutoffs[j] - 1
            ]
            sub = np.ix_(keep, keep)
            assert np.allclose(comm[sub], target[sub], atol=1e-14)


@pytest.mark.parametrize("cutoffs", [(2,), (6, 4, 3), (10, 5, 3), (12, 6, 4), (16, 8, 6, 3)])
def test_operators_from_the_occupation_table_match_the_kronecker_reference(cutoffs):
    # the ladders and the pair operators bit for bit; the number operators exact integers
    # where the reference's a^dag a carries round-off, on the reference's sparsity
    s = FockSpace(cutoffs)
    assert s.occupations.T.tolist() == [list(n) for n in np.ndindex(*cutoffs)]
    assert not s.occupations.flags.writeable
    ref_total = 0
    for i in range(len(cutoffs)):
        assert oracles.same_csr(annihilation(s, i).matrix, oracles.kron_annihilation(cutoffs, i))
        n, ref = number_operator(s, i).matrix, oracles.kron_number_operator(cutoffs, i)
        assert np.array_equal(n.indptr, ref.indptr) and np.array_equal(n.indices, ref.indices)
        assert np.array_equal(n.diagonal(), s.occupations[i])
        ref_total = ref_total + ref
    n = total_number_operator(s).matrix
    assert np.array_equal(n.indptr, ref_total.indptr)
    assert np.array_equal(n.indices, ref_total.indices)
    assert np.array_equal(n.diagonal(), s.occupations.sum(axis=0))
    kron = [oracles.kron_annihilation(cutoffs, i) for i in range(len(cutoffs))]
    for i, j in np.ndindex(len(cutoffs), len(cutoffs)):
        unit = np.zeros((len(cutoffs),) * 2)
        unit[i, j] = 1.0
        assert oracles.same_csr(hilbert.pair_operator(s, unit).matrix, kron[i] @ kron[j])
    # a weighted sum, each product weighted and added in row-major order
    weights = np.random.default_rng(1).normal(size=(len(cutoffs),) * 2)
    weights[0, -1] = 0.0
    ref = sparse.csr_matrix((s.dim, s.dim), dtype=complex)
    for i, j in np.ndindex(weights.shape):
        if weights[i, j] != 0.0:
            ref = ref + weights[i, j] * (kron[i] @ kron[j])
    assert oracles.same_csr(hilbert.pair_operator(s, weights).matrix, ref)


def test_expectation_trivial_cases():
    s = FockSpace((5,))
    n = number_operator(s, 0)
    assert expectation(n, vacuum_state(s).to_density()) == 0
    rho = fock_state(s, (2,)).to_density()
    assert expectation(LinearOperator(s, sparse.identity(s.dim)), rho) == pytest.approx(1.0)
    assert expectation(n, rho) == pytest.approx(2.0)


def test_trace_product_matches_sparse_product_bit_for_bit():
    # on a desk comb's number operators, Lindblads and H (CSR), an adjoint (CSC) and a
    # product with unsorted indices, against a real and a complex dense rho
    desk = DispersionParams(beta1=0.0, beta2s=0.01, beta2p=0.0025, g0=1.0, M=10)
    mdl = build_spopo(build_supermodes(desk, Np=4.0, n_signal=3, k_max=9), r=1.19, eta=1.0,
                      cutoffs=(6, 4, 3))
    ops = [number_operator(mdl.space, i).matrix for i in range(3)]
    ops += [l.op.matrix for l in mdl.lindblads] + [mdl.H.matrix]
    ops += [ops[-2].conj().T, ops[-2].conj().T @ ops[3]]
    rng = np.random.default_rng(2)
    d = mdl.space.dim
    real = rng.normal(size=(d, d))
    for rho in (real, real + 1j * rng.normal(size=(d, d))):
        for op in ops:
            assert hilbert.trace_product(op, rho) == oracles.trace_product(op, rho)


def test_expectation_dimension_mismatch():
    with pytest.raises(ValueError):
        expectation(number_operator(FockSpace((3,)), 0), vacuum_state(FockSpace((4,))).to_density())


def test_partial_trace_product_state():
    sa, sb = FockSpace((3,)), FockSpace((4,))
    rho_a = coherent_state(sa, 0.1).to_density()
    rho_b = fock_state(sb, (1,)).to_density()
    s = FockSpace((3, 4))
    joint = DensityOperator(s, np.kron(rho_a.matrix, rho_b.matrix))
    red = partial_trace(joint, {0})
    assert np.allclose(red.matrix, rho_a.matrix, atol=1e-14)
    assert red.trace() == pytest.approx(1.0, abs=1e-12)


def test_partial_trace_maximally_entangled():
    s = FockSpace((2, 2))
    psi = (fock_state(s, (0, 0)).amplitudes + fock_state(s, (1, 1)).amplitudes) / math.sqrt(2)
    rho = StateVector(s, psi).to_density()
    for keep in ({0}, {1}):
        red = partial_trace(rho, keep)
        assert np.allclose(red.matrix, np.eye(2) / 2, atol=1e-15)


def test_partial_trace_keep_all_and_errors():
    s = FockSpace((2, 3))
    rho = vacuum_state(s).to_density()
    assert np.array_equal(partial_trace(rho, {0, 1}).matrix, rho.matrix)
    with pytest.raises(ValueError):
        partial_trace(rho, set())
    with pytest.raises(IndexError):
        partial_trace(rho, {5})


def test_partial_trace_matches_the_trace_loop_oracle():
    # one einsum against one np.trace per traced mode, for every keep set of a 3-mode state;
    # keeping every mode sums nothing, and the result is still a new array
    rng = np.random.default_rng(4)
    s = FockSpace((3, 2, 4))
    m = rng.normal(size=(24, 24)) + 1j * rng.normal(size=(24, 24))
    rho = DensityOperator(s, m @ m.conj().T / np.trace(m @ m.conj().T).real)
    for size in (1, 2, 3):
        for keep in itertools.combinations(range(3), size):
            got = partial_trace(rho, set(keep)).matrix
            want = oracles.partial_trace_loop(rho, keep)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-15, keep
    assert not np.shares_memory(partial_trace(rho, {0, 1, 2}).matrix, rho.matrix)


def test_partial_trace_preserves_trace_and_hermiticity():
    rng = np.random.default_rng(11)
    s = FockSpace((3, 2, 2))
    m = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    rho = m @ m.conj().T
    rho /= np.trace(rho)
    red = partial_trace(DensityOperator(s, rho), {0, 2})
    assert abs(red.trace() - 1.0) < 1e-12
    assert np.max(np.abs(red.matrix - red.matrix.conj().T)) == 0.0


def test_coherent_state_vacuum_limit():
    s = FockSpace((6,))
    assert np.allclose(coherent_state(s, 0.0).amplitudes, vacuum_state(s).amplitudes)


def test_coherent_state_poisson_mean():
    s = FockSpace((20,))
    psi = coherent_state(s, 1.0)
    n = expectation(number_operator(s, 0), psi.to_density()).real
    assert n == pytest.approx(1.0, abs=1e-6)


def test_coherent_state_truncation_warning():
    s = FockSpace((2,))
    with pytest.warns(TruncationWarning):
        coherent_state(s, 1j * math.sqrt(2))


@settings(max_examples=25, deadline=None)
@given(
    alpha=st.complex_numbers(max_magnitude=1.2, allow_nan=False, allow_infinity=False),
)
def test_coherent_state_normalized(alpha):
    s = FockSpace((25,))
    psi = coherent_state(s, alpha)
    assert psi.norm() == pytest.approx(1.0, abs=1e-12)


def test_to_density_exactly_hermitian_for_complex_amplitudes():
    # np.outer alone leaves max |rho - rho^dag| = 2.7e-17 and imaginary diagonal entries of
    # 1.3e-17 on this state
    psi = coherent_state(FockSpace((12,)), 0.8 + 0.6j)
    rho = psi.to_density().matrix
    assert np.array_equal(rho, rho.conj().T)
    assert np.all(np.diag(rho).imag == 0.0)
    assert np.max(np.abs(rho - np.outer(psi.amplitudes, psi.amplitudes.conj()))) <= 1e-16


def test_to_density_keeps_the_bits_of_real_amplitudes():
    s = FockSpace((4, 3))
    rng = np.random.default_rng(5)
    for psi in (vacuum_state(s), StateVector(s, rng.normal(size=s.dim)).normalized()):
        rho = psi.to_density().matrix
        assert rho.dtype == np.float64
        assert np.array_equal(rho, np.outer(psi.amplitudes, psi.amplitudes))


def test_fock_space_even_marks_even_total_photon_number():
    s = FockSpace((3, 2))  # flattened index 2 n_0 + n_1
    assert s.even.tolist() == [True, False, False, True, True, False]


@pytest.mark.parametrize("case, sizes", [
    ("weak", [6, 6]), ("strong", [6, 6]), ("coherence-real", [12]),
    ("coherence-complex", [12]),
])
def test_min_eigenvalue_on_parity_blocks_matches_the_whole_matrix(monkeypatch, case, sizes):
    # weak symmetry: both parity blocks nonzero; strong: the odd block is zero, so its
    # eigenvalue 0 is the least of a positive even block; one even-odd coherence: the whole
    # matrix, bit for bit
    s = FockSpace((4, 3))
    even = s.even
    rng = np.random.default_rng(11)
    a = rng.normal(size=(s.dim, s.dim))
    if case == "coherence-complex":
        a = a + 1j * rng.normal(size=(s.dim, s.dim))
    if case == "strong":
        rho = (a @ a.T + np.eye(s.dim)) * np.outer(even, even)
    else:
        rho = (a + a.conj().T) * (even[:, None] == even)
    if case.startswith("coherence"):
        i, j = np.flatnonzero(even)[2], np.flatnonzero(~even)[3]
        rho[i, j], rho[j, i] = a[i, j], np.conj(a[i, j])
    whole = float(np.linalg.eigvalsh((rho + rho.conj().T) / 2).min())
    seen, eigvalsh = [], np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: seen.append(m.shape[0]) or eigvalsh(m))
    got = DensityOperator(s, rho).min_eigenvalue()
    assert seen == sizes
    assert abs(got - whole) <= 1e-13
    if case == "strong":
        assert got == 0.0 < float(eigvalsh(rho[np.ix_(even, even)]).min())
    if case.startswith("coherence"):
        assert got == whole


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=4))
def test_ladder_elements_property(row, col):
    s = FockSpace((6,))
    a = annihilation(s, 0).matrix.toarray()
    expected = math.sqrt(col) if row == col - 1 else 0.0
    assert a[row, col] == pytest.approx(expected)
