import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

from spopo import hilbert
from spopo.hilbert import (
    DensityOperator,
    FockSpace,
    StateVector,
    TruncationWarning,
    annihilation,
    coherent_state,
    creation,
    embed,
    expectation,
    fock_state,
    identity,
    number_operator,
    partial_trace,
    vacuum_state,
)


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
    a = annihilation(s, 0).to_dense()
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


def test_adjoint_involution_exact():
    s = FockSpace((3, 3))
    ops = [annihilation(s, 0), creation(s, 1), number_operator(s, 0)]
    for op in ops:
        roundtrip = op.dag().dag()
        assert (roundtrip.matrix != op.matrix).nnz == 0


def test_commutators_below_truncation_boundary():
    s = FockSpace((4, 3))
    eye = identity(s).to_dense()
    occs = list(np.ndindex(*s.cutoffs))
    for i in range(2):
        for j in range(2):
            ai, aj = annihilation(s, i), annihilation(s, j)
            comm = (ai @ aj.dag() - aj.dag() @ ai).to_dense()
            target = eye if i == j else np.zeros_like(eye)
            # exclude any basis state at the top level of mode i or j
            keep = [
                k for k, occ in enumerate(occs)
                if occ[i] < s.cutoffs[i] - 1 and occ[j] < s.cutoffs[j] - 1
            ]
            sub = np.ix_(keep, keep)
            assert np.allclose(comm[sub], target[sub], atol=1e-14)


def test_embedding_commutes_with_composition():
    s = FockSpace((2, 5, 3))
    c = s.cutoffs[1]
    rng = np.random.default_rng(3)
    # both products through the sparse path so the accumulation order matches
    A = sparse.csr_matrix(rng.normal(size=(c, c)) + 1j * rng.normal(size=(c, c)))
    B = sparse.csr_matrix(rng.normal(size=(c, c)) + 1j * rng.normal(size=(c, c)))
    lhs = embed(s, 1, A @ B)
    rhs = embed(s, 1, A) @ embed(s, 1, B)
    diff = lhs.matrix - rhs.matrix
    assert diff.nnz == 0 or np.max(np.abs(diff.toarray())) == 0.0


def test_expectation_trivial_cases():
    s = FockSpace((5,))
    n = number_operator(s, 0)
    assert expectation(n, vacuum_state(s)) == 0
    rho = fock_state(s, (2,)).to_density()
    assert expectation(identity(s), rho) == pytest.approx(1.0)
    assert expectation(n, rho) == pytest.approx(2.0)
    assert expectation(n, fock_state(s, (2,))) == pytest.approx(2.0)


def test_expectation_dimension_mismatch():
    with pytest.raises(ValueError):
        expectation(number_operator(FockSpace((3,)), 0), vacuum_state(FockSpace((4,))))


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
    n = expectation(number_operator(s, 0), psi).real
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


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=4))
def test_ladder_elements_property(row, col):
    s = FockSpace((6,))
    a = annihilation(s, 0).to_dense()
    expected = math.sqrt(col) if row == col - 1 else 0.0
    assert a[row, col] == pytest.approx(expected)
