import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spopo.phasematch import DispersionParams, coupling_matrix, is_parity_symmetric, sinc


def params(beta1=0.0, beta2s=0.01, beta2p=0.0025, g0=1.0, M=10):
    return DispersionParams(beta1=beta1, beta2s=beta2s, beta2p=beta2p, g0=g0, M=M)


def test_sinc_basics():
    assert sinc(0.0) == 1.0
    assert sinc(np.pi) == pytest.approx(0.0, abs=1e-15)
    x = 1e-5
    assert sinc(x) == pytest.approx(math.sin(x) / x, rel=1e-15)
    assert sinc(-2.0) == sinc(2.0)


def test_coupling_matrix_center_and_bound():
    p = params(g0=2.5)
    F = coupling_matrix(p)
    assert F[p.M, p.M] == math.sqrt(2.5)
    assert np.max(np.abs(F)) <= math.sqrt(2.5) + 1e-15


def test_coupling_matrix_exact_symmetry():
    p = params(beta1=3e-4, beta2s=0.012, beta2p=0.004, M=8)
    F = coupling_matrix(p)
    assert np.array_equal(F, F.T)
    assert not F.flags.writeable


def test_coupling_matrix_parity_for_even_mismatch():
    p = params(beta1=0.0)
    F = coupling_matrix(p)
    assert np.array_equal(F, F[::-1, ::-1])  # (m, n) -> (-m, -n)
    assert is_parity_symmetric(p)
    assert not is_parity_symmetric(params(beta1=1e-5))


def test_coupling_matrix_matches_scalar_loop():
    p = params(beta1=0.0, beta2p=5e-9, beta2s=1e-8, M=10)
    F = coupling_matrix(p)
    for m in range(-p.M, p.M + 1):
        for n in range(-p.M, p.M + 1):
            s = m + n
            phi = p.beta1 * s + p.beta2p * s * s - p.beta2s * (m * m + n * n)
            expected = math.sqrt(p.g0) * (math.sin(phi) / phi if phi != 0 else 1.0)
            assert F[m + p.M, n + p.M] == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_antidiagonal_envelope_monotone_until_first_zero():
    # along n = -m with beta1 = beta2p = 0 the weight decreases until 2 b2s m^2 = pi
    b2s = 0.012
    p = params(beta1=0.0, beta2s=b2s, beta2p=0.0, M=12)
    F = coupling_matrix(p)
    vals = [F[m + p.M, p.M - m] for m in range(0, p.M + 1)]
    first_zero = math.sqrt(math.pi / (2 * b2s))
    for m in range(1, p.M + 1):
        if m <= first_zero:
            assert vals[m] < vals[m - 1]


@settings(max_examples=30, deadline=None)
@given(
    beta1=st.floats(-1e-2, 1e-2),
    beta2s=st.floats(0.0, 0.05),
    beta2p=st.floats(0.0, 0.05),
)
def test_mismatch_symmetry_property(beta1, beta2s, beta2p):
    # exactly symmetric under m <-> n for any betas, and under (m, n) -> (-m, -n) at beta1 = 0
    F = coupling_matrix(params(beta1=beta1, beta2s=beta2s, beta2p=beta2p, M=5))
    assert np.array_equal(F, F.T)
    F0 = coupling_matrix(params(beta1=0.0, beta2s=beta2s, beta2p=beta2p, M=5))
    assert np.array_equal(F0, F0[::-1, ::-1])
