import math
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from spopo import analysis
from spopo.analysis import (
    cat_fidelity,
    cat_state,
    flux_spectrum_pump,
    flux_spectrum_signal,
    pump_input_profile,
    purity,
    wigner,
)
from spopo.dynamics import steady_state
from spopo.hilbert import (
    DensityOperator,
    FockSpace,
    TruncationWarning,
    annihilation,
    coherent_state,
    fock_state,
    vacuum_state,
)
from spopo.model import build_spopo
from spopo.phasematch import DispersionParams
from spopo.supermode import build_supermodes

from oracles import cat_two_branch, gram_expectations_products

DESK = DispersionParams(beta1=0.0, beta2s=0.01, beta2p=0.0025, g0=1.0, M=10)
GRID = np.linspace(-4.5, 4.5, 121)


def wigner_bruteforce(rho: DensityOperator, x, p, pad=48):
    """Independent oracle: displaced parity, W_alpha = (2/pi) tr[D(-a) rho D(a) P].

    The state is zero-padded into a larger space so expm approximates the true
    displacement; the factor 1/2 converts from per-d^2alpha to per-dx-dp under
    alpha = (x + i p)/sqrt(2).
    """
    cutoff = rho.space.cutoffs[0]
    big = np.zeros((pad, pad), dtype=complex)
    big[:cutoff, :cutoff] = rho.matrix
    a = annihilation(FockSpace((pad,)), 0).matrix.toarray()
    parity = np.diag((-1.0) ** np.arange(pad))
    W = np.empty((len(p), len(x)))
    for i, pv in enumerate(p):
        for j, xv in enumerate(x):
            alpha = (xv + 1j * pv) / math.sqrt(2)
            D = expm(alpha * a.conj().T - np.conj(alpha) * a)
            W[i, j] = (1 / math.pi) * np.real(np.trace(D.conj().T @ big @ D @ parity))
    return W


# --------------------------------------------------------------------- wigner

def test_wigner_vacuum_peak():
    s = FockSpace((8,))
    wg = wigner(vacuum_state(s).to_density(), GRID, GRID)
    center = np.argmin(np.abs(GRID))
    assert wg.W[center, center] == pytest.approx(1 / math.pi, rel=1e-10)
    assert wg.integral() == pytest.approx(1.0, abs=1e-3)
    assert np.min(wg.W) > -1e-12  # Gaussian state: nonnegative


def test_wigner_fock1_negative_at_origin():
    s = FockSpace((8,))
    wg = wigner(fock_state(s, (1,)).to_density(), GRID, GRID)
    center = np.argmin(np.abs(GRID))
    assert wg.W[center, center] == pytest.approx(-1 / math.pi, rel=1e-10)


def test_wigner_cat_negativity():
    s = FockSpace((25,))
    cat = cat_state(s, 2.0)
    wg = wigner(cat.to_density(), GRID, GRID)
    assert wg.min_value() < -0.05
    assert wg.integral() == pytest.approx(1.0, abs=1e-3)


@pytest.mark.filterwarnings("ignore::UserWarning")  # probe grid is deliberately small
def test_wigner_matches_bruteforce_oracle():
    rng = np.random.default_rng(2)
    s = FockSpace((7,))
    m = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
    rho = m @ m.conj().T
    rho /= np.trace(rho).real
    xs = np.linspace(-2.0, 2.0, 7)
    ps = np.linspace(-1.5, 1.5, 5)
    fast = wigner(DensityOperator(s, rho), xs, ps)
    slow = wigner_bruteforce(DensityOperator(s, rho), xs, ps)
    assert np.max(np.abs(fast.W - slow)) < 1e-8


def test_wigner_small_grid_warns():
    s = FockSpace((20,))
    small = np.linspace(-1.0, 1.0, 21)
    with pytest.warns(UserWarning, match="integral"):
        wigner(coherent_state(s, 2.0).to_density(), small, small)


def test_wigner_rejects_multimode():
    s = FockSpace((3, 3))
    with pytest.raises(ValueError):
        wigner(vacuum_state(s).to_density(), GRID, GRID)


def test_wigner_gaussian_mixture_nonnegative():
    s = FockSpace((20,))
    rho = 0.5 * coherent_state(s, 1.0).to_density().matrix \
        + 0.5 * coherent_state(s, -1.0).to_density().matrix
    wg = wigner(DensityOperator(s, rho), GRID, GRID)
    assert wg.min_value() > -1e-10


# --------------------------------------------------------------------- purity

def test_purity_cases():
    s = FockSpace((4,))
    assert purity(fock_state(s, (2,)).to_density()) == pytest.approx(1.0)
    assert purity(DensityOperator(s, np.eye(4) / 4)) == pytest.approx(0.25)
    mix = 0.5 * fock_state(s, (0,)).to_density().matrix \
        + 0.5 * fock_state(s, (1,)).to_density().matrix
    assert purity(DensityOperator(s, mix)) == pytest.approx(0.5)


# ------------------------------------------------------------------- fidelity

def test_cat_fidelity_pure_cat():
    s = FockSpace((25,))
    assert cat_fidelity(cat_state(s, 2.0).to_density(), 2.0) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("p, cutoff", [(0.0, 10), (2.0, 25), (2.0, 6), (0.5, 2)])
def test_cat_state_is_the_two_branch_sum(p, cutoff):
    # one coherent recurrence gives every value of the two-branch cat, and a truncating
    # cutoff warns once, where the two branches warned twice; the sign of a zero part can
    # differ, as -alpha's recurrence rounds its zeros apart from +alpha's
    s = FockSpace((cutoff,))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = cat_state(s, p)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        want = cat_two_branch(s, p)
    assert np.array_equal(got.amplitudes, want.amplitudes)
    truncating = [w for w in caught if issubclass(w.category, TruncationWarning)]
    assert len(truncating) == (cutoff < 10) and len(caught) == len(truncating)


def test_cat_fidelity_p0_is_vacuum_overlap():
    s = FockSpace((10,))
    rho = fock_state(s, (1,)).to_density()
    mixed = 0.25 * vacuum_state(s).to_density().matrix + 0.75 * rho.matrix
    assert cat_fidelity(DensityOperator(s, mixed), 0.0) == pytest.approx(0.25, abs=1e-12)


def test_cat_fidelity_dephased_mixture_closed_form():
    # mixture of the two coherent branches: F = (1 + e^{-2p}) / 2, from
    # <cat|alpha> = sqrt((1 + e^{-2p}) / 2) for both branches
    p = 2.0
    s = FockSpace((30,))
    alpha = 1j * math.sqrt(p)
    mix = 0.5 * coherent_state(s, alpha).to_density().matrix \
        + 0.5 * coherent_state(s, -alpha).to_density().matrix
    expected = (1 + math.exp(-2 * p)) / 2
    assert expected == pytest.approx(0.5091578, abs=1e-7)
    assert cat_fidelity(DensityOperator(s, mix), p) == pytest.approx(expected, abs=1e-9)


# --------------------------------------------------------------------- fluxes

@pytest.fixture(scope="module")
def lossy_pair():
    sm = build_supermodes(DESK, Np=4.0, n_signal=2, k_max=9)
    mdl = build_spopo(sm, r=0.8, eta=1.0, cutoffs=(8, 5))
    rho = steady_state(mdl)
    return sm, mdl, rho


def test_signal_flux_vacuum_zero(lossy_pair):
    sm, mdl, _ = lossy_pair
    vac = vacuum_state(mdl.space).to_density()
    out = flux_spectrum_signal(vac, sm)
    assert np.allclose(out["flux"], 0.0, atol=1e-14)


def test_signal_flux_single_photon_profile(lossy_pair):
    sm, mdl, _ = lossy_pair
    rho = fock_state(mdl.space, (1, 0)).to_density()
    out = flux_spectrum_signal(rho, sm)
    expected = 2.0 * np.abs(sm.signal_basis[0]) ** 2
    assert np.allclose(out["flux"], expected, atol=1e-12)


def test_signal_flux_parseval(lossy_pair):
    sm, mdl, rho = lossy_pair
    out = flux_spectrum_signal(rho, sm)
    total = out["flux"].sum()
    n_ops = [annihilation(mdl.space, i).matrix for i in range(2)]
    expected = 2.0 * sum(
        np.real(np.trace((op.conj().T @ op).toarray() @ rho.matrix)) for op in n_ops
    )
    assert total == pytest.approx(expected, rel=1e-10)


def test_pump_flux_vacuum_no_drive():
    sm = build_supermodes(DESK, Np=4.0, n_signal=2, k_max=9)
    mdl = build_spopo(sm, r=0.0, eta=1.0, cutoffs=(8, 5))
    vac = vacuum_state(mdl.space).to_density()
    out = flux_spectrum_pump(vac, mdl, sm)
    assert np.allclose(out["flux"], 0.0, atol=1e-14)


def test_pump_flux_reproduces_input_profile_without_interaction():
    # zero out the quadratic couplings, keep the drive: flux = (r^2/4 eta)|R_1q|^2
    sm = build_supermodes(DESK, Np=4.0, n_signal=2, k_max=9)
    r, eta = 0.6, 1.0
    mdl = build_spopo(sm, r=r, eta=eta, cutoffs=(6, 4))
    from scipy import sparse
    from spopo.hilbert import LinearOperator
    from spopo.model import Lindblad, OpenSystemModel
    dim = mdl.space.dim
    stripped = []
    for lb in mdl.nonlinear_lindblads():
        if lb.index == 1:
            const = (r / (2 * math.sqrt(eta))) * sparse.identity(dim, dtype=complex)
            stripped.append(Lindblad(LinearOperator(mdl.space, const), "nonlinear", 1, True))
        else:
            stripped.append(Lindblad(
                LinearOperator(mdl.space, sparse.csr_matrix((dim, dim), dtype=complex)),
                "nonlinear", lb.index, False))
    free = OpenSystemModel(mdl.space, mdl.H, tuple(mdl.linear_lindblads()) + tuple(stripped),
                           mdl.params)
    vac = vacuum_state(mdl.space).to_density()
    out = flux_spectrum_pump(vac, free, sm)
    assert np.allclose(out["flux"], pump_input_profile(sm, r, eta), atol=1e-12)


def test_pump_flux_depletion_below_threshold(lossy_pair):
    sm, mdl, rho = lossy_pair
    out = flux_spectrum_pump(rho, mdl, sm)
    profile = pump_input_profile(sm, 0.8, 1.0)
    q0 = np.argwhere(out["q"] == 0)[0][0]
    assert out["flux"][q0] < profile[q0]
    assert np.all(out["completeness"] <= 1.0 + 1e-12)


@pytest.mark.parametrize("r", [0.63, 1.19])
def test_gram_expectations_match_the_operator_products_oracle(r):
    # one sparse-dense product per operator, against the n^2 products A_a^dag A_b, on the
    # desk d=72 steady state below and above threshold: signal ladders and pump channels
    sm = build_supermodes(DESK, Np=4.0, n_signal=3, k_max=9)
    mdl = build_spopo(sm, r=r, eta=1.0, cutoffs=(6, 4, 3))
    rho = steady_state(mdl)
    for ops in ([annihilation(mdl.space, i).matrix for i in range(3)],
                [l.op.matrix for l in mdl.nonlinear_lindblads()]):
        got = analysis._gram_expectations(ops, rho)
        want = gram_expectations_products(ops, rho)
        assert got.shape == want.shape == (len(ops), len(ops))
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
