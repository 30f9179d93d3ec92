import math
import tracemalloc
import warnings
from functools import partial

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import expm
from scipy.special import ive
from scipy.sparse.linalg import LinearOperator as ScipyOperator, gmres, spsolve

from spopo import analysis, dynamics
from spopo.dynamics import (
    ConvergenceError,
    SimulationRecord,
    ensemble_mean,
    evolve_master,
    homodyne_spectrum,
    rotated_channel,
    sse_ensemble,
    sse_trajectory,
    steady_state,
)
from spopo.hilbert import (
    DensityOperator,
    FockSpace,
    LinearOperator,
    StateVector,
    annihilation,
    coherent_state,
    expectation,
    fock_state,
    number_operator,
    total_number_operator,
    vacuum_state,
)
from spopo.model import (
    Lindblad,
    ModelParams,
    OpenSystemModel,
    build_lossless,
    build_spopo,
    liouvillian_matrix,
)
from spopo.phasematch import DispersionParams
from spopo.supermode import build_supermodes, single_mode_set

import oracles
from oracles import linearized_spectrum, mean_field, noise_streams, sse_ensemble_at_once


def zero_op(space):
    return LinearOperator(space, sparse.csr_matrix((space.dim, space.dim), dtype=complex))


def damped_cavity(cutoff=12, kappa=1.0):
    space = FockSpace((cutoff,))
    a = annihilation(space, 0)
    L = math.sqrt(2.0 * kappa) * a
    return OpenSystemModel(
        space, zero_op(space), (Lindblad(L, "linear", 1),), ModelParams("lossy")
    )


def free_model(cutoff=5):
    space = FockSpace((cutoff,))
    return OpenSystemModel(space, zero_op(space), (), ModelParams("lossy"))


def driven_cavity(cutoff=12):
    # a coherent drive mixes photon-number parities: no parity symmetry
    space = FockSpace((cutoff,))
    a = annihilation(space, 0)
    drive = LinearOperator(space, 0.5j * (a.matrix.conj().T - a.matrix))
    return OpenSystemModel(
        space, drive, (Lindblad(math.sqrt(2.0) * a, "linear", 1),), ModelParams("lossy")
    )


def vacuum_generator(mdl):
    """The generator on the blocks of rho that evolution from the vacuum leaves nonzero."""
    return dynamics._MasterRHS(mdl, vacuum_state(mdl.space).to_density().matrix)


def trace_distance(rho_a, rho_b):
    diff = rho_a.matrix - rho_b.matrix
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(diff))))


# ------------------------------------------------------------- master equation

def test_free_evolution_is_constant():
    mdl = free_model()
    rho0 = fock_state(mdl.space, (3,)).to_density()
    t = np.linspace(0, 2, 5)
    rec = evolve_master(mdl, rho0, t, {"n": number_operator(mdl.space, 0)})
    assert np.allclose(rec.observables["n"].real, 3.0, atol=1e-9)
    assert np.allclose(rec.final_state.matrix, rho0.matrix, atol=1e-9)


def test_damped_cavity_closed_form():
    kappa = 1.0
    mdl = damped_cavity(kappa=kappa)
    rho0 = coherent_state(mdl.space, 1.0).to_density()
    t = np.linspace(0, 3, 13)
    a = annihilation(mdl.space, 0)
    rec = evolve_master(mdl, rho0, t, {"a": a})
    assert np.allclose(rec.observables["a"].real, np.exp(-kappa * t), atol=1e-6)
    assert np.max(np.abs(rec.observables["a"].imag)) < 1e-8


def test_master_trace_and_positivity_guarantees():
    mdl = build_lossless(single_mode_set(1.0), p=2.0, cutoffs=(16,))
    t = np.linspace(0, 4, 9)
    rec = evolve_master(mdl, vacuum_state(mdl.space).to_density(), t, keep_states=True)
    for rho in rec.extras["states"]:
        assert abs(rho.trace() - 1.0) < 1e-8
        assert np.max(np.abs(rho.matrix - rho.matrix.conj().T)) == 0.0
        assert rho.min_eigenvalue() > -1e-8


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("sign", [1, -1], ids=["hermitian", "anti-hermitian"])
@pytest.mark.parametrize("family, sizes", [
    ("lossy-comb", [12, 12]), ("cw-lossless", [8]), ("coherent-drive", [12]),
    ("two-mode-lossless", [9]), ("two-mode-lossy", [9, 9, 9, 9]),
], ids=["lossy-comb", "cw-lossless", "coherent-drive", "per-mode-parity-lossless",
        "per-mode-parity-lossy"])
def test_generator_action_matches_liouvillian_matrix(family, sizes, sign, dtype):
    # the one action on a state with rho^dag = sign rho, away from the steady state, against
    # the superoperator, on the d x d state and on the vacuum's blocks: the even and the odd
    # total photon number, the even alone, one block of every index, and with each mode's
    # parity conserved the both-even block alone or all four parity pairs
    if family.startswith("two-mode"):
        mdl = two_mode_comb(lossless=family == "two-mode-lossless")
    elif family == "lossy-comb":
        desk = DispersionParams(beta1=0.0, beta2s=0.01, beta2p=0.0025, g0=1.0, M=10)
        sm = build_supermodes(desk, Np=4.0, n_signal=3, k_max=9)
        mdl = build_spopo(sm, r=1.2, eta=1.0, cutoffs=(4, 3, 2))
    elif family == "cw-lossless":
        mdl = build_lossless(single_mode_set(1.0), p=2.0, cutoffs=(16,))
    else:
        mdl = driven_cavity()
    d = mdl.space.dim
    rng = np.random.default_rng(11)
    X = rng.normal(size=(d, d)).astype(dtype)
    if dtype is complex:
        X += 1j * rng.normal(size=(d, d))
    rho = (X + sign * X.conj().T) / 2.0
    blocked = vacuum_generator(mdl)
    assert blocked.sizes == sizes
    h = blocked.pack(rho)
    for rhs, state in ((dynamics._MasterRHS(mdl), rho), (blocked, blocked.unpack(h, sign))):
        got = rhs.unpack(rhs.apply(rhs.pack(state), sign), sign)
        want = (liouvillian_matrix(mdl) @ state.ravel()).reshape(d, d)
        assert got.dtype == rho.dtype
        err = np.max(np.abs(got - want))
        assert err < 1e-12 and err <= 1e-14 * np.max(np.abs(want))
        assert np.array_equal(got, sign * got.conj().T)


def desk_comb(cutoffs, r=1.19):
    """A rung of the desk ladder: DESK dispersion, three supermodes, r=1.19 unless given,
    eta=1."""
    desk = DispersionParams(beta1=0.0, beta2s=0.01, beta2p=0.0025, g0=1.0, M=10)
    return build_spopo(build_supermodes(desk, Np=4.0, n_signal=3, k_max=9), r=r, eta=1.0,
                       cutoffs=cutoffs)


def two_mode_comb(lossless):
    """Desk dispersion, two supermodes and the Gaussian pump supermode alone (k_max 1), at
    cutoffs (6, 6), lossless at p=2 or lossy at r=1.2, eta=1: the one pump channel and the
    Hamiltonian keep each mode's photon-number parity, and each linear loss flips its own."""
    desk = DispersionParams(beta1=0.0, beta2s=0.01, beta2p=0.0025, g0=1.0, M=10)
    sm = build_supermodes(desk, Np=4.0, n_signal=2, k_max=1)
    if lossless:
        return build_lossless(sm, p=2.0, cutoffs=(6, 6))
    return build_spopo(sm, r=1.2, eta=1.0, cutoffs=(6, 6))


@pytest.mark.parametrize("cutoffs", [(6, 4, 3), (10, 5, 3)])
def test_desk_vacuum_blocks_are_the_total_parity_blocks(cutoffs):
    # the benchmark's layouts, and with them its bits: the even then the odd total photon
    # number, each in index order, and each L's (target, source) pairs in target order, a
    # pump channel keeping each block and a linear loss swapping them
    mdl = desk_comb(cutoffs)
    rhs = vacuum_generator(mdl)
    even = mdl.space.even
    assert len(rhs.blocks) == 2
    for got, want in zip(rhs.blocks, [np.flatnonzero(even), np.flatnonzero(~even)]):
        assert np.array_equal(got, want)
    flips = [l.kind == "linear" for l in mdl.lindblads]
    assert [(a, b) for a, b, _ in rhs._half_Ls] == [(a, a ^ f) for f in flips for a in (0, 1)]


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("sign", [1, -1], ids=["hermitian", "anti-hermitian"])
@pytest.mark.parametrize("layout", ["parity-blocks", "d-by-d"])
def test_half_layout_round_trips(layout, sign, dtype):
    # a state with rho^dag = sign rho is its blocks' upper triangles, bit for bit, and the
    # half's norm is the state's Frobenius norm
    mdl = sse_comb_model()
    rhs = vacuum_generator(mdl) if layout == "parity-blocks" else dynamics._MasterRHS(mdl)
    assert len(rhs.sizes) == (2 if layout == "parity-blocks" else 1)
    d = mdl.space.dim
    rng = np.random.default_rng(5)
    X = rng.normal(size=(d, d)).astype(dtype)
    if dtype is complex:
        X += 1j * rng.normal(size=(d, d))
    on_blocks = np.zeros((d, d), dtype=bool)
    for b in rhs.blocks:
        on_blocks[np.ix_(b, b)] = True
    rho = np.where(on_blocks, X + sign * X.conj().T, 0.0)
    h = rhs.pack(rho)
    assert h.size == sum(n * (n + 1) // 2 for n in rhs.sizes)
    assert np.array_equal(rhs.unpack(h, sign), rho)
    assert abs(rhs.norm(h) - np.linalg.norm(rho)) <= 4 * np.spacing(np.linalg.norm(rho))


def test_half_layout_indices_are_built_on_first_use(monkeypatch):
    # the SSE uses C and the Ls alone and never the half layout, whose index arrays on the
    # d x d block take about d^2 integers
    built = []

    class RecordingRHS(dynamics._MasterRHS):
        def __init__(self, model):
            super().__init__(model)
            built.append(self)

    monkeypatch.setattr(dynamics, "_MasterRHS", RecordingRHS)
    mdl = sse_comb_model()
    sse_ensemble(mdl, vacuum_state(mdl.space), np.linspace(0.0, 0.01, 2), 2, seed=4)
    [rhs] = built
    assert "_triangle" not in vars(rhs)
    rhs.apply(rhs.pack(np.eye(mdl.space.dim)))
    assert "_triangle" in vars(rhs)


@pytest.mark.parametrize("case", ["desk-d150", "desk-d72-complex", "cw-complex"])
def test_master_half_sums_match_full_sums_oracle(monkeypatch, case):
    # every Chebyshev term is exactly Hermitian, so the sums held as halves give the whole
    # sums' states bit for bit: from the vacuum on the d=150 rung's parity blocks, from a
    # complex Hermitian state on them, and from a coherent state on the d x d layout
    if case == "cw-complex":
        mdl, rho0, t = stepper_case(case)
    else:
        mdl = desk_comb((10, 5, 3) if case == "desk-d150" else (6, 4, 3))
        psi = vacuum_state(mdl.space).amplitudes.astype(complex)
        if case == "desk-d72-complex":
            psi = (psi + 1j * fock_state(mdl.space, (2, 0, 0)).amplitudes) / math.sqrt(2.0)
        rho0, t = StateVector(mdl.space, psi).to_density(), np.linspace(0.0, 5.0, 51)
    obs = {f"n_{i}": number_operator(mdl.space, i) for i in range(mdl.space.mode_count)}
    got = evolve_master(mdl, rho0, t, obs, keep_states=True)
    monkeypatch.setattr(dynamics, "_chebyshev", oracles.chebyshev_full)
    want = evolve_master(mdl, rho0, t, obs, keep_states=True)
    assert got.extras["rhs_evaluations"] == want.extras["rhs_evaluations"]
    for a, b in zip(got.extras["states"], want.extras["states"], strict=True):
        assert np.array_equal(a.matrix, b.matrix)
    for name in obs:
        assert np.array_equal(got.observables[name], want.observables[name])


def test_master_half_sums_cut_the_propagator_peak(monkeypatch):
    # d=150 with 51 outputs: one expansion's sums, 50 packed states when whole, set the peak
    mdl = desk_comb((10, 5, 3))
    rho0, t = vacuum_state(mdl.space).to_density(), np.linspace(0.0, 5.0, 51)

    def peak():
        tracemalloc.start()
        try:
            evolve_master(mdl, rho0, t)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak()  # first-call allocations
    half = peak()
    monkeypatch.setattr(dynamics, "_chebyshev", oracles.chebyshev_full)
    assert half <= 0.7 * peak()


@pytest.mark.parametrize("cutoffs, r", [((10, 5, 3), 1.19), ((6, 4, 3), 4.0)],
                         ids=["10-5-3", "6-4-3-r4"])
def test_steady_state_half_layout_matches_full_layout_oracle(cutoffs, r):
    # GMRES minimizes the half vector's norm, which counts each off-diagonal pair once.  Far
    # above threshold the basis grows to about 135 vectors, over three pages
    rhs = vacuum_generator(desk_comb(cutoffs, r))
    got, built = dynamics._krylov_solve(rhs)
    want, built_full = oracles.krylov_solve_full(rhs)
    assert np.max(np.abs(got - want)) <= 1e-12
    assert abs(built - built_full) <= 2


def test_krylov_solve_holds_one_basis_page():
    # the 41-vector solve on (6,4,3), r=0.63 fits one page of KRYLOV_PAGE_ROWS half vectors,
    # 0.68 MB; beside it the solve's vectors and the generator's whole blocks took 17 half
    # vectors, where a reservation of KRYLOV_MAX_DIM + 1 rows took 4.27 MB
    rhs = vacuum_generator(desk_comb((6, 4, 3), r=0.63))
    dynamics._krylov_solve(rhs)  # the generator's index arrays, built on first use
    tracemalloc.start()
    try:
        _, built = dynamics._krylov_solve(rhs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    half = 8 * sum(n * (n + 1) // 2 for n in rhs.sizes)  # bytes of one half vector
    assert built < dynamics.KRYLOV_PAGE_ROWS
    assert peak <= (dynamics.KRYLOV_PAGE_ROWS + 32) * half


def test_norm_rescales_only_a_sum_of_squares_that_overflows():
    # 1e200 squared overflows, its norm does not; every other norm keeps its bits
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert dynamics._norm(np.array([1e200, 1e200])) == pytest.approx(math.sqrt(2) * 1e200,
                                                                         rel=1e-15)
    v = np.random.default_rng(3).standard_normal(1000) * 1e150
    assert dynamics._norm(v) == float(np.sqrt(np.sum(np.square(np.abs(v)))))
    assert dynamics._norm(np.array([np.inf, 1.0])) == np.inf
    assert np.isnan(dynamics._norm(np.array([np.nan, 1e200])))


def test_half_norm_rescales_only_a_sum_of_squares_that_overflows():
    # a 3 x 3 state of entries 1e200 has norm 3e200, where 2 inf - inf once gave nan
    rhs = dynamics._MasterRHS(build_lossless(single_mode_set(1.0), 2.0, (3,)))
    big = rhs.pack(np.full((3, 3), 1e200))
    with np.errstate(all="ignore"):
        assert rhs.norm(big) == pytest.approx(3e200, rel=1e-15)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and the overflow is not reported
        rhs.norm(big)
    h = rhs.pack(np.random.default_rng(3).standard_normal((3, 3)) * 1e150)
    squares = np.square(np.abs(h))
    assert rhs.norm(h) == float(np.sqrt(2.0 * np.sum(squares) - np.sum(squares[[0, 3, 5]])))
    assert np.isnan(rhs.norm(np.array([np.nan, 1e200, 0.0, 0.0, 0.0, 0.0])))


@pytest.mark.parametrize("phase", [-90.0, -30.0])
def test_spectrum_half_layout_matches_full_layout_oracle(phase):
    # at -90 degrees A0' is one antisymmetric part, at -30 degrees both parts
    mdl = desk_comb((6, 4, 3))
    rho = steady_state(mdl)
    chan = rotated_channel(mdl.linear_lindblads()[0].op, phase)
    w = np.linspace(0.0, 6.0, 31)
    got = homodyne_spectrum(mdl, chan, w, rho)
    want = oracles.homodyne_spectrum_full(mdl, chan, w, rho)
    assert np.max(np.abs(got.S / want.S - 1.0)) <= 1e-12
    assert abs(got.metadata["krylov_dimension"] - want.metadata["krylov_dimension"]) <= 2


def test_spectrum_at_any_phase_mixes_the_two_quadratures():
    # the generator, L and rho_ss are real: S(phi) = cos^2 phi S(0) + sin^2 phi S(90 degrees)
    mdl = desk_comb((6, 4, 3))
    rho = steady_state(mdl)
    op = mdl.linear_lindblads()[0].op
    w = np.linspace(0.0, 6.0, 31)
    S0, S90 = (homodyne_spectrum(mdl, rotated_channel(op, phase), w, rho).S
               for phase in (0.0, 90.0))
    for phase in (-30.0, 45.0, -90.0):
        S = homodyne_spectrum(mdl, rotated_channel(op, phase), w, rho).S
        c, s = math.cos(math.radians(phase)), math.sin(math.radians(phase))
        assert np.max(np.abs(S / (c * c * S0 + s * s * S90) - 1.0)) <= 1e-12


def test_spectrum_rejects_a_complex_steady_state():
    mdl = desk_comb((3, 2, 2))
    rho = steady_state(mdl)
    chan = mdl.linear_lindblads()[0].op
    tilted = DensityOperator(mdl.space, rho.matrix + 1e-3j * np.eye(mdl.space.dim))
    with pytest.raises(ValueError, match="imaginary"):
        homodyne_spectrum(mdl, chan, [0.0], tilted)
    complex_real = DensityOperator(mdl.space, rho.matrix.astype(complex))
    assert np.array_equal(homodyne_spectrum(mdl, chan, [0.0, 1.0], complex_real).S,
                          homodyne_spectrum(mdl, chan, [0.0, 1.0], rho).S)


def detuned_cavity(cutoff=8, detuning=0.7):
    # H = detuning * n is real and Hermitian, so -iH is imaginary
    space = FockSpace((cutoff,))
    return OpenSystemModel(
        space, detuning * number_operator(space, 0),
        (Lindblad(math.sqrt(2.0) * annihilation(space, 0), "linear", 1),),
        ModelParams("lossy"),
    )


@pytest.mark.parametrize("solver", [
    lambda mdl: evolve_master(mdl, vacuum_state(mdl.space).to_density(), [0.0, 1.0]),
    lambda mdl: steady_state(mdl),
    lambda mdl: homodyne_spectrum(mdl, mdl.lindblads[0].op, [0.0, 1.0],
                                  vacuum_state(mdl.space).to_density()),
    lambda mdl: sse_ensemble(mdl, vacuum_state(mdl.space), [0.0, 0.01], 2, seed=1),
], ids=["evolve_master", "steady_state", "homodyne_spectrum", "sse_ensemble"])
def test_generator_rejects_an_imaginary_part(solver):
    with pytest.raises(ValueError, match=r"-iH has a nonzero imaginary entry"):
        solver(detuned_cavity())


def test_generator_names_a_complex_lindblad():
    mdl = damped_cavity()
    complex_loss = Lindblad(1j * mdl.lindblads[0].op, "linear", 1)
    mdl = OpenSystemModel(mdl.space, mdl.H, mdl.lindblads + (complex_loss,), mdl.params)
    with pytest.raises(ValueError, match=r"Lindblad 1 \(linear, index 1\)"):
        dynamics._MasterRHS(mdl)


def test_solvers_keep_the_vacuum_real():
    # the real generator takes a real state to a real state: no complex arithmetic
    mdl = sse_comb_model()
    vac = vacuum_state(mdl.space)
    assert vac.amplitudes.dtype == vac.to_density().matrix.dtype == np.float64
    rec = evolve_master(mdl, vac.to_density(), np.linspace(0.0, 0.5, 3))
    states = [rec.final_state.matrix]
    states += [steady_state(mdl, method=method).matrix for method in ("null-space", "long-time")]
    for rho in states:
        assert rho.dtype == np.float64
        assert np.array_equal(rho, rho.conj().T)
    rec = sse_ensemble(mdl, vac, np.linspace(0.0, 0.01, 2), 2, seed=4)
    assert rec.final_state.dtype == np.float64


def stepper_case(case):
    """A small lossy comb (at eta 1 or 10) or a driven cavity from the vacuum, or the cw cat
    model from a complex coherent state."""
    if case in ("lossy-comb", "lossy-comb-eta10", "coherent-drive"):
        mdl = {"lossy-comb": sse_comb_model, "coherent-drive": driven_cavity,
               "lossy-comb-eta10": partial(sse_comb_model, eta=10.0)}[case]()
        return mdl, vacuum_state(mdl.space).to_density(), np.linspace(0.0, 1.0, 11)
    mdl = build_lossless(single_mode_set(1.0), p=2.0, cutoffs=(12,))
    return mdl, coherent_state(mdl.space, 0.8 + 0.6j).to_density(), np.linspace(0.0, 2.0, 9)


def count_applies(monkeypatch) -> list:
    calls = []
    apply = dynamics._MasterRHS.apply
    monkeypatch.setattr(dynamics._MasterRHS, "apply",
                        lambda self, rho, sign=1: calls.append(sign) or apply(self, rho, sign))
    return calls


@pytest.mark.parametrize("case", ["lossy-comb", "lossy-comb-eta10", "cw-complex"])
def test_master_propagator_matches_expm(case):
    # the exact propagator exp(t G) of the dense superoperator, at every output
    mdl, rho0, t = stepper_case(case)
    assert mdl.space.dim <= 24
    rec = evolve_master(mdl, rho0, t, keep_states=True)
    assert len(rec.extras["states"]) == t.size
    gen = liouvillian_matrix(mdl).toarray()
    for got, tk in zip(rec.extras["states"], t):
        ref = (expm((tk - t[0]) * gen) @ rho0.matrix.ravel()).reshape(rho0.matrix.shape)
        assert got.matrix.dtype == rho0.matrix.dtype
        assert np.max(np.abs(got.matrix - ref)) <= 1e-12
        assert np.array_equal(got.matrix, got.matrix.conj().T)


@pytest.mark.parametrize("case, sizes", [
    ("lossy-comb", [12, 12]), ("cw-vacuum", [6]), ("coherent-drive", [12]),
    ("two-mode-lossless", [9]), ("two-mode-lossy", [9, 9, 9, 9]),
], ids=["weak-parity", "strong-parity", "coherent-drive", "per-mode-parity-lossless",
        "per-mode-parity-lossy"])
def test_master_runs_on_parity_blocks_and_reports_statistics(monkeypatch, case, sizes):
    # the lossy comb's linear losses flip photon-number parity and everything else keeps it,
    # so the vacuum evolves as an even and an odd block; the lossless cat keeps parity in
    # every channel, so only the even block is nonzero.  A coherent drive mixes parities, so
    # the vacuum evolves as one block of every index.  With the Gaussian pump supermode alone
    # each mode keeps its own parity: the lossless vacuum stays where both modes are even,
    # and each mode's loss takes the lossy one to all four parity pairs.  A wrong layout
    # shows here.
    if case.startswith("two-mode"):
        mdl = two_mode_comb(lossless=case == "two-mode-lossless")
        rho0, t = vacuum_state(mdl.space).to_density(), np.linspace(0.0, 2.0, 9)
    elif case != "cw-vacuum":
        mdl, rho0, t = stepper_case(case)
    else:
        mdl = build_lossless(single_mode_set(1.0), p=2.0, cutoffs=(12,))
        rho0, t = vacuum_state(mdl.space).to_density(), np.linspace(0.0, 2.0, 9)
    rec = evolve_master(mdl, rho0, t, keep_states=True)
    assert rec.extras["block_sizes"] == sizes
    calls = count_applies(monkeypatch)
    evolve_master(mdl, rho0, t)
    assert rec.extras["rhs_evaluations"] == len(calls) > 0
    assert 0.0 <= rec.extras["max_trace_drift"] <= 1e-8
    assert abs(rec.extras["min_eigenvalue"]) <= dynamics.POSITIVITY_TOL
    # one certificate for every output; under strong parity the zero odd block supplies a 0
    assert rec.extras["min_eigenvalue"] == min(r.min_eigenvalue() for r in rec.extras["states"])


def test_master_coherences_fall_back_to_one_block():
    # a coherent state has even-odd coherences: one block, the d x d layout of the generator
    # without a parity analysis, bit for bit
    mdl, rho0, t = stepper_case("cw-complex")
    rec = evolve_master(mdl, rho0, t, keep_states=True)
    assert rec.extras["block_sizes"] == [mdl.space.dim]
    rhs = dynamics._MasterRHS(mdl)
    want = dynamics._chebyshev(rhs, rhs.pack(rho0.matrix), t)
    for got, y in zip(rec.extras["states"], want, strict=True):
        assert np.array_equal(got.matrix, rhs.unpack(y))


def test_bessel_weights_match_ive():
    # (2 - delta_k0) ive(k, z) by Miller's recurrence, for one z at a time (each table sized
    # from its own coefficients) and for a 64-output span, in the first table and in one
    # extension; every entry above 1e-290, so every index the stop rule reaches, not only
    # those down to CHEBYSHEV_TOL
    zs = np.geomspace(1e-3, 3000.0, 25)
    for z in [zs[i:i + 1] for i in range(zs.size)] + [np.geomspace(1e-3, 3000.0, 64)]:
        first = dynamics._bessel_weights(z, 1)
        assert np.all(first[-1] <= dynamics.CHEBYSHEV_TOL)
        for a in (first, dynamics._bessel_weights(z, 2 * len(first))):
            k = np.arange(len(a))[:, None]
            ref = np.where(k == 0, 1.0, 2.0) * ive(k, z)
            reach = ref >= 1e-290
            assert np.all(np.abs(a - ref)[reach] <= 1e-12 * ref[reach])


def test_master_long_span_keeps_closed_outputs(monkeypatch):
    # one expansion over the lossless cat's 50 outputs outgrows the guard after its first
    # outputs close: it keeps them and restarts from the last, where halving the span would
    # redo them, and lands on the states of 8-output spans
    mdl = build_lossless(single_mode_set(1.0), p=2.0, cutoffs=(16,))
    rho0, t = vacuum_state(mdl.space).to_density(), np.linspace(0.0, 5.0, 51)
    closed, sums = [], dynamics._chebyshev_sums

    def spy(rhs, y, z, scale):  # (outputs closed, outputs) of each expansion
        out = sums(rhs, y, z, scale)
        closed.append((len(out), z.size))
        return out

    monkeypatch.setattr(dynamics, "_chebyshev_sums", spy)
    long = evolve_master(mdl, rho0, t, keep_states=True)
    assert closed[0][1] == t.size - 1
    assert any(0 < done < size for done, size in closed)
    monkeypatch.setattr(dynamics, "CHEBYSHEV_OUTPUTS", 8)
    short = evolve_master(mdl, rho0, t, keep_states=True)
    for a, b in zip(long.extras["states"], short.extras["states"], strict=True):
        assert np.max(np.abs(a.matrix - b.matrix)) <= 1e-10
    applies = long.extras["rhs_evaluations"], short.extras["rhs_evaluations"]
    assert abs(applies[0] - applies[1]) <= 0.1 * applies[1]
    assert long.extras["min_eigenvalue"] >= -dynamics.POSITIVITY_TOL


@pytest.mark.parametrize("when", ["from-start", "mid-run"])
def test_master_nan_generator_raises_promptly(monkeypatch, when):
    # NaN fails the growth guard at once, and halving the span cannot mend it: raise, not loop.
    # Mid-run starts it halfway through a clean run's applies, so it always fires in the run.
    mdl, rho0, t = stepper_case("lossy-comb")
    clean = evolve_master(mdl, rho0, t).extras["rhs_evaluations"]
    start = 0 if when == "from-start" else clean // 2
    calls = count_applies(monkeypatch)
    apply = dynamics._MasterRHS.apply
    monkeypatch.setattr(
        dynamics._MasterRHS, "apply",
        lambda self, rho, sign=1: apply(self, rho, sign) * (np.nan if len(calls) > start else 1.0),
    )
    with pytest.raises(ConvergenceError, match="Chebyshev propagator diverged"):
        evolve_master(mdl, rho0, t)
    assert len(calls) < start + 10


def test_master_growing_mode_raises_at_span_floor(monkeypatch):
    # G = 1000 I grows every mode far faster than the diagonal's scale L (4 here) allows:
    # each halved span still outgrows its start state, down to the floor 1/L.  The loss takes
    # |2> through every level, so its blocks hold the diagonal's least entry; the vacuum's
    # block is the vacuum alone
    monkeypatch.setattr(dynamics._MasterRHS, "apply", lambda self, rho, sign=1: 1e3 * rho)
    calls = count_applies(monkeypatch)
    mdl = damped_cavity(cutoff=3)
    rho0 = fock_state(mdl.space, (2,)).to_density()
    assert -dynamics._MasterRHS(mdl).diagonal().min() == pytest.approx(4.0)
    with pytest.raises(ConvergenceError, match=r"at t=0: .* down to 0\.25, .* 1/L = 0\.25"):
        evolve_master(mdl, rho0, [0.0, 2.0])
    assert 0 < len(calls) < 100


def test_lossless_single_mode_reaches_pure_state():
    mdl = build_lossless(single_mode_set(1.0), p=2.0, cutoffs=(18,))
    t = np.linspace(0, 12, 7)
    rec = evolve_master(mdl, vacuum_state(mdl.space).to_density(), t)
    assert analysis.purity(rec.final_state) > 1 - 1e-3


def test_observable_space_mismatch():
    mdl = free_model()
    with pytest.raises(ValueError):
        evolve_master(
            mdl, vacuum_state(mdl.space).to_density(), [0, 1],
            {"n": number_operator(FockSpace((9,)), 0)},
        )


def test_master_rejects_a_non_hermitian_initial_state():
    # the half layout keeps each block's upper triangle: an entry set only below the diagonal
    # was dropped, and the vacuum evolved in its place
    mdl = build_lossless(single_mode_set(1.0), p=2.0, cutoffs=(8,))
    rho = vacuum_state(mdl.space).to_density().matrix.copy()
    rho[1, 0] = 0.3
    with pytest.raises(ValueError, match="not Hermitian"):
        evolve_master(mdl, DensityOperator(mdl.space, rho), [0.0, 1.0])


def test_record_requires_increasing_times():
    with pytest.raises(ValueError):
        SimulationRecord(times=np.array([0.0, 0.0, 1.0]), observables={}, final_state=None)


# ---------------------------------------------------------------- steady state

def test_pure_loss_steady_state_is_vacuum():
    mdl = damped_cavity()
    for method in ("null-space", "long-time"):
        rho = steady_state(mdl, method=method)
        vac = vacuum_state(mdl.space).to_density()
        assert trace_distance(rho, vac) < 1e-7


def test_steady_state_methods_agree():
    # a single mode, and the small lossy comb under weak parity symmetry: the long-time
    # reference propagates the d x d state, the Krylov solve runs on the parity blocks
    for mdl in (build_spopo(single_mode_set(1.0), r=0.5, eta=1.0, cutoffs=(16,)),
                sse_comb_model()):
        rho_a = steady_state(mdl, method="null-space")
        rho_b = steady_state(mdl, method="long-time")
        assert trace_distance(rho_a, rho_b) < 1e-6


def test_lossless_two_mode_steady_state_keeps_each_mode_parity():
    # with the Gaussian pump supermode alone each mode's photon-number parity is conserved,
    # not only the total's, so the vacuum's block is the 9 indices where both are even.  The
    # 18-index even total-parity block also holds a steady state the vacuum never reaches,
    # <n_1> = 1.5989 against 1.3214 with 93% of it at mode 1 odd, which a solve there returns
    mdl = two_mode_comb(lossless=True)
    rho = steady_state(mdl)
    assert trace_distance(rho, steady_state(mdl, method="long-time")) < 1e-6
    mode1_odd = np.indices(mdl.space.cutoffs)[0].ravel() % 2 == 1
    assert np.all(rho.matrix.diagonal()[mode1_odd] == 0.0)
    rec = evolve_master(mdl, vacuum_state(mdl.space).to_density(), [0.0, 1.0])
    assert rec.extras["block_sizes"] == [9]


def test_steady_state_lossless_cat():
    mdl = build_lossless(single_mode_set(1.0), p=2.0, cutoffs=(20,))
    rho = steady_state(mdl, method="null-space")
    assert analysis.cat_fidelity(rho, 2.0) > 0.99


def test_steady_state_lossless_cat_is_pure_even():
    # parity is a strong symmetry here, so the full kernel is degenerate; the
    # vacuum's even sector holds exactly one steady state, the pure even cat
    mdl = build_lossless(single_mode_set(1.0), p=2.0, cutoffs=(16,))
    rho = steady_state(mdl)
    assert analysis.purity(rho) >= 1 - 1e-6
    assert float(np.sum(rho.matrix.diagonal()[0::2].real)) >= 1 - 1e-6


def test_steady_state_matches_dense_kernel_on_lossy_comb():
    desk = DispersionParams(beta1=0.0, beta2s=0.01, beta2p=0.0025, g0=1.0, M=10)
    sm = build_supermodes(desk, Np=4.0, n_signal=3, k_max=9)
    for r in (0.6, 1.2):
        mdl = build_spopo(sm, r=r, eta=1.0, cutoffs=(4, 3, 2))
        _, _, vh = np.linalg.svd(liouvillian_matrix(mdl).toarray())
        kernel = vh[-1].conj().reshape(mdl.space.dim, mdl.space.dim)
        kernel = kernel / np.trace(kernel)
        rho = steady_state(mdl)
        assert np.max(np.abs(rho.matrix - kernel)) < 1e-10


def sector_direct_solve(mdl):
    """The places in the flattened rho of the vacuum's blocks, and the steady state there by
    sparse LU of the sector system G x + tr(x) I_s/d_s = I_s/d_s, at unit trace."""
    d = mdl.space.dim
    places = np.concatenate([(d * b[:, None] + b).ravel() for b in vacuum_generator(mdl).blocks])
    b = np.eye(d).ravel()[places]
    pin = sparse.csr_matrix(np.outer(b, b) / b.sum())
    system = liouvillian_matrix(mdl).real.tocsr()[places][:, places] + pin
    want = spsolve(system.tocsc(), b / b.sum())
    return places, want / want[b == 1].sum()


def test_steady_state_at_strong_two_photon_loss_matches_direct_solve():
    # at eta = 100, d = 72, plain GMRES stalled at 400 vectors (residual 9.4e-8); the Jacobi
    # preconditioner converges well below the cap.  The reference solves the same sector
    # system, G x + tr(x) I_s/d_s = I_s/d_s on the vacuum's parity blocks, by sparse LU.
    desk = DispersionParams(beta1=0.0, beta2s=0.01, beta2p=0.0025, g0=1.0, M=10)
    mdl = build_spopo(build_supermodes(desk, Np=4.0, n_signal=3, k_max=9), r=1.19, eta=100.0,
                      cutoffs=(6, 4, 3))
    _, built = dynamics._krylov_solve(vacuum_generator(mdl))
    assert built < 150
    places, want = sector_direct_solve(mdl)
    rho = steady_state(mdl)
    assert np.max(np.abs(rho.matrix.ravel()[places] - want)) < 1e-12


@pytest.mark.parametrize("n_signal, k_max, p, cutoffs", [(3, 3, 2.0, (5, 4, 3)),
                                                         (2, 1, 1.0, (8, 8))],
                         ids=["5-4-3", "8-8"])
def test_steady_state_converges_on_slow_lossless_combs(n_signal, k_max, p, cutoffs):
    # slowest decay rates 6.2e-2 and 2.1e-4 against spectral radii 16.9 and 36.5: GMRES
    # restarted every 60 vectors lost those modes and stalled at 400 vectors, residual 9.1e-5
    # and 1.2e-5; one unrestarted basis converges in about 250 and 125.  The long-time
    # reference does not reach the (8, 8) steady state by t = 1e4
    desk = DispersionParams(beta1=0.0, beta2s=0.01, beta2p=0.0025, g0=1.0, M=10)
    mdl = build_lossless(build_supermodes(desk, Np=4.0, n_signal=n_signal, k_max=k_max), p=p,
                         cutoffs=cutoffs)
    rho = steady_state(mdl)
    places, want = sector_direct_solve(mdl)
    assert np.max(np.abs(rho.matrix.ravel()[places] - want)) < 1e-9
    if n_signal == 3:
        assert trace_distance(rho, steady_state(mdl, method="long-time")) < 1e-6


def test_steady_state_without_parity_symmetry():
    # a coherent drive mixes parities, so the solve runs over every entry of rho
    mdl = driven_cavity()
    a = annihilation(mdl.space, 0)
    rho = steady_state(mdl)
    assert abs(expectation(a, rho) - 0.5) < 1e-9
    assert trace_distance(rho, steady_state(mdl, method="long-time")) < 1e-6


@pytest.mark.parametrize("solver", ["steady_state", "homodyne_spectrum"])
def test_steady_state_krylov_nonconvergence_raises(monkeypatch, solver):
    # a cavity below threshold, whose vacuum reaches both parity blocks: the damped cavity's
    # vacuum is stationary, a block of one index that GMRES solves with one vector
    mdl = build_spopo(single_mode_set(1.0), r=0.5, eta=1e-3, cutoffs=(12,))
    if solver == "steady_state":
        solve = partial(steady_state, mdl)
    else:
        solve = partial(homodyne_spectrum, mdl, mdl.lindblads[0].op, [0.0, 1.0], steady_state(mdl))
    monkeypatch.setattr(dynamics, "KRYLOV_MAX_DIM", 2)
    with pytest.raises(ConvergenceError, match="iterations.*residual"):
        solve()


def test_gmres_breakdown_on_a_zero_hessenberg_column_raises():
    # a singular Krylov space gives a column whose rotation would divide by zero
    with pytest.raises(ConvergenceError, match="broke down"):
        dynamics._HessenbergLstsq(1.0, 0.0).add(np.zeros(2))


@pytest.mark.parametrize("method", ["null-space", "long-time"])
def test_steady_state_rejects_negative_eigenvalue(monkeypatch, method):
    # pure dephasing (H = 0, L = n): every diagonal matrix is stationary, so a
    # unit-trace diagonal with a negative entry passes the residual check
    space = FockSpace((4,))
    dephasing = (Lindblad(number_operator(space, 0), "linear", 1),)
    mdl = OpenSystemModel(space, zero_op(space), dephasing, ModelParams("lossy"))
    bad = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
    monkeypatch.setattr(dynamics, "_krylov_solve", lambda *args: (bad.copy(), 1))
    monkeypatch.setattr(dynamics, "_chebyshev", lambda rhs, y0, t: iter([y0, rhs.pack(bad)]))
    with pytest.raises(ConvergenceError, match="negative eigenvalue"):
        steady_state(mdl, method=method)


def test_steady_state_requires_lindblads():
    with pytest.raises(ConvergenceError):
        steady_state(free_model())


# -------------------------------------------------------------------- spectrum

def test_spectrum_vacuum_level():
    mdl = damped_cavity()
    w = np.linspace(-4, 4, 17)
    res = homodyne_spectrum(mdl, mdl.lindblads[0].op, w, steady_state(mdl))
    # the Krylov steady state is the vacuum to round-off: A0' is below its rounding
    # scale ||L||_F ||rho_ss||_F, so no basis is built on round-off
    assert np.all(res.S == 1.0)
    assert res.metadata["krylov_dimension"] == 0
    # on the exact vacuum A0' = 0: X = 0 with no basis, and no 0/0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = homodyne_spectrum(mdl, mdl.lindblads[0].op, w, vacuum_state(mdl.space).to_density())
    assert np.all(res.S == 1.0)
    assert res.metadata == {"krylov_dimension": 0, "max_relative_residual": 0.0}


def test_spectrum_matches_linearized_opo():
    # weakly nonlinear single-supermode model: the rotated channel measures the
    # amplified quadrature and reproduces the analytic antisqueezed spectrum,
    # the in-phase channel its squeezed reciprocal
    r = 0.5
    mdl = build_spopo(single_mode_set(1.0), r=r, eta=1e-3, cutoffs=(16,))
    rho_ss = steady_state(mdl)
    chan = mdl.linear_lindblads()[0].op
    w = np.linspace(-5, 5, 11)
    anti = homodyne_spectrum(mdl, rotated_channel(chan, -90.0), w, rho_ss=rho_ss)
    assert np.max(np.abs(anti.S / linearized_spectrum(r, 1.0, w) - 1.0)) < 0.05
    squeezed = homodyne_spectrum(mdl, chan, w, rho_ss=rho_ss)
    expected = (w ** 2 + (1 - r) ** 2) / (w ** 2 + (1 + r) ** 2)
    assert np.max(np.abs(squeezed.S / expected - 1.0)) < 0.05
    assert np.all(squeezed.S > -1e-9)


def test_spectrum_sanity_bounds():
    mdl = build_spopo(single_mode_set(1.0), r=0.3, eta=1e-2, cutoffs=(12,))
    w = np.linspace(-30, 30, 31)
    res = homodyne_spectrum(mdl, rotated_channel(mdl.lindblads[0].op, -90.0), w,
                            steady_state(mdl))
    assert np.all(res.S > -1e-9)
    assert abs(res.S[0] - 1.0) < 0.02 and abs(res.S[-1] - 1.0) < 0.02


def spectrum_by_spsolve(mdl, chan, rho, w):
    """S(w) = 1 + 2 Re tr[(L + L^dag) x], (i w - L) x = A0' by sparse LU on the superoperator."""
    dim = mdl.space.dim
    L = chan.matrix
    A0 = L @ rho + rho @ L.conj().T
    A0 = A0 - np.trace(A0) * rho
    gen = liouvillian_matrix(mdl).tocsc()
    eye = sparse.identity(dim * dim, dtype=complex, format="csc")
    # at w = 0 the rank-one term |I/d><I| makes -L invertible and keeps tr(x) = 0
    diag = np.arange(dim) * (dim + 1)
    pin = sparse.csc_matrix(
        (np.full(dim * dim, 1.0 / dim), (np.repeat(diag, dim), np.tile(diag, dim))),
        shape=(dim * dim, dim * dim))
    quad = (L + L.conj().T).toarray()
    out = []
    for wk in w:
        x = spsolve(1j * wk * eye - gen + (pin if wk == 0 else 0 * eye), A0.ravel())
        out.append(1.0 + 2.0 * np.real(np.sum(quad.T.ravel() * x)))
    return np.array(out)


def test_spectrum_matches_sparse_resolvent_on_lossy_comb():
    desk = DispersionParams(beta1=0.0, beta2s=0.01, beta2p=0.0025, g0=1.0, M=10)
    sm = build_supermodes(desk, Np=4.0, n_signal=3, k_max=9)
    w = np.linspace(0.0, 6.0, 13)
    for r, eta in ((0.6, 1.0), (1.2, 1.0), (1.2, 30.0)):
        mdl = build_spopo(sm, r=r, eta=eta, cutoffs=(4, 3, 2))
        rho = steady_state(mdl)
        chan = rotated_channel(mdl.linear_lindblads()[0].op, -90.0)
        res = homodyne_spectrum(mdl, chan, w, rho_ss=rho)
        expected = spectrum_by_spsolve(mdl, chan, rho.matrix, w)
        assert np.max(np.abs(res.S / expected - 1.0)) < 1e-9
    # same dimension, other cutoffs: not a state of this model
    with pytest.raises(ValueError, match="different space"):
        homodyne_spectrum(mdl, chan, w, rho_ss=DensityOperator(FockSpace((2, 3, 4)), rho.matrix))


def test_spectrum_one_basis_serves_every_omega():
    desk = DispersionParams(beta1=0.0, beta2s=0.01, beta2p=0.0025, g0=1.0, M=10)
    sm = build_supermodes(desk, Np=4.0, n_signal=3, k_max=9)
    w = np.linspace(0.0, 6.0, 13)
    order = np.random.default_rng(3).permutation(w.size)
    for r in (0.6, 1.2):
        mdl = build_spopo(sm, r=r, eta=1.0, cutoffs=(4, 3, 2))
        rho = steady_state(mdl)
        chan = rotated_channel(mdl.linear_lindblads()[0].op, -90.0)
        res = homodyne_spectrum(mdl, chan, w, rho_ss=rho)
        assert 0 < res.metadata["krylov_dimension"] < dynamics.KRYLOV_MAX_DIM
        assert res.metadata["max_relative_residual"] <= dynamics.SPECTRUM_RESIDUAL_TOL
        # no warm start: S at one w does not depend on the grid's order
        shuffled = homodyne_spectrum(mdl, chan, w[order], rho_ss=rho)
        assert np.max(np.abs(shuffled.S - res.S[order])) < 1e-12


def spectrum_by_gmres(mdl, chan, rho, w):
    """S(w) as in :func:`spectrum_by_spsolve`, by SciPy's Jacobi-preconditioned GMRES per w to
    a relative residual of 1e-12: sparse LU of the superoperator is out of reach at d=150."""
    L = chan.matrix
    A0 = L @ rho + rho @ L.conj().T
    A0 = (A0 - np.trace(A0) * rho).ravel()
    gen = liouvillian_matrix(mdl).tocsr()
    eye = sparse.identity(gen.shape[0], dtype=complex, format="csr")
    quad = (L + L.conj().T).toarray().T.ravel()
    out = []
    for wk in w:
        jacobi = 1j * wk - gen.diagonal()
        precond = ScipyOperator(gen.shape, matvec=lambda v: v / jacobi, dtype=complex)
        x, info = gmres(1j * wk * eye - gen, A0, M=precond, rtol=1e-12, atol=0.0, restart=200)
        assert info == 0
        out.append(1.0 + 2.0 * np.real(np.sum(quad * x)))
    return np.array(out)


def test_spectrum_converges_at_strong_two_photon_loss():
    # eta=30 on d=150: with one Gram-Schmidt pass the basis lost orthogonality and reached
    # KRYLOV_MAX_DIM with its residual estimate stuck near 1e-11
    desk = DispersionParams(beta1=0.0, beta2s=0.01, beta2p=0.0025, g0=1.0, M=10)
    sm = build_supermodes(desk, Np=4.0, n_signal=3, k_max=9)
    mdl = build_spopo(sm, r=1.19, eta=30.0, cutoffs=(10, 5, 3))
    rho = steady_state(mdl)
    chan = rotated_channel(mdl.linear_lindblads()[0].op, -90.0)
    w = np.array([0.5, 2.0, 5.0])
    res = homodyne_spectrum(mdl, chan, w, rho_ss=rho)
    assert res.metadata["krylov_dimension"] < dynamics.KRYLOV_MAX_DIM
    assert res.metadata["max_relative_residual"] <= dynamics.SPECTRUM_RESIDUAL_TOL
    expected = spectrum_by_gmres(mdl, chan, rho.matrix, w)
    assert np.max(np.abs(res.S / expected - 1.0)) < 1e-9


@pytest.mark.parametrize("phase", [0.0, 37.0])
def test_spectrum_matches_sparse_resolvent_at_other_phases(phase):
    # a general homodyne phase makes A0' and X complex; the generator stays real
    desk = DispersionParams(beta1=0.0, beta2s=0.01, beta2p=0.0025, g0=1.0, M=10)
    sm = build_supermodes(desk, Np=4.0, n_signal=3, k_max=9)
    w = np.linspace(0.0, 6.0, 13)
    for r in (0.6, 1.2):
        mdl = build_spopo(sm, r=r, eta=1.0, cutoffs=(4, 3, 2))
        rho = steady_state(mdl)
        chan = rotated_channel(mdl.linear_lindblads()[0].op, phase)
        res = homodyne_spectrum(mdl, chan, w, rho_ss=rho)
        expected = spectrum_by_spsolve(mdl, chan, rho.matrix, w)
        assert np.max(np.abs(res.S / expected - 1.0)) < 1e-9


# ---------------------------------------------------------------- trajectories

def test_sse_free_state_constant():
    mdl = free_model()
    psi0 = fock_state(mdl.space, (2,))
    t = np.linspace(0, 1, 5)
    rec = sse_trajectory(mdl, psi0, t, seed=1, dt=1e-3,
                         observables={"n": number_operator(mdl.space, 0)})
    assert np.allclose(rec.observables["n"].real, 2.0, atol=1e-12)
    assert rec.final_state.shape == (mdl.space.dim, 1)
    assert np.linalg.norm(rec.final_state) == pytest.approx(1.0, abs=1e-12)


def test_sse_bitwise_determinism():
    mdl = build_lossless(single_mode_set(1.0), p=2.0, cutoffs=(12,))
    psi0 = vacuum_state(mdl.space)
    t = np.linspace(0, 1, 5)
    obs = {"n": number_operator(mdl.space, 0)}
    a = sse_trajectory(mdl, psi0, t, seed=42, dt=1e-3, observables=obs)
    b = sse_trajectory(mdl, psi0, t, seed=42, dt=1e-3, observables=obs)
    assert np.array_equal(a.observables["n"], b.observables["n"])
    assert np.array_equal(a.final_state, b.final_state)
    assert np.array_equal(a.extras["homodyne_currents"], b.extras["homodyne_currents"])
    c = sse_trajectory(mdl, psi0, t, seed=43, dt=1e-3, observables=obs)
    assert not np.array_equal(a.observables["n"], c.observables["n"])


def test_sse_channel_streams_stable_under_channel_count():
    # adding channels must not reshuffle the noise of existing ones: compare a
    # pure two-photon-loss run against the same model with an extra zero channel
    mdl1 = build_lossless(single_mode_set(1.0), p=0.0, cutoffs=(14,))
    space = mdl1.space
    extra = Lindblad(zero_op(space), "nonlinear", 3, False)
    mdl2 = OpenSystemModel(space, mdl1.H, mdl1.lindblads + (extra,), mdl1.params)
    psi0 = coherent_state(space, 1.2)
    t = np.linspace(0, 1, 3)
    obs = {"n": number_operator(space, 0)}
    a = sse_trajectory(mdl1, psi0, t, seed=9, dt=1e-3, observables=obs)
    b = sse_trajectory(mdl2, psi0, t, seed=9, dt=1e-3, observables=obs)
    assert np.array_equal(a.observables["n"], b.observables["n"])


def test_sse_grid_alignment_required():
    mdl = free_model()
    with pytest.raises(ValueError):
        sse_trajectory(mdl, vacuum_state(mdl.space), [0.0, 0.0015], seed=1, dt=1e-3)


def test_sse_grid_points_on_one_step_rejected():
    # both points lie within GRID_ALIGN_TOL of step 0: an empty output interval
    mdl = free_model()
    with pytest.raises(ValueError, match="integer multiple of dt"):
        sse_trajectory(mdl, vacuum_state(mdl.space), [0.0, 1e-10], seed=1, dt=1e-3)


def test_sse_instability_detection():
    mdl = build_lossless(single_mode_set(1.0), p=2.0, cutoffs=(20,))
    with pytest.raises(ConvergenceError):
        sse_trajectory(mdl, vacuum_state(mdl.space), [0.0, 5.0], seed=1, dt=0.5)


def test_sse_ensemble_matches_master_in_transient():
    # modest ensemble against the master curve where the spread is genuine
    mdl = build_lossless(single_mode_set(1.0), p=2.0, cutoffs=(14,))
    t = np.linspace(0, 2, 9)
    obs = {"n": number_operator(mdl.space, 0)}
    rec = sse_ensemble(mdl, vacuum_state(mdl.space), t, 40, seed=314, dt=5e-4,
                       observables=obs)
    mean, se = ensemble_mean(rec.observables["n"])
    target = evolve_master(mdl, vacuum_state(mdl.space).to_density(), t, obs)
    dev = np.abs(mean - target.observables["n"].real)
    assert np.all(dev[1:] < 4.0 * se[1:] + 1e-3)


def test_sse_half_step_convergence():
    mdl = build_lossless(single_mode_set(1.0), p=2.0, cutoffs=(14,))
    psi0, t = vacuum_state(mdl.space), np.linspace(0, 1, 3)
    obs = {"n": number_operator(mdl.space, 0)}
    a = sse_trajectory(mdl, psi0, t, seed=5, dt=1e-3, observables=obs)
    b = sse_trajectory(mdl, psi0, t, seed=5, dt=1e-3 / 2.0, observables=obs)
    dev = float(np.max(np.abs(a.observables["n"].real - b.observables["n"].real)))
    assert dev < 0.2


def test_sse_homodyne_record_shape():
    mdl = build_lossless(single_mode_set(1.0), p=2.0, cutoffs=(12,))
    t = np.linspace(0, 1, 5)
    rec = sse_trajectory(mdl, vacuum_state(mdl.space), t, seed=3, dt=1e-3)
    assert rec.extras["homodyne_currents"].shape == (1, 4, 1)


def sse_comb_model(eta=1.0):
    desk = DispersionParams(beta1=0.0, beta2s=0.01, beta2p=0.0025, g0=1.0, M=10)
    return build_spopo(build_supermodes(desk, Np=4.0, n_signal=3, k_max=9), r=1.2, eta=eta,
                       cutoffs=(4, 3, 2))


def test_sse_trajectory_independent_of_ensemble_size():
    # eight channels; trajectory k must not depend on how many others run beside it
    mdl = sse_comb_model()
    psi0 = vacuum_state(mdl.space)
    t = np.linspace(0, 0.5, 6)
    obs = {"n": total_number_operator(mdl.space)}
    eight = sse_ensemble(mdl, psi0, t, 8, seed=11, observables=obs)
    three = sse_ensemble(mdl, psi0, t, 3, seed=11, observables=obs)
    single = sse_trajectory(mdl, psi0, t, seed=11, observables=obs)
    for b in (three, single):  # the leading trajectories of the eight
        n = b.final_state.shape[1]
        assert np.max(np.abs(eight.observables["n"][:, :n] - b.observables["n"])) <= 1e-12
        currents = eight.extras["homodyne_currents"][..., :n] - b.extras["homodyne_currents"]
        assert np.max(np.abs(currents)) <= 1e-12
        assert np.max(np.abs(eight.final_state[:, :n] - b.final_state)) <= 1e-12
    assert not np.array_equal(eight.observables["n"][:, 0], eight.observables["n"][:, 1])


def test_sse_ensemble_builds_generator_and_noise_once(monkeypatch):
    calls = {"generator": 0, "noise": 0}

    class CountingRHS(dynamics._MasterRHS):
        def __init__(self, model):
            calls["generator"] += 1
            super().__init__(model)

    def counting_noise(*args):
        calls["noise"] += 1
        return noise(*args)

    noise = dynamics._noise_streams
    monkeypatch.setattr(dynamics, "_MasterRHS", CountingRHS)
    monkeypatch.setattr(dynamics, "_noise_streams", counting_noise)
    mdl = build_lossless(single_mode_set(1.0), p=2.0, cutoffs=(12,))
    rec = sse_ensemble(mdl, vacuum_state(mdl.space), np.linspace(0, 0.1, 3), 5, seed=2)
    assert rec.final_state.shape == (mdl.space.dim, 5)
    assert calls == {"generator": 1, "noise": 1}


def test_sse_norm_drift_names_trajectory_and_step():
    mdl = build_lossless(single_mode_set(1.0), p=2.0, cutoffs=(20,))
    psi0 = coherent_state(mdl.space, 1.0)
    with pytest.raises(ConvergenceError, match=r"in trajectory 1 at step 1; reduce dt"):
        sse_ensemble(mdl, psi0, [0.0, 2.0], 4, seed=15, dt=0.05)
    # trajectory 0 alone first fails later, so step 1's drift is trajectory 1's own
    with pytest.raises(ConvergenceError, match=r"in trajectory 0 at step 6;"):
        sse_ensemble(mdl, psi0, [0.0, 2.0], 1, seed=15, dt=0.05)


def sse_per_channel(mdl, psi0, t, n_traj, seed, dt, observables):
    """Euler-Maruyama with one product per channel per step: the stacked step's reference.

    Returns observables[name][time, trajectory], currents[channel, interval,
    trajectory] and the final d x n_traj block.
    """
    gen = dynamics._MasterRHS(mdl)
    out_steps = np.rint(t / dt).astype(int)
    out_index = {int(s): k for k, s in enumerate(out_steps)}
    dW = noise_streams(seed, n_traj, len(gen.Ls), out_steps[-1], dt)
    psi = np.repeat(psi0.normalized().amplitudes[:, None], n_traj, axis=1)
    series = {name: np.empty((t.size, n_traj), dtype=complex) for name in observables}

    def record(k):
        for name, op in observables.items():
            series[name][k] = np.einsum("ij,ij->j", psi.conj(), op.matrix @ psi)

    record(0)
    for step in range(out_steps[-1]):
        psi_conj = psi.conj()
        dpsi = dt * (gen.C @ psi)
        for L, increment in zip(gen.Ls, dW[:, step]):
            Lpsi = L @ psi
            increment += 2.0 * np.einsum("ij,ij->j", psi_conj, Lpsi).real * dt
            dpsi += increment * Lpsi
        psi = psi + dpsi
        psi /= np.sqrt(np.einsum("ij,ij->j", psi.conj(), psi).real)
        if step + 1 in out_index:
            record(out_index[step + 1])
    currents = np.add.reduceat(dW, out_steps[:-1], axis=1) / np.diff(t)[:, None]
    return series, currents, psi


@pytest.mark.parametrize("start", ["vacuum", "complex"])
def test_sse_stacked_step_matches_per_channel_loop(start):
    # eight channels, d = 24: one stacked product per step against a loop over channels
    mdl = sse_comb_model()
    if start == "vacuum":
        psi0 = vacuum_state(mdl.space)
    else:
        rng = np.random.default_rng(23)
        psi0 = StateVector(mdl.space, rng.normal(size=mdl.space.dim)
                           + 1j * rng.normal(size=mdl.space.dim))
    t = np.linspace(0, 0.2, 5)
    obs = {"n": total_number_operator(mdl.space), "a1": annihilation(mdl.space, 0)}
    rec = sse_ensemble(mdl, psi0, t, 3, seed=17, observables=obs)
    series, currents, psi = sse_per_channel(mdl, psi0, t, 3, 17, 1e-3, obs)
    for name in obs:
        assert np.max(np.abs(rec.observables[name] - series[name])) <= 1e-12
    assert np.max(np.abs(rec.extras["homodyne_currents"] - currents)) <= 1e-12
    assert np.max(np.abs(rec.final_state - psi)) <= 1e-12


@pytest.mark.parametrize("chunk", [None, 30, 7])
def test_sse_streamed_noise_matches_the_all_at_once_reference(monkeypatch, chunk):
    # step_grid rounds the grid to intervals of 14, 15 and 1 steps; 30-step pieces hold each
    # whole interval, 7-step ones split the longer two, whose currents then sum in another order
    if chunk is not None:
        monkeypatch.setattr(dynamics, "SSE_CHUNK_STEPS", chunk)
    mdl = sse_comb_model()
    t = dynamics.step_grid(np.append(np.linspace(0.0, 0.1, 8), 0.101), 1e-3)
    assert set(np.diff(np.rint(t / 1e-3))) == {14, 15, 1}
    obs = {"n": total_number_operator(mdl.space), "a1": annihilation(mdl.space, 0)}
    for n_traj in (1, 3):
        got = sse_ensemble(mdl, vacuum_state(mdl.space), t, n_traj, 17, observables=obs)
        want = sse_ensemble_at_once(mdl, vacuum_state(mdl.space), t, n_traj, 17, observables=obs)
        for name in obs:
            assert np.array_equal(got.observables[name], want.observables[name])
        assert np.array_equal(got.final_state, want.final_state)
        currents, ref = got.extras["homodyne_currents"], want.extras["homodyne_currents"]
        assert currents.shape == ref.shape == (8, t.size - 1, n_traj)
        if chunk == 7:
            assert np.max(np.abs(currents - ref)) <= 1e-15 * np.max(np.abs(ref))
        else:
            assert np.array_equal(currents, ref)


def test_sse_short_intervals_share_one_noise_draw(monkeypatch):
    # 100 output intervals of 10 steps: each stream fills its 1000 steps in one call, not one
    # per interval, whose per-call cost made a dense grid about 1.5x slower at d=72
    real, calls = np.random.default_rng, []

    class Counting:
        def __init__(self, seed):
            self.rng = real(seed)

        def normal(self, loc, scale, size):
            calls.append(size)
            return self.rng.normal(loc, scale, size)

    monkeypatch.setattr(np.random, "default_rng", Counting)
    mdl = sse_comb_model()
    sse_ensemble(mdl, vacuum_state(mdl.space), np.linspace(0.0, 1.0, 101), 2, seed=3)
    assert calls == [1000] * (2 * len(mdl.lindblads))


def test_sse_memory_does_not_grow_with_run_length():
    # output spacing 600 steps, so every noise chunk is one interval; 10x t_max adds 5400
    # steps, 346 kB of noise when drawn at once, and 0.7 kB of outputs.  Beyond the outputs
    # the peak moved by -9 to +2 kB in three measured pairs
    mdl = sse_comb_model()
    obs = {"n": total_number_operator(mdl.space)}

    def peak_and_outputs(n_intervals):
        t = np.linspace(0.0, 0.6 * n_intervals, n_intervals + 1)
        tracemalloc.start()
        try:
            rec = sse_ensemble(mdl, vacuum_state(mdl.space), t, 1, 3, observables=obs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        arrays = [*rec.observables.values(), rec.final_state, rec.extras["homodyne_currents"]]
        return peak, sum(a.nbytes for a in arrays)

    peak_and_outputs(1)  # first-call allocations
    (short, short_out), (long, long_out) = peak_and_outputs(1), peak_and_outputs(10)
    assert long - short <= long_out - short_out + 16_000


def test_sse_comb_ensemble_matches_master_in_transient():
    # the multimode counterpart of test_sse_ensemble_matches_master_in_transient
    mdl = sse_comb_model()
    t = np.linspace(0, 1, 6)
    obs = {"n_total": total_number_operator(mdl.space)}
    rec = sse_ensemble(mdl, vacuum_state(mdl.space), t, 40, seed=2718, dt=1e-3,
                       observables=obs)
    mean, se = ensemble_mean(rec.observables["n_total"])
    target = evolve_master(mdl, vacuum_state(mdl.space).to_density(), t, obs)
    dev = np.abs(mean - target.observables["n_total"].real)
    assert np.all(dev[1:] < 4.0 * se[1:] + 1e-3)


# ------------------------------------------------------------------ mean field

def test_mean_field_zero_drive_zero_state():
    sm = single_mode_set(1.0)
    rec = mean_field(sm, drive=0.0, kappa=1.0, S0=[0.0], t_grid=np.linspace(0, 10, 11))
    assert np.allclose(rec.observables["total_intensity"], 0.0)


def test_mean_field_below_threshold_decays():
    sm = single_mode_set(1.0)
    rec = mean_field(sm, drive=0.45, kappa=1.0, S0=[0.05j],
                     t_grid=np.linspace(0, 200, 21))  # r = 0.9
    assert rec.observables["total_intensity"][-1] < 1e-10


def test_mean_field_above_threshold_fixed_point():
    # r = 2 -> |S|^2 = kappa (r - 1) / lambda1^2
    sm = single_mode_set(1.0)
    rec = mean_field(sm, drive=1.0, kappa=1.0, S0=[0.1j],
                     t_grid=np.linspace(0, 100, 11))
    assert rec.observables["total_intensity"][-1] == pytest.approx(1.0, abs=1e-6)


def test_mean_field_bifurcation_scan():
    sm = single_mode_set(1.0)
    for r, expected in ((0.5, 0.0), (1.5, 0.5), (3.0, 2.0)):
        rec = mean_field(sm, drive=r / 2, kappa=1.0, S0=[0.05j],
                         t_grid=np.linspace(0, 300, 16))
        assert rec.observables["total_intensity"][-1] == pytest.approx(expected, abs=1e-5)
