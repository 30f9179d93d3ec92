import math
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import spsolve

from spopo import analysis, dynamics
from spopo.dynamics import (
    ConvergenceError,
    SimulationRecord,
    ensemble_mean,
    evolve_master,
    homodyne_spectrum,
    mean_field,
    rotated_channel,
    sse_ensemble,
    sse_trajectory,
    steady_state,
)
from spopo.hilbert import (
    DensityOperator,
    FockSpace,
    LinearOperator,
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
    linearized_spectrum,
    liouvillian_matrix,
)
from spopo.phasematch import DispersionParams
from spopo.supermode import build_supermodes, single_mode_set


def zero_op(space):
    return LinearOperator(space, sparse.csr_matrix((space.dim, space.dim), dtype=complex))


def damped_cavity(cutoff=12, kappa=1.0):
    space = FockSpace((cutoff,))
    a = annihilation(space, 0)
    L = math.sqrt(2.0 * kappa) * a
    return OpenSystemModel(
        space, zero_op(space), (Lindblad(L, "linear", 1),), ModelParams("lossy", kappa=kappa)
    )


def free_model(cutoff=5):
    space = FockSpace((cutoff,))
    return OpenSystemModel(space, zero_op(space), (), ModelParams("lossy"))


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


@pytest.mark.parametrize("family", ["lossy-comb", "cw-lossless"])
def test_generator_action_matches_liouvillian_matrix(family):
    # the shared generator away from the steady state, against the superoperator
    if family == "lossy-comb":
        desk = DispersionParams(beta1=0.0, beta2s=0.01, beta2p=0.0025, g0=1.0, M=10)
        sm = build_supermodes(desk, Np=4.0, n_signal=3, k_max=9)
        mdl = build_spopo(sm, r=1.2, eta=1.0, cutoffs=(4, 3, 2))
    else:
        mdl = build_lossless(single_mode_set(1.0), p=2.0, cutoffs=(16,))
    d = mdl.space.dim
    rng = np.random.default_rng(11)
    X = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = (X + X.conj().T) / 2.0
    got = dynamics._MasterRHS(mdl).apply(rho).ravel()
    want = liouvillian_matrix(mdl) @ rho.ravel()
    assert np.max(np.abs(got - want)) < 1e-12


def detuned_cavity(cutoff=8, detuning=0.7):
    # H = detuning * n is real and Hermitian, so -iH is imaginary
    space = FockSpace((cutoff,))
    return OpenSystemModel(
        space, detuning * number_operator(space, 0),
        (Lindblad(math.sqrt(2.0) * annihilation(space, 0), "linear", 1),),
        ModelParams("lossy", kappa=1.0),
    )


@pytest.mark.parametrize("solver", [
    lambda mdl: evolve_master(mdl, vacuum_state(mdl.space).to_density(), [0.0, 1.0]),
    lambda mdl: steady_state(mdl),
    lambda mdl: homodyne_spectrum(mdl, mdl.lindblads[0].op, [0.0, 1.0]),
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
    assert rec.final_state.matrix.dtype == np.float64
    for method in ("null-space", "long-time"):
        assert steady_state(mdl, method=method).matrix.dtype == np.float64
    recs = sse_ensemble(mdl, vac, np.linspace(0.0, 0.01, 2), 2, seed=4)
    assert all(r.final_state.amplitudes.dtype == np.float64 for r in recs)


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
    mdl = build_spopo(single_mode_set(1.0), r=0.5, eta=1.0, cutoffs=(16,))
    rho_a = steady_state(mdl, method="null-space")
    rho_b = steady_state(mdl, method="long-time")
    assert trace_distance(rho_a, rho_b) < 1e-6


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


def test_steady_state_without_parity_symmetry():
    # a coherent drive mixes parities, so the solve runs over every entry of rho
    space = FockSpace((12,))
    a = annihilation(space, 0)
    drive = LinearOperator(space, 0.5j * (a.dag().matrix - a.matrix))
    mdl = OpenSystemModel(
        space, drive, (Lindblad(math.sqrt(2.0) * a, "linear", 1),), ModelParams("lossy", kappa=1.0)
    )
    rho = steady_state(mdl)
    assert abs(expectation(a, rho) - 0.5) < 1e-9
    assert trace_distance(rho, steady_state(mdl, method="long-time")) < 1e-6


@pytest.mark.parametrize("solver", ["steady_state", "homodyne_spectrum"])
def test_steady_state_krylov_nonconvergence_raises(monkeypatch, solver):
    if solver == "steady_state":
        solve = partial(steady_state, damped_cavity())
    else:
        mdl = build_spopo(single_mode_set(1.0), r=0.5, eta=1e-3, cutoffs=(12,))
        solve = partial(homodyne_spectrum, mdl, mdl.lindblads[0].op, [0.0, 1.0], steady_state(mdl))
    monkeypatch.setattr(dynamics.spla, "lgmres", lambda op, b, **kw: (b, 7))
    with pytest.raises(ConvergenceError, match="iterations.*residual"):
        solve()


@pytest.mark.parametrize("method", ["null-space", "long-time"])
def test_steady_state_rejects_negative_eigenvalue(monkeypatch, method):
    # pure dephasing (H = 0, L = n): every diagonal matrix is stationary, so a
    # unit-trace diagonal with a negative entry passes the residual check
    space = FockSpace((4,))
    dephasing = (Lindblad(number_operator(space, 0), "linear", 1),)
    mdl = OpenSystemModel(space, zero_op(space), dephasing, ModelParams("lossy"))
    bad = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
    monkeypatch.setattr(dynamics, "_krylov_solve", lambda *args: (bad.copy(), 0, 1))
    monkeypatch.setattr(dynamics, "solve_ivp",
                        lambda *args, **kw: SimpleNamespace(success=True, y=bad.reshape(-1, 1)))
    with pytest.raises(ConvergenceError, match="negative eigenvalue"):
        steady_state(mdl, method=method)


def test_steady_state_requires_lindblads():
    with pytest.raises(ConvergenceError):
        steady_state(free_model())


# -------------------------------------------------------------------- spectrum

def test_spectrum_vacuum_level():
    mdl = damped_cavity()
    w = np.linspace(-4, 4, 17)
    res = homodyne_spectrum(mdl, mdl.lindblads[0].op, omega_grid=w)
    assert np.allclose(res.S, 1.0, atol=1e-9)


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
    res = homodyne_spectrum(mdl, rotated_channel(mdl.lindblads[0].op, -90.0), w)
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
    for r in (0.6, 1.2):
        mdl = build_spopo(sm, r=r, eta=1.0, cutoffs=(4, 3, 2))
        rho = steady_state(mdl)
        chan = rotated_channel(mdl.linear_lindblads()[0].op, -90.0)
        res = homodyne_spectrum(mdl, chan, w, rho_ss=rho)
        expected = spectrum_by_spsolve(mdl, chan, rho.matrix, w)
        assert np.max(np.abs(res.S / expected - 1.0)) < 1e-9
    # same dimension, other cutoffs: not a state of this model
    with pytest.raises(ValueError, match="different space"):
        homodyne_spectrum(mdl, chan, w, rho_ss=DensityOperator(FockSpace((2, 3, 4)), rho.matrix))


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
    assert rec.final_state.norm() == pytest.approx(1.0, abs=1e-12)


def test_sse_bitwise_determinism():
    mdl = build_lossless(single_mode_set(1.0), p=2.0, cutoffs=(12,))
    psi0 = vacuum_state(mdl.space)
    t = np.linspace(0, 1, 5)
    obs = {"n": number_operator(mdl.space, 0)}
    a = sse_trajectory(mdl, psi0, t, seed=42, dt=1e-3, observables=obs)
    b = sse_trajectory(mdl, psi0, t, seed=42, dt=1e-3, observables=obs)
    assert np.array_equal(a.observables["n"], b.observables["n"])
    assert np.array_equal(a.final_state.amplitudes, b.final_state.amplitudes)
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
    recs = sse_ensemble(mdl, vacuum_state(mdl.space), t, 40, seed=314, dt=5e-4,
                        observables=obs)
    mean, se = ensemble_mean(recs, "n")
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
    assert rec.extras["homodyne_currents"].shape == (1, 4)


def sse_comb_model():
    desk = DispersionParams(beta1=0.0, beta2s=0.01, beta2p=0.0025, g0=1.0, M=10)
    return build_spopo(build_supermodes(desk, Np=4.0, n_signal=3, k_max=9), r=1.2, eta=1.0,
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
    pairs = [(eight[k], three[k]) for k in range(3)] + [(eight[0], single)]
    for a, b in pairs:
        assert np.max(np.abs(a.observables["n"] - b.observables["n"])) <= 1e-12
        currents = a.extras["homodyne_currents"] - b.extras["homodyne_currents"]
        assert np.max(np.abs(currents)) <= 1e-12
        assert np.max(np.abs(a.final_state.amplitudes - b.final_state.amplitudes)) <= 1e-12
    assert not np.array_equal(eight[0].observables["n"], eight[1].observables["n"])


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
    recs = sse_ensemble(mdl, vacuum_state(mdl.space), np.linspace(0, 0.1, 3), 5, seed=2)
    assert len(recs) == 5
    assert calls == {"generator": 1, "noise": 1}


def test_sse_norm_drift_names_trajectory_and_step():
    mdl = build_lossless(single_mode_set(1.0), p=2.0, cutoffs=(20,))
    psi0 = coherent_state(mdl.space, 1.0)
    with pytest.raises(ConvergenceError, match=r"in trajectory 1 at step 1; reduce dt"):
        sse_ensemble(mdl, psi0, [0.0, 2.0], 4, seed=15, dt=0.05)
    # trajectory 0 alone first fails later, so step 1's drift is trajectory 1's own
    with pytest.raises(ConvergenceError, match=r"in trajectory 0 at step 6;"):
        sse_ensemble(mdl, psi0, [0.0, 2.0], 1, seed=15, dt=0.05)


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
