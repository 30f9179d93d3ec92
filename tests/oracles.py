"""Analytic results and reference integrators the tests check the solvers against."""

import numpy as np
from scipy import sparse

from spopo import dynamics
from spopo.dynamics import ConvergenceError, SimulationRecord
from spopo.hilbert import StateVector

# RK45 tolerances of the mean field.
MEAN_FIELD_RTOL, MEAN_FIELD_ATOL = 1e-10, 1e-12


def linearized_spectrum(r: float, kappa: float, omega_grid) -> np.ndarray:
    """Analytic antisqueezed homodyne spectrum of the linearized single-supermode model.

    S(w) = (w^2 + kappa^2 (1+r)^2) / (w^2 + kappa^2 (1-r)^2); at r = 1 the
    zero-frequency point is a pole and is returned as inf.
    """
    if r < 0:
        raise ValueError("pump parameter r must be >= 0")
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    w = np.asarray(omega_grid, dtype=float)
    num = w ** 2 + kappa ** 2 * (1.0 + r) ** 2
    den = w ** 2 + kappa ** 2 * (1.0 - r) ** 2
    with np.errstate(divide="ignore"):
        out = np.where(den == 0.0, np.inf, num / np.where(den == 0.0, 1.0, den))
    return out


def mean_field(sm, drive: float, kappa: float, S0, t_grid) -> SimulationRecord:
    """Classical supermode amplitudes under the deterministic equations of motion.

    dS_i/dt = -kappa S_i - 2 A sum_j G^(1)_ij conj(S_j)
              - sum_k sum_jmn G^(k)_ij G^(k)_mn conj(S_j) S_m S_n

    with A the drive amplitude on the label-1 pump channel of the supermode set
    ``sm``.  The loss term is -kappa S_i because the loss is uniform over the
    comb lines and the signal supermodes are orthonormal, so it stays uniform
    in the supermode basis.
    """
    S0 = np.asarray(S0, dtype=complex)
    if S0.size != sm.n_signal:
        raise ValueError(f"need {sm.n_signal} initial amplitudes, got {S0.size}")
    t = np.asarray(t_grid, dtype=float)
    G1 = sm.tensors[sm.pump_labels.index(1)]
    tensors = list(sm.tensors)

    def rhs(_t, S):
        Sc = S.conj()
        out = -kappa * S - 2.0 * drive * (G1 @ Sc)
        for G in tensors:
            out -= (S @ G @ S) * (G @ Sc)
        return out

    from scipy.integrate import solve_ivp
    sol = solve_ivp(
        rhs, (t[0], t[-1]), S0, t_eval=t, method="RK45",
        rtol=MEAN_FIELD_RTOL, atol=MEAN_FIELD_ATOL,
    )
    if not sol.success:
        raise ConvergenceError(f"mean-field integrator failed: {sol.message}")
    amplitudes = sol.y  # (n_signal, n_times)
    observables = {f"S_{i+1}": amplitudes[i] for i in range(sm.n_signal)}
    observables["total_intensity"] = np.sum(np.abs(amplitudes) ** 2, axis=0)
    return SimulationRecord(
        times=t,
        observables=observables,
        final_state=amplitudes[:, -1],
    )


def noise_streams(seed: int, n_trajectories: int, n_channels: int, n_steps: int, dt: float):
    """Increments dW[channel, step, trajectory] of the whole run in one draw per stream, each
    keyed (seed, trajectory, channel) as in ``dynamics.sse_ensemble``."""
    dW = np.empty((n_channels, n_steps, n_trajectories))
    root_dt = np.sqrt(dt)
    for k in range(n_trajectories):
        for ch in range(n_channels):
            ss = np.random.SeedSequence(entropy=seed, spawn_key=(k, ch))
            dW[ch, :, k] = np.random.default_rng(ss).normal(0.0, root_dt, n_steps)
    return dW


def sse_ensemble_at_once(model, psi0, t, n_trajectories: int, seed: int, dt: float = 1e-3,
                         observables=None) -> list[SimulationRecord]:
    """``dynamics.sse_ensemble`` with the noise of the whole run drawn before the first step
    and the homodyne currents reduced after the last: the streamed integrator's reference.

    ``t`` must be on the dt lattice and start at 0; inputs are not checked."""
    t = np.asarray(t, dtype=float)
    observables = observables or {}
    out_steps = np.rint(t / dt).astype(int)
    gen = dynamics._MasterRHS(model)
    n_channels = len(gen.Ls)
    stacked = sparse.vstack([dt * gen.C, *gen.Ls], format="csr")
    # dW[:, step] becomes that step's homodyne increment <L + L^dag> dt + dW in place
    dW = noise_streams(seed, n_trajectories, n_channels, out_steps[-1], dt)
    psi = np.repeat(psi0.normalized().amplitudes[:, None], n_trajectories, axis=1)
    series = {name: np.empty((t.size, n_trajectories), dtype=complex) for name in observables}

    def record(out_idx: int):
        for name, op in observables.items():
            series[name][out_idx] = np.einsum("ij,ij->j", psi.conj(), op.matrix @ psi)

    record(0)
    out_idx = 1
    for step in range(out_steps[-1]):
        Y = (stacked @ psi).reshape(n_channels + 1, -1, n_trajectories)  # dt C psi, L_c psi
        increment = dW[:, step]
        increment += 2.0 * dt * np.einsum("ij,cij->cj", psi.conj(), Y[1:]).real
        psi = psi + Y[0] + np.einsum("cj,cij->ij", increment, Y[1:])
        nrm = np.sqrt(np.einsum("ij,ij->j", psi.conj(), psi).real)
        unstable = ~(np.abs(nrm - 1.0) <= dynamics.SSE_NORM_DRIFT_MAX)
        if unstable.any():
            k = int(np.argmax(unstable))
            raise ConvergenceError(
                f"norm drift {abs(nrm[k] - 1.0):.3g} in trajectory {k} at step {step}; reduce dt"
            )
        psi /= nrm
        if step + 1 == out_steps[out_idx]:
            record(out_idx)
            out_idx += 1

    homodyne = np.add.reduceat(dW, out_steps[:-1], axis=1) / np.diff(t)[:, None]
    return [
        SimulationRecord(
            times=t,
            observables={name: s[:, k] for name, s in series.items()},
            final_state=StateVector(model.space, psi[:, k]),
            seed=seed,
            extras={"homodyne_currents": homodyne[:, :, k], "dt": dt},
        )
        for k in range(n_trajectories)
    ]
