"""Time evolution of the open-system models.

Solvers:

* ``evolve_master`` integrates d rho/dt = -i[H, rho] + sum_i L_i rho L_i^dag
  - 1/2 {L_i^dag L_i, rho} with an adaptive Runge-Kutta on the dense state and
  sparse operator action (no superoperator is materialized).
* ``steady_state`` finds rho_ss by LGMRES on the trace-stabilized generator,
  matrix-free and restricted to the photon-number-parity sector of the vacuum
  (which pins a unique state when parity is a strong symmetry), or by
  long-time integration as an independent reference; either way the residual
  is verified against the full generator.
* ``homodyne_spectrum`` applies the quantum regression theorem in the
  frequency domain: one resolvent solve (G - i w) X = -A0' per frequency, G
  being the generator, by the steady state's Krylov solver; A0' is the seed
  L rho_ss + rho_ss L^dag of channel L without its stationary part.
* ``sse_ensemble`` integrates the unnormalized stochastic Schroedinger
  equation by Euler-Maruyama with per-step normalization, all trajectories as
  one block; ``sse_trajectory`` is its one-trajectory case.  Noise streams are
  keyed per (seed, trajectory, channel), so neither the channel nor the
  trajectory count reshuffles existing streams.
* ``mean_field`` integrates the deterministic part of the supermode
  Heisenberg equations of motion (the classical oracle).

The generator is real: every model operator makes -iH and each Lindblad
operator real, and ``_MasterRHS`` refuses one that is not.  A state keeps the
dtype of its input, so the vacuum evolves, relaxes and unravels in float64,
while a resolvent seeded by a complex homodyne channel runs in complex128.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.integrate import solve_ivp
from scipy.sparse import linalg as spla

from .hilbert import DensityOperator, LinearOperator, StateVector, trace_product, vacuum_state
from .model import OpenSystemModel
from .supermode import SupermodeSet


# LGMRES settings of the Krylov solves (steady state and spectrum resolvents),
# solved to near round-off so the exit residual checks have ample margin.
KRYLOV_RTOL = 1e-12
KRYLOV_INNER_M = 60
KRYLOV_MAXITER = 1000

# Output times of an SSE trajectory may sit this many steps off the dt lattice.
GRID_ALIGN_TOL = 1e-6

# Long-time steady state: chunk length and total time budget.
LONG_TIME_CHUNK = 10.0
LONG_TIME_MAX = 10000.0

# RK45 tolerances of the master equation and of the mean field.
MASTER_RTOL, MASTER_ATOL = 1e-9, 1e-11
MEAN_FIELD_RTOL, MEAN_FIELD_ATOL = 1e-10, 1e-12

# Most negative eigenvalue tolerated in a returned density matrix.
POSITIVITY_TOL = 1e-8

# Homodyne spectrum: largest accepted ||(G - i w) X + A0'||_F / ||A0'||_F, G the generator.
SPECTRUM_RESIDUAL_TOL = 1e-8

# SSE: largest per-step norm drift before the step counts as unstable.
SSE_NORM_DRIFT_MAX = 0.5


class ConvergenceError(RuntimeError):
    """An iterative solver failed to reach its tolerance."""


@dataclass
class SimulationRecord:
    times: np.ndarray
    observables: dict[str, np.ndarray]
    final_state: object
    seed: int | None = None
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1 or np.any(np.diff(t) <= 0):
            raise ValueError("times must be strictly increasing")
        self.times = t
        for name, series in self.observables.items():
            if len(series) != t.size:
                raise ValueError(f"observable {name!r} length does not match times")


@dataclass
class SpectrumResult:
    omega: np.ndarray
    S: np.ndarray
    normalization: str = "vacuum = 1"
    metadata: dict = field(default_factory=dict)


class _MasterRHS:
    """The Lindblad generator every solver shares, as real sparse operator action.

    ``C = -iH - 1/2 sum L^T L`` and the jump operators ``Ls`` drive both the
    master equation (``apply``) and the SSE drift.  Every model operator makes
    -iH and each L real, so C and L are stored as real CSR and L^dag = L^T; a
    real state stays real and a complex one goes through the same products.
    A nonzero imaginary entry of -iH or of an L would be lost, so it raises
    :class:`ValueError` naming the operator.  ``apply`` forms rho C^T and
    L rho L^T as (C rho^T)^T and (L (L rho)^T)^T, so every product is a CSR
    matrix times a dense one.
    """

    def __init__(self, model: OpenSystemModel):
        named = [("-iH", -1j * model.H.matrix)] + [
            (f"Lindblad {k} ({l.kind}, index {l.index})", l.op.matrix)
            for k, l in enumerate(model.lindblads)
        ]
        for name, op in named:
            if op.imag.count_nonzero():
                raise ValueError(f"{name} has a nonzero imaginary entry; the generator is real")
        acc, *self.Ls = [op.real.tocsr() for _, op in named]  # -iH, then every L
        for L in self.Ls:
            acc = acc - 0.5 * (L.T @ L)
        self.C = acc.tocsr()  # drho = C rho + rho C^T + sum L rho L^T
        self.dim = model.space.dim

    def apply(self, rho: np.ndarray) -> np.ndarray:
        out = self.C @ rho
        out += (self.C @ rho.T).T
        for L in self.Ls:
            out += (L @ (L @ rho).T).T
        return out

    def flat(self, _t, y: np.ndarray) -> np.ndarray:
        return self.apply(y.reshape(self.dim, self.dim)).ravel()


def _checked_state(rho: np.ndarray, where: str) -> np.ndarray:
    """``rho`` symmetrized; :class:`ConvergenceError` if an eigenvalue is below -POSITIVITY_TOL."""
    rho = (rho + rho.conj().T) / 2.0
    lam_min = float(np.linalg.eigvalsh(rho).min())
    if lam_min < -POSITIVITY_TOL:
        raise ConvergenceError(f"negative eigenvalue {lam_min:.3e} {where}")
    return rho


def evolve_master(
    model: OpenSystemModel,
    rho0: DensityOperator,
    t_grid,
    observables: dict[str, LinearOperator] | None = None,
    trace_tol: float = 1e-8,
    keep_states: bool = False,
) -> SimulationRecord:
    """Integrate the master equation, recording observables on ``t_grid``.

    Trace drift beyond ``trace_tol`` or an eigenvalue below ``-POSITIVITY_TOL``
    at any output point raises :class:`ConvergenceError` with a suggestion to
    tighten ``MASTER_RTOL``/``MASTER_ATOL``.  Output states are symmetrized
    before recording.
    """
    if rho0.space != model.space:
        raise ValueError("initial state lives on a different space")
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size < 2 or np.any(np.diff(t) <= 0):
        raise ValueError("t_grid must be strictly increasing with at least two points")
    observables = observables or {}
    for name, op in observables.items():
        if op.space != model.space:
            raise ValueError(f"observable {name!r} lives on a different space")
    rhs = _MasterRHS(model)

    sol = solve_ivp(
        rhs.flat, (t[0], t[-1]), rho0.matrix.ravel(),
        t_eval=t, method="RK45", rtol=MASTER_RTOL, atol=MASTER_ATOL,
    )
    if not sol.success:
        raise ConvergenceError(f"master-equation integrator failed: {sol.message}")

    dim = model.space.dim
    series = {name: np.empty(t.size, dtype=complex) for name in observables}
    states = []
    for idx in range(t.size):
        rho_m = _checked_state(
            sol.y[:, idx].reshape(dim, dim),
            f"at t={t[idx]:.4g}; tighten MASTER_RTOL/MASTER_ATOL",
        )
        tr = np.trace(rho_m).real
        if abs(tr - 1.0) > trace_tol:
            raise ConvergenceError(
                f"trace drift {abs(tr - 1.0):.3e} at t={t[idx]:.4g} exceeds {trace_tol:.1g}; "
                "tighten MASTER_RTOL/MASTER_ATOL"
            )
        for name, op in observables.items():
            series[name][idx] = trace_product(op.matrix, rho_m)
        if keep_states:
            states.append(DensityOperator(model.space, rho_m))
    extras = {"states": states} if keep_states else {}
    return SimulationRecord(t, series, DensityOperator(model.space, rho_m), extras=extras)


def _parity_action(op: sparse.spmatrix, even: np.ndarray) -> str:
    """"keep" if ``op`` preserves total photon-number parity, "flip" if it flips it, else "mix"."""
    coo = op.tocoo()
    nonzero = coo.data != 0
    same = even[coo.row[nonzero]] == even[coo.col[nonzero]]
    return "keep" if same.all() else "flip" if not same.any() else "mix"


def _steady_sector(model: OpenSystemModel) -> np.ndarray:
    """Boolean d x d mask of the entries of rho in the vacuum's parity sector.

    H and every Lindblad operator preserving photon-number parity (strong
    symmetry): the even-even block.  H preserving it and each Lindblad operator
    preserving or flipping it (weak symmetry): the block-diagonal even+odd set.
    Otherwise every entry.
    """
    even = np.indices(model.space.cutoffs).sum(axis=0).ravel() % 2 == 0
    actions = {_parity_action(l.op.matrix, even) for l in model.lindblads}
    if _parity_action(model.H.matrix, even) != "keep" or "mix" in actions:
        return np.ones((even.size, even.size), dtype=bool)
    if actions == {"keep"}:
        return np.outer(even, even)
    return even[:, None] == even[None, :]


def _krylov_solve(rhs: _MasterRHS, mask: np.ndarray, s: complex, y: np.ndarray, x0: np.ndarray):
    """Solve (G - s) x + tr(x) I_s/d_s = y, G = ``rhs``, by matrix-free LGMRES on ``mask``.

    I_s and d_s are the identity on the mask's diagonal and its size; ``y``,
    ``x0`` and x (zero off the mask) are d x d.  Returns x, info, iterations.
    """
    dim = rhs.dim
    dtype = np.result_type(y, s)  # float64 for the steady state, complex for a resolvent
    idx = np.flatnonzero(mask)
    on_diag = idx // dim == idx % dim
    pin = on_diag / on_diag.sum()  # I_s / d_s

    def embed(x: np.ndarray) -> np.ndarray:
        full = np.zeros(dim * dim, dtype=dtype)
        full[idx] = x
        return full.reshape(dim, dim)

    def matvec(x: np.ndarray) -> np.ndarray:
        return rhs.apply(embed(x)).ravel()[idx] + x[on_diag].sum() * pin - s * x

    outer = []  # one entry per outer LGMRES iteration
    x, info = spla.lgmres(
        spla.LinearOperator((idx.size, idx.size), matvec=matvec, dtype=dtype),
        y.ravel()[idx], x0=x0.ravel()[idx], rtol=KRYLOV_RTOL, atol=0.0,
        inner_m=KRYLOV_INNER_M, maxiter=KRYLOV_MAXITER, callback=lambda _x: outer.append(1),
    )
    return embed(x), info, len(outer)


def steady_state(
    model: OpenSystemModel,
    method: str = "auto",
    tol: float = 1e-8,
) -> DensityOperator:
    """Steady state of the model by a sectored Krylov solve or long-time integration.

    ``"null-space"`` (and ``"auto"``) solves L x + tr(x) I_s/d_s = I_s/d_s by
    :func:`_krylov_solve` over the entries of rho in the vacuum's parity sector
    (:func:`_steady_sector`), I_s and d_s being the sector's identity and
    diagonal size.  The trace term makes the operator invertible when the
    sector holds one steady state, which fixing the sector ensures even where
    a strong parity symmetry makes the full kernel degenerate.
    ``"long-time"`` integrates from the vacuum instead.

    The returned state always satisfies ||d rho/dt||_F < tol (verified against
    the full generator for both methods) and has no eigenvalue below
    ``-POSITIVITY_TOL``; otherwise :class:`ConvergenceError`.
    """
    if not model.lindblads:
        raise ConvergenceError("model has no Lindblad operators; no relaxation to a steady state")
    if method == "auto":
        method = "null-space"
    rhs = _MasterRHS(model)

    if method == "null-space":
        mask = _steady_sector(model)
        b = np.diag(mask.diagonal() / mask.diagonal().sum())  # I_s / d_s
        rho, info, iterations = _krylov_solve(rhs, mask, 0.0, b, b)
        rho = (rho + rho.conj().T) / 2.0
        rho = rho / np.trace(rho).real
        residual = float(np.linalg.norm(rhs.apply(rho)))
        if info != 0 or not residual <= tol:
            raise ConvergenceError(
                f"Krylov steady state failed (LGMRES info {info}) after {iterations} "
                f"iterations: residual {residual:.3e}, tol {tol:.1g}"
            )
    elif method == "long-time":
        rho = vacuum_state(model.space).to_density().matrix
        elapsed = 0.0
        while elapsed < LONG_TIME_MAX:
            sol = solve_ivp(
                rhs.flat, (0.0, LONG_TIME_CHUNK), rho.ravel(),
                method="RK45", rtol=1e-10, atol=1e-12,
            )
            if not sol.success:
                raise ConvergenceError(f"long-time integrator failed: {sol.message}")
            rho = sol.y[:, -1].reshape(rho.shape)
            rho = (rho + rho.conj().T) / 2.0
            rho = rho / np.trace(rho).real
            elapsed += LONG_TIME_CHUNK
            residual = float(np.linalg.norm(rhs.apply(rho)))
            if residual < tol:
                break
        else:
            raise ConvergenceError(
                f"steady state not reached within t={LONG_TIME_MAX} (residual {residual:.3e})"
            )
    else:
        raise ValueError(f"unknown steady-state method {method!r}")
    return DensityOperator(model.space, _checked_state(rho, f"in the {method} steady state"))


def homodyne_spectrum(
    model: OpenSystemModel,
    channel: LinearOperator,
    omega_grid,
    rho_ss: DensityOperator | None = None,
) -> SpectrumResult:
    """Steady-state homodyne (squeezing) spectrum of one output channel.

    S(w) = 1 + 2 Re tr[(L + L^dag) X] for channel L, where (G - i w) X + tr(X) I/d
    = -A0' is solved by :func:`_krylov_solve` (G the generator), warm-started
    from the previous w, and A0' = A0 - tr(A0) rho_ss, A0 = L rho_ss + rho_ss L^dag.
    As tr(A0') = 0, the trace term only makes w = 0 solvable.  1 is the analytic
    vacuum level.  A residual above ``SPECTRUM_RESIDUAL_TOL`` ||A0'|| raises
    :class:`ConvergenceError`.
    """
    if channel.space != model.space:
        raise ValueError("channel lives on a different space")
    if rho_ss is not None and rho_ss.space != model.space:
        raise ValueError("steady state lives on a different space")
    w = np.asarray(omega_grid, dtype=float)

    rho = (steady_state(model) if rho_ss is None else rho_ss).matrix
    L = channel.matrix
    A0 = L @ rho + rho @ L.conj().T
    A0 = A0 - np.trace(A0) * rho
    quad = (L + L.conj().T).tocsr()
    scale = float(np.linalg.norm(A0))

    rhs = _MasterRHS(model)
    every = np.ones(rho.shape, dtype=bool)
    X = np.zeros_like(A0)
    S = np.empty(w.size)
    worst, total = 0.0, 0
    for k, wk in enumerate(w):
        X, info, iterations = _krylov_solve(rhs, every, 1j * wk, -A0, X)
        total += iterations
        residual = float(np.linalg.norm(rhs.apply(X) - 1j * wk * X + A0))
        if info != 0 or not residual <= SPECTRUM_RESIDUAL_TOL * scale:
            raise ConvergenceError(
                f"Krylov spectrum at w={wk:.4g} failed (LGMRES info {info}) after {iterations} "
                f"iterations: residual {residual:.3e}, tol {SPECTRUM_RESIDUAL_TOL * scale:.1e}"
            )
        worst = max(worst, residual / scale if scale else 0.0)
        S[k] = 1.0 + 2.0 * trace_product(quad, X).real
    metadata = {"krylov_iterations": total, "max_relative_residual": worst}
    return SpectrumResult(w, S, metadata=metadata)


def rotated_channel(op: LinearOperator, phase_deg: float) -> LinearOperator:
    """Channel with homodyne phase rotated: L -> exp(i phase) L."""
    return np.exp(1j * np.deg2rad(phase_deg)) * op


def _noise_streams(seed: int, n_trajectories: int, n_channels: int, n_steps: int, dt: float):
    """Increments dW[channel, step, trajectory]; each stream keyed (seed, trajectory, channel)."""
    dW = np.empty((n_channels, n_steps, n_trajectories))
    root_dt = np.sqrt(dt)
    for k in range(n_trajectories):
        for ch in range(n_channels):
            ss = np.random.SeedSequence(entropy=seed, spawn_key=(k, ch))
            dW[ch, :, k] = np.random.default_rng(ss).normal(0.0, root_dt, n_steps)
    return dW


def step_grid(t_grid, dt: float) -> np.ndarray:
    """``t_grid`` moved onto the dt step lattice that :func:`sse_ensemble` requires.

    A grid already on the lattice is returned unchanged; otherwise every point
    is rounded to the nearest step and repeated steps are dropped.
    """
    t = np.asarray(t_grid, dtype=float)
    steps = np.rint(t / dt)
    if np.max(np.abs(t / dt - steps)) <= GRID_ALIGN_TOL:
        return t
    return np.unique(steps) * dt


def sse_ensemble(
    model: OpenSystemModel,
    psi0: StateVector,
    t_grid,
    n_trajectories: int,
    seed: int,
    dt: float = 1e-3,
    observables: dict[str, LinearOperator] | None = None,
) -> list[SimulationRecord]:
    """Homodyne-unraveling trajectories by Euler-Maruyama with per-step normalization.

    All trajectories evolve as one d x n_trajectories block on one generator
    build.  Each records observables at ``t_grid`` (which :func:`step_grid`
    must leave unchanged) and, per channel, the mean homodyne current over each
    output interval: (sum of dW + <L + L^dag> dt) / interval.  Trajectory k's
    noise is keyed (seed, k, channel), whatever ``n_trajectories``; a run is
    bit-reproducible for fixed (seed, n_trajectories, dt, Lindblad order).  A
    norm drift above ``SSE_NORM_DRIFT_MAX`` raises :class:`ConvergenceError`
    naming the trajectory and the step.
    """
    if psi0.space != model.space:
        raise ValueError("initial state lives on a different space")
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size < 2 or t[0] != 0.0 or np.any(np.diff(t) <= 0):
        raise ValueError("t_grid must start at 0 and increase strictly")
    if dt <= 0:
        raise ValueError("dt must be positive")
    out_steps = np.rint(t / dt).astype(int)
    if not np.array_equal(step_grid(t, dt), t) or np.any(np.diff(out_steps) == 0):
        raise ValueError("every t_grid point must be an integer multiple of dt")
    observables = observables or {}
    for name, op in observables.items():
        if op.space != model.space:
            raise ValueError(f"observable {name!r} lives on a different space")

    gen = _MasterRHS(model)
    # dW[:, step] becomes that step's homodyne increment <L + L^dag> dt + dW in place
    dW = _noise_streams(seed, n_trajectories, len(gen.Ls), out_steps[-1], dt)
    psi = np.repeat(psi0.normalized().amplitudes[:, None], n_trajectories, axis=1)
    series = {name: np.empty((t.size, n_trajectories), dtype=complex) for name in observables}

    def record(out_idx: int):
        for name, op in observables.items():
            series[name][out_idx] = np.einsum("ij,ij->j", psi.conj(), op.matrix @ psi)

    record(0)
    out_idx = 1
    for step in range(out_steps[-1]):
        psi_conj = psi.conj()
        dpsi = dt * (gen.C @ psi)
        for L, increment in zip(gen.Ls, dW[:, step]):
            Lpsi = L @ psi
            increment += 2.0 * np.einsum("ij,ij->j", psi_conj, Lpsi).real * dt
            dpsi += increment * Lpsi
        psi = psi + dpsi
        nrm = np.sqrt(np.einsum("ij,ij->j", psi.conj(), psi).real)
        unstable = ~(np.abs(nrm - 1.0) <= SSE_NORM_DRIFT_MAX)
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


def sse_trajectory(
    model: OpenSystemModel,
    psi0: StateVector,
    t_grid,
    seed: int,
    dt: float = 1e-3,
    observables: dict[str, LinearOperator] | None = None,
) -> SimulationRecord:
    """One homodyne trajectory: trajectory 0 of :func:`sse_ensemble`, noise keyed (seed, 0, ch)."""
    return sse_ensemble(model, psi0, t_grid, 1, seed, dt, observables)[0]


def ensemble_mean(records: list[SimulationRecord], name: str):
    """Mean and standard error of one observable across an ensemble.

    One record has no sample spread: its standard error is NaN at every time.
    """
    stack = np.array([r.observables[name] for r in records]).real
    mean = stack.mean(axis=0)
    if stack.shape[0] < 2:
        return mean, np.full(mean.shape, np.nan)
    stderr = stack.std(axis=0, ddof=1) / np.sqrt(stack.shape[0])
    return mean, stderr


def mean_field(
    sm: SupermodeSet,
    drive: float,
    kappa: float,
    S0,
    t_grid,
) -> SimulationRecord:
    """Classical supermode amplitudes under the deterministic equations of motion.

    dS_i/dt = -kappa S_i - 2 A sum_j G^(1)_ij conj(S_j)
              - sum_k sum_jmn G^(k)_ij G^(k)_mn conj(S_j) S_m S_n

    with A the drive amplitude on the label-1 pump channel.  The loss term is
    -kappa S_i because the loss is uniform over the comb lines and the signal
    supermodes are orthonormal, so it stays uniform in the supermode basis.
    """
    S0 = np.asarray(S0, dtype=complex)
    if S0.size != sm.n_signal:
        raise ValueError(f"need {sm.n_signal} initial amplitudes, got {S0.size}")
    t = np.asarray(t_grid, dtype=float)
    G1 = sm.tensor_for_label(1)
    tensors = list(sm.tensors)

    def rhs(_t, S):
        Sc = S.conj()
        out = -kappa * S - 2.0 * drive * (G1 @ Sc)
        for G in tensors:
            out -= (S @ G @ S) * (G @ Sc)
        return out

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
