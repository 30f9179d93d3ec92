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
* ``sse_trajectory`` integrates the unnormalized stochastic Schroedinger
  equation with an Euler-Maruyama step and per-step normalization; noise
  streams are keyed per (seed, trajectory, channel) so channel-count changes
  never reshuffle existing streams.
* ``mean_field`` integrates the deterministic part of the supermode
  Heisenberg equations of motion (the classical oracle).
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

# Master equation: most negative eigenvalue tolerated at an output point.
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
    """The Lindblad generator every solver shares, as sparse operator action.

    ``C = -iH - 1/2 sum L^dag L`` and the jump operators ``Ls`` drive both the
    master equation (``apply``) and the SSE drift.
    """

    def __init__(self, model: OpenSystemModel):
        H = model.H.matrix
        Ls = [l.op.matrix for l in model.lindblads]
        acc = -1j * H
        for L in Ls:
            acc = acc - 0.5 * (L.conj().T @ L)
        self.C = acc.tocsr()            # drho = C rho + rho C^dag + sum L rho L^dag
        self.C_conj = acc.conj().tocsr()  # rho C^dag computed as (C_conj rho^T)^T
        self.Ls = [L.tocsr() for L in Ls]
        self.Ldags = [L.conj().T.tocsr() for L in Ls]
        self.dim = model.space.dim

    def apply(self, rho: np.ndarray) -> np.ndarray:
        out = self.C @ rho
        out += (self.C_conj @ rho.T).T
        for L, Ldag in zip(self.Ls, self.Ldags):
            out += (L @ rho) @ Ldag
        return out

    def flat(self, _t, y: np.ndarray) -> np.ndarray:
        return self.apply(y.reshape(self.dim, self.dim)).ravel()


def evolve_master(
    model: OpenSystemModel,
    rho0: DensityOperator,
    t_grid,
    observables: dict[str, LinearOperator] | None = None,
    rtol: float = 1e-9,
    atol: float = 1e-11,
    trace_tol: float = 1e-8,
    keep_states: bool = False,
) -> SimulationRecord:
    """Integrate the master equation, recording observables on ``t_grid``.

    Trace drift beyond ``trace_tol`` or an eigenvalue below ``-POSITIVITY_TOL``
    at any output point raises :class:`ConvergenceError` with a suggestion to
    tighten tolerances.  Output states are symmetrized before recording.
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
        t_eval=t, method="RK45", rtol=rtol, atol=atol,
    )
    if not sol.success:
        raise ConvergenceError(f"master-equation integrator failed: {sol.message}")

    dim = model.space.dim
    series = {name: np.empty(t.size, dtype=complex) for name in observables}
    states = [] if keep_states else None
    rho_out = None
    for idx in range(t.size):
        rho_m = sol.y[:, idx].reshape(dim, dim)
        rho_m = (rho_m + rho_m.conj().T) / 2.0
        tr = np.trace(rho_m).real
        if abs(tr - 1.0) > trace_tol:
            raise ConvergenceError(
                f"trace drift {abs(tr - 1.0):.3e} at t={t[idx]:.4g} exceeds {trace_tol:.1g}; "
                "tighten rtol/atol"
            )
        lam_min = float(np.linalg.eigvalsh(rho_m).min())
        if lam_min < -POSITIVITY_TOL:
            raise ConvergenceError(
                f"negative eigenvalue {lam_min:.3e} at t={t[idx]:.4g}; tighten rtol/atol"
            )
        for name, op in observables.items():
            series[name][idx] = trace_product(op.matrix, rho_m)
        if keep_states:
            states.append(DensityOperator(model.space, rho_m))
        rho_out = rho_m

    record = SimulationRecord(
        times=t,
        observables=series,
        final_state=DensityOperator(model.space, rho_out),
    )
    if keep_states:
        record.extras["states"] = states
    return record


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
    idx = np.flatnonzero(mask)
    on_diag = idx // dim == idx % dim
    pin = on_diag / complex(on_diag.sum())  # I_s / d_s

    def embed(x: np.ndarray) -> np.ndarray:
        full = np.zeros(dim * dim, dtype=complex)
        full[idx] = x
        return full.reshape(dim, dim)

    def matvec(x: np.ndarray) -> np.ndarray:
        return rhs.apply(embed(x)).ravel()[idx] + x[on_diag].sum() * pin - s * x

    outer = []  # one entry per outer LGMRES iteration
    x, info = spla.lgmres(
        spla.LinearOperator((idx.size, idx.size), matvec=matvec, dtype=complex),
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
    the full generator for both methods); otherwise :class:`ConvergenceError`.
    """
    if not model.lindblads:
        raise ConvergenceError("model has no Lindblad operators; no relaxation to a steady state")
    if method == "auto":
        method = "null-space"
    rhs = _MasterRHS(model)

    if method == "null-space":
        mask = _steady_sector(model)
        b = np.diag(mask.diagonal() / complex(mask.diagonal().sum()))  # I_s / d_s
        rho, info, iterations = _krylov_solve(rhs, mask, 0.0, b, b)
        rho = (rho + rho.conj().T) / 2.0
        rho = rho / np.trace(rho).real
        residual = float(np.linalg.norm(rhs.apply(rho)))
        if info != 0 or not residual <= tol:
            raise ConvergenceError(
                f"Krylov steady state failed (LGMRES info {info}) after {iterations} "
                f"iterations: residual {residual:.3e}, tol {tol:.1g}"
            )
        return DensityOperator(model.space, rho)

    if method == "long-time":
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
                return DensityOperator(model.space, rho)
        raise ConvergenceError(
            f"steady state not reached within t={LONG_TIME_MAX} (residual {residual:.3e})"
        )

    raise ValueError(f"unknown steady-state method {method!r}")


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


def _noise_streams(seed: int, trajectory: int, n_channels: int, n_steps: int, dt: float):
    """One Gaussian increment stream per channel, keyed (seed, trajectory, channel)."""
    streams = np.empty((n_channels, n_steps))
    root_dt = np.sqrt(dt)
    for ch in range(n_channels):
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(trajectory, ch))
        streams[ch] = np.random.default_rng(ss).normal(0.0, root_dt, n_steps)
    return streams


def _align_grid(t_grid: np.ndarray, dt: float):
    """Output indices of t_grid points on the uniform step grid; grid must align."""
    steps = t_grid / dt
    rounded = np.rint(steps).astype(int)
    if np.max(np.abs(steps - rounded)) > GRID_ALIGN_TOL:
        raise ValueError("every t_grid point must be an integer multiple of dt")
    return rounded


def step_grid(t_grid, dt: float) -> np.ndarray:
    """``t_grid`` moved onto the dt step lattice that ``sse_trajectory`` requires.

    A grid already on the lattice is returned unchanged; otherwise every point
    is rounded to the nearest step and repeated steps are dropped.
    """
    t = np.asarray(t_grid, dtype=float)
    steps = np.rint(t / dt)
    if np.max(np.abs(t / dt - steps)) <= GRID_ALIGN_TOL:
        return t
    return np.unique(steps) * dt


def sse_trajectory(
    model: OpenSystemModel,
    psi0: StateVector,
    t_grid,
    seed: int,
    dt: float = 1e-3,
    observables: dict[str, LinearOperator] | None = None,
    trajectory_index: int = 0,
) -> SimulationRecord:
    """One homodyne-unraveling trajectory by Euler-Maruyama with per-step normalization.

    Records observables at ``t_grid`` (which must lie on the dt step grid) and,
    per channel, the mean homodyne current over each output interval:
    (sum of dW + <L + L^dag> dt) / interval.  Bit-reproducible for fixed
    (seed, trajectory_index, dt, Lindblad order).
    """
    if psi0.space != model.space:
        raise ValueError("initial state lives on a different space")
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size < 2 or t[0] != 0.0 or np.any(np.diff(t) <= 0):
        raise ValueError("t_grid must start at 0 and increase strictly")
    if dt <= 0:
        raise ValueError("dt must be positive")
    out_steps = _align_grid(t, dt)
    n_steps = out_steps[-1]
    observables = observables or {}
    for name, op in observables.items():
        if op.space != model.space:
            raise ValueError(f"observable {name!r} lives on a different space")

    gen = _MasterRHS(model)
    C, Ls = gen.C, gen.Ls
    n_ch = len(Ls)

    dW = _noise_streams(seed, trajectory_index, n_ch, n_steps, dt) if n_ch else np.zeros((0, n_steps))

    psi = psi0.normalized().amplitudes.copy()
    series = {name: np.empty(t.size, dtype=complex) for name in observables}
    homodyne = np.zeros((n_ch, t.size - 1))
    current_acc = np.zeros(n_ch)

    def record(out_idx: int):
        for name, op in observables.items():
            series[name][out_idx] = np.vdot(psi, op.matrix @ psi)

    record(0)
    out_idx = 1
    for step in range(n_steps):
        Lpsis = [L @ psi for L in Ls]
        quad = np.array([2.0 * np.real(np.vdot(psi, Lp)) for Lp in Lpsis])
        dpsi = dt * (C @ psi)
        for ch in range(n_ch):
            dpsi += (quad[ch] * dt + dW[ch, step]) * Lpsis[ch]
        psi = psi + dpsi
        nrm = np.linalg.norm(psi)
        if abs(nrm - 1.0) > SSE_NORM_DRIFT_MAX or not np.isfinite(nrm):
            raise ConvergenceError(
                f"norm drift {abs(nrm - 1.0):.3g} at step {step}; reduce dt"
            )
        psi /= nrm
        current_acc += quad * dt + dW[:, step] if n_ch else 0.0
        if step + 1 == out_steps[out_idx]:
            record(out_idx)
            span = t[out_idx] - t[out_idx - 1]
            homodyne[:, out_idx - 1] = current_acc / span
            current_acc = np.zeros(n_ch)
            out_idx += 1

    return SimulationRecord(
        times=t,
        observables=series,
        final_state=StateVector(model.space, psi),
        seed=seed,
        extras={"homodyne_currents": homodyne, "dt": dt},
    )


def sse_ensemble(
    model: OpenSystemModel,
    psi0: StateVector,
    t_grid,
    n_trajectories: int,
    seed: int,
    dt: float = 1e-3,
    observables: dict[str, LinearOperator] | None = None,
) -> list[SimulationRecord]:
    """Independent trajectories with per-trajectory noise keys, merged in seed order."""
    return [
        sse_trajectory(
            model, psi0, t_grid, seed=seed, dt=dt,
            observables=observables, trajectory_index=k,
        )
        for k in range(n_trajectories)
    ]


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


def sse_step_convergence(
    model: OpenSystemModel,
    psi0: StateVector,
    t_grid,
    seed: int,
    dt: float,
    observable: LinearOperator,
) -> float:
    """Half-step self-test: max deviation of one observable between dt and dt/2 runs."""
    a = sse_trajectory(model, psi0, t_grid, seed, dt, {"obs": observable})
    b = sse_trajectory(model, psi0, t_grid, seed, dt / 2.0, {"obs": observable})
    return float(np.max(np.abs(a.observables["obs"].real - b.observables["obs"].real)))


def mean_field(
    sm: SupermodeSet,
    drive: float,
    kappa: float,
    S0,
    t_grid,
    rtol: float = 1e-10,
    atol: float = 1e-12,
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

    sol = solve_ivp(rhs, (t[0], t[-1]), S0, t_eval=t, method="RK45", rtol=rtol, atol=atol)
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
