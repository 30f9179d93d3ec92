"""Analytic results and reference solvers the tests check the solvers against."""

import math
from functools import partial
from itertools import count

import numpy as np
from scipy import sparse

from spopo import dynamics, hilbert
from spopo.dynamics import ConvergenceError, SimulationRecord, SpectrumResult
from spopo.hilbert import FockSpace, LinearOperator
from spopo.model import Lindblad, OpenSystemModel

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


def kron_annihilation(cutoffs, mode: int) -> sparse.csr_matrix:
    """I x .. x a x .. x I with a|n> = sqrt(n)|n-1> on ``mode``, from Kronecker products."""
    a = sparse.diags(np.sqrt(np.arange(1, cutoffs[mode], dtype=float)), offsets=1,
                     dtype=complex, format="csr")
    left = sparse.identity(math.prod(cutoffs[:mode]), dtype=complex)
    right = sparse.identity(math.prod(cutoffs[mode + 1:]), dtype=complex)
    return sparse.kron(sparse.kron(left, a), right, format="csr")


def kron_number_operator(cutoffs, mode: int) -> sparse.csr_matrix:
    """a^dag a of :func:`kron_annihilation`, a sparse product."""
    a = kron_annihilation(cutoffs, mode)
    return (a.conj().T @ a).tocsr()


def same_csr(a, b) -> bool:
    """Whether two CSR matrices hold the same indptr, indices and data, dtype and bytes."""
    return all(getattr(a, k).dtype == getattr(b, k).dtype
               and getattr(a, k).tobytes() == getattr(b, k).tobytes()
               for k in ("indptr", "indices", "data"))


def _squeezing_hamiltonian(P, drive: float, lam_ratio: np.ndarray) -> sparse.csr_matrix:
    """(i * drive / 4) sum_i lam_ratio_i S_i^2 + h.c. from the pair products P[i][j] = S_i S_j."""
    acc = sparse.csr_matrix(P[0][0].shape, dtype=complex)
    for i, ratio in enumerate(lam_ratio):
        acc = acc + P[i][i] * (1j * drive / 4.0 * ratio)
    return acc + acc.conj().T


def _pair_operator(P, weights: np.ndarray) -> sparse.csr_matrix:
    """sum_ij weights_ij S_i S_j with a symmetric weight matrix, from P[i][j] = S_i S_j."""
    acc = sparse.csr_matrix(P[0][0].shape, dtype=complex)
    for i in range(len(P)):
        for j in range(len(P)):
            w = weights[i, j]
            if w != 0.0:
                acc = acc + w * P[i][j]
    return acc


def pair_table_build(sm, cutoffs, params, *, drive: float, scale: float,
                     linear_rate: float | None) -> OpenSystemModel:
    """``model._build`` from the table P[i][j] = S_i S_j of sparse products, each quadratic
    form summed by one sparse add per nonzero weight: the reference of the one-pass assembly
    by ``hilbert.pair_operator``."""
    cutoffs = tuple(int(c) for c in cutoffs)
    if len(cutoffs) != sm.n_signal:
        raise ValueError(
            f"{len(cutoffs)} cutoffs for {sm.n_signal} retained signal supermodes"
        )
    space = FockSpace(cutoffs)
    S = [hilbert.annihilation(space, i).matrix for i in range(space.mode_count)]
    P = [[Si @ Sj for Sj in S] for Si in S]
    lam1 = sm.lambda1
    H = LinearOperator(space, _squeezing_hamiltonian(P, drive, sm.eigenvalues / lam1))

    lindblads = []
    if linear_rate is not None:
        lindblads = [
            Lindblad(LinearOperator(space, math.sqrt(linear_rate) * S[i]), "linear", i + 1)
            for i in range(sm.n_signal)
        ]
    for label, G in zip(sm.pump_labels, sm.tensors):
        op = scale * _pair_operator(P, G / lam1)
        if label == 1 and drive != 0.0:
            op = op + drive / (2.0 * scale) * sparse.identity(space.dim, dtype=complex)
        pumped = label == 1 and drive > 0
        lindblads.append(Lindblad(LinearOperator(space, op), "nonlinear", label, pumped))
    return OpenSystemModel(space, H, tuple(lindblads), params)


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
                         observables=None) -> SimulationRecord:
    """``dynamics.sse_ensemble`` with the noise of the whole run drawn before the first step
    and the homodyne currents reduced after the last: the streamed integrator's reference,
    returned as the same one record of [time, trajectory] observables, d x n_trajectories
    amplitudes and [channel, interval, trajectory] currents.  It steps with
    ``dynamics._sse_stack`` and ``_sse_steps``, one call per output interval, so it tests
    the noise streaming alone.

    ``t`` must be on the dt lattice and start at 0; inputs are not checked."""
    t = np.asarray(t, dtype=float)
    observables = observables or {}
    out_steps = np.rint(t / dt).astype(int)
    stacked, W, c = dynamics._sse_stack(model, dt)
    # dW[:, step] becomes that step's homodyne increment <L + L^dag> dt + dW in place
    dW = noise_streams(seed, n_trajectories, len(W), out_steps[-1], dt)
    psi = np.repeat(psi0.normalized().amplitudes[:, None], n_trajectories, axis=1)
    series = {name: np.empty((t.size, n_trajectories), dtype=complex) for name in observables}

    def record(out_idx: int):
        for name, op in observables.items():
            series[name][out_idx] = np.einsum("ij,ij->j", psi.conj(), op.matrix @ psi)

    record(0)
    for out_idx, (lo, hi) in enumerate(zip(out_steps[:-1], out_steps[1:]), start=1):
        psi = dynamics._sse_steps(stacked, W, c, psi, dW[:, lo:hi], dt, lo)
        record(out_idx)

    homodyne = np.add.reduceat(dW, out_steps[:-1], axis=1) / np.diff(t)[:, None]
    return SimulationRecord(t, series, psi, extras={"homodyne_currents": homodyne})


def trace_product(op, rho) -> complex:
    """tr(op rho) through scipy's elementwise product: ``hilbert.trace_product``'s reference."""
    return complex(op.multiply(rho.T).sum())


def gram_expectations_products(ops, rho) -> np.ndarray:
    """M_ab = tr(A_a^dag A_b rho) from the n^2 sparse products A_a^dag A_b:
    ``analysis._gram_expectations``' reference."""
    return np.array([[hilbert.trace_product(a.conj().T @ b, rho.matrix) for b in ops]
                     for a in ops])


def partial_trace_loop(rho, keep) -> np.ndarray:
    """The kept modes' reduced matrix by one ``np.trace`` per traced mode, the highest first:
    ``hilbert.partial_trace``'s reference."""
    n, dims = rho.space.mode_count, rho.space.cutoffs
    traced, left = rho.matrix.reshape(dims + dims), n
    for m in sorted(set(range(n)) - set(keep), reverse=True):
        traced = np.trace(traced, axis1=m, axis2=m + left)
        left -= 1
    d = math.prod(dims[m] for m in keep)
    return traced.reshape(d, d)


def cat_two_branch(space, p: float):
    """The normalized sum of the coherent states at +i sqrt(p) and -i sqrt(p), each built by
    ``hilbert.coherent_state``: ``analysis.cat_state``'s reference."""
    alpha = 1j * math.sqrt(p)
    amps = hilbert.coherent_state(space, alpha).amplitudes
    amps = amps + hilbert.coherent_state(space, -alpha).amplitudes
    return hilbert.StateVector(space, amps).normalized()


def diagonal_packed(rhs) -> np.ndarray:
    """``rhs.diagonal()`` (a ``dynamics._MasterRHS``) as the packed d x d sum of outer
    products C_ii + C_jj + sum_L L_ii L_jj."""
    c = rhs.C.diagonal()
    D = np.add.outer(c, c)
    for L in rhs.Ls:
        D += np.multiply.outer(L.diagonal(), L.diagonal())
    return rhs.pack(D)


def krylov_rhs_packed(rhs) -> np.ndarray:
    """The steady-state GMRES right-hand side I_s/d_s of ``dynamics._krylov_solve`` as the
    packed d x d identity over the count of its diagonal entries."""
    b = rhs.pack(np.eye(rhs.dim))
    return b / np.count_nonzero(b)


class WholeBlocks:
    """The generator of ``rhs`` (a ``dynamics._MasterRHS``) on whole packed states: the
    diagonal blocks of rho, every entry, one block after another, each row-major, by the
    same sparse products as ``rhs.apply`` but without its half layout."""

    def __init__(self, rhs):
        self.rhs, self.dim = rhs, rhs.dim
        self.places = np.concatenate([(rhs.dim * b[:, None] + b).ravel() for b in rhs.blocks])
        self.ends = np.cumsum([b.size ** 2 for b in rhs.blocks])[:-1]

    def pack(self, rho):
        return rho.ravel()[self.places]

    def unpack(self, y):
        rho = np.zeros(self.dim * self.dim, dtype=y.dtype)
        rho[self.places] = y
        return rho.reshape(self.dim, self.dim)

    def diagonal(self):
        return self.pack(self.rhs.unpack(self.rhs.diagonal()))

    def apply(self, y, sign=1):
        """M + sign M^dag, M = C rho + sign sum L~ (L~ rho)^dag, on a packed ``y`` of any shape
        with rho^dag = sign rho; counted in ``rhs.evaluations``."""
        self.rhs.evaluations += 1
        add = np.add if sign > 0 else np.subtract
        xs = [x.reshape(b.size, b.size)
              for x, b in zip(np.split(np.ravel(y), self.ends), self.rhs.blocks)]
        ms = [C @ x for C, x in zip(self.rhs._C, xs)]
        for a, b, L in self.rhs._half_Ls:
            add(ms[a], L @ (L @ xs[b]).conj().T, out=ms[a])
        return np.concatenate([add(m, m.conj().T).ravel() for m in ms]).reshape(np.shape(y))


def chebyshev_sums_full(rhs, y, z, scale):
    """``dynamics._chebyshev_sums`` with each sum held as a whole packed state: ``rhs`` a
    :class:`WholeBlocks`, ``y`` whole."""
    y_norm, quiet, closed = dynamics._norm(y), np.zeros(z.size, dtype=int), 0
    a = dynamics._bessel_weights(z, 1)
    sums = np.multiply.outer(a[0], y)
    older, v = y, rhs.apply(y) * (2.0 / scale) + y
    for k in count(1):
        if k == len(a):
            a = dynamics._bessel_weights(z, 2 * k)
        terms = a[k, closed:] * dynamics._norm(v)
        if not terms.max() <= dynamics.CHEBYSHEV_GROWTH * y_norm:
            return sums[:closed]
        for s, c in zip(sums[closed:], a[k, closed:]):
            s += c * v
        quiet[closed:] = np.where(terms <= dynamics.CHEBYSHEV_TOL * y_norm, quiet[closed:] + 1, 0)
        closed += int(np.logical_and.accumulate(quiet[closed:] >= 3).sum())
        if closed == z.size:
            return sums
        w = rhs.apply(v) * (4.0 / scale)
        w += 2.0 * v
        w -= older
        older, v = v, w


def chebyshev_full(rhs, y0, t):
    """``dynamics._chebyshev`` on :func:`chebyshev_sums_full`: the half-layout sums'
    reference, equal bit for bit.  It takes and yields halves, as ``dynamics._chebyshev``
    does, and holds every state whole in between."""
    whole = WholeBlocks(rhs)
    scale = -float(whole.diagonal().min()) or 1.0
    yield y0
    y, start, done, span = whole.pack(rhs.unpack(y0)), t[0], 1, np.inf
    while done < t.size:
        end = min(t[min(done + dynamics.CHEBYSHEV_OUTPUTS, t.size) - 1], start + span)
        upto = int(np.searchsorted(t, end, side="right"))
        ends = t[done:upto] if t[upto - 1] == end else np.append(t[done:upto], end)
        sums = chebyshev_sums_full(whole, y, (ends - start) * (scale / 2.0), scale)
        yield from (rhs.pack(whole.unpack(s)) for s in sums[:upto - done])
        if closed := len(sums):
            y, start, done = sums[-1].copy(), ends[closed - 1], min(done + closed, upto)
        del sums
        if not closed and (span := (end - start) / 2.0) * scale < 1.0:
            raise ConvergenceError("Chebyshev propagator diverged")


def arnoldi_full(matvec, v0, m):
    """``dynamics._arnoldi`` with BLAS products and norms."""
    V = np.empty((m + 1, v0.size), dtype=v0.dtype)
    V[0] = v0
    for j in range(m):
        w = matvec(V[j])
        h = np.zeros(j + 1, dtype=w.dtype)
        for _ in range(2):
            dh = (V[:j + 1] @ w.conj()).conj()
            w -= dh @ V[:j + 1]
            h += dh
        norm = np.linalg.norm(w)
        V[j + 1] = w / norm if norm else w
        yield V[:j + 2], np.append(h, norm)
        if not norm:
            return


def krylov_solve_full(rhs):
    """``dynamics._krylov_solve`` on whole packed vectors (:class:`WholeBlocks` of ``rhs``),
    minimizing their Euclidean norm."""
    rhs = WholeBlocks(rhs)
    b = rhs.pack(np.eye(rhs.dim))
    diag = np.flatnonzero(b)
    b /= diag.size
    jacobi = rhs.diagonal()
    jacobi[diag] += 1.0 / diag.size
    jacobi[jacobi == 0] = 1.0

    def matvec(x):
        out = rhs.apply(x)
        out[diag] += x[diag].sum() / diag.size
        return out

    x, target, built = b.copy(), dynamics.KRYLOV_RTOL * np.linalg.norm(b), 0
    while ((beta := np.linalg.norm(r := b - matvec(x))) > target
           and built < dynamics.KRYLOV_MAX_DIM):
        lstsq = dynamics._HessenbergLstsq(beta, 0.0)
        for V, h in arnoldi_full(lambda u: matvec(u / jacobi), r / beta,
                                 dynamics.KRYLOV_MAX_DIM - built):
            built += 1
            if lstsq.add(h) <= target:
                break
        x += (lstsq.solve() @ V[:-1]) / jacobi
    return rhs.unpack(x), built


def homodyne_spectrum_full(model, channel, omega_grid, rho_ss) -> SpectrumResult:
    """``dynamics.homodyne_spectrum`` with each Arnoldi basis on the whole d x d layout; no
    input checks."""
    w = np.asarray(omega_grid, dtype=float)
    rho = rho_ss.matrix
    rho = (rho + rho.conj().T) / 2.0
    L = channel.matrix
    A0 = L @ rho
    A0 = A0 + A0.conj().T
    A0 = A0 - np.trace(A0).real * rho
    quad = (L + L.conj().T).tocsr()
    scale = float(np.linalg.norm(A0))
    floor = dynamics.KRYLOV_RTOL * float(np.linalg.norm(L.data) * np.linalg.norm(rho))
    rhs = WholeBlocks(dynamics._MasterRHS(model))
    S, residuals, dimension = np.ones(w.size), np.zeros(w.size), 0
    for phase, sign, part in ((1.0, 1, A0.real), (1j, -1, A0.imag)):
        beta = float(np.linalg.norm(part))
        if beta <= floor:
            continue
        lstsq = dynamics._HessenbergLstsq(beta, 1j * w)
        action = partial(rhs.apply, sign=sign)
        for V, h in arnoldi_full(action, part.ravel() / beta, dynamics.KRYLOV_MAX_DIM):
            if lstsq.add(h).max(initial=0.0) <= dynamics.KRYLOV_RTOL * scale:
                break
        else:
            raise ConvergenceError("Krylov spectrum basis reached KRYLOV_MAX_DIM")
        V, dimension = V[:-1], dimension + V.shape[0] - 1
        for k, y in enumerate(lstsq.solve()):
            X = -(y.real @ V + 1j * (y.imag @ V)).reshape(A0.shape)
            GX = action(X.real) + 1j * action(X.imag)
            residuals[k] += float(np.linalg.norm(GX - 1j * w[k] * X + part)) / scale
            S[k] += 2.0 * (phase * trace_product(quad, X)).real
    return SpectrumResult(w, S, metadata={"krylov_dimension": dimension,
                                          "max_relative_residual": float(residuals.max())})
