"""Time evolution of the open-system models.

Solvers:

* ``evolve_master`` propagates d rho/dt = G rho = -i[H, rho] + sum_i L_i rho L_i^dag
  - 1/2 {L_i^dag L_i, rho} on the dense blocks of the state by Chebyshev
  expansions of exp(tau G), which relies on G being linear and time-independent: one
  expansion serves every output of its span tau at about sqrt(tau L ln(1/tol)) applies
  of G, L its spectral scale, where stability holds an explicit step to about 1/L.
* ``steady_state`` finds rho_ss by GMRES on the trace-stabilized generator,
  right-preconditioned by its superoperator diagonal, matrix-free on the
  vacuum's blocks (which pin one state where a symmetry leaves several), or by
  propagating the d x d state from the vacuum as an independent reference;
  either way the residual is verified against the full generator.
* ``homodyne_spectrum`` applies the quantum regression theorem in the frequency domain:
  the resolvent (G - i w) X = -A0' at every frequency, G being the generator, from one real
  Arnoldi basis per part of A0', the seed L rho_ss + rho_ss L^dag of channel L without its
  stationary part: symmetric from Re L, antisymmetric from Im L, and S in real arithmetic.
  Both Krylov solvers grow their bases by one kernel, ``_arnoldi``, into pages of
  ``KRYLOV_PAGE_ROWS`` vectors allocated as the basis fills (``_Basis``), so a solve holds
  the pages its vectors need, not the cap.
* ``sse_ensemble`` integrates the unnormalized stochastic Schroedinger
  equation by Euler-Maruyama with per-step normalization, all trajectories as
  one block and every channel through one stacked sparse product per step, into
  one record of blocks, each observable [time, trajectory]; ``sse_trajectory`` is
  its ensemble of one.  Noise streams are keyed per (seed, trajectory, channel), so
  neither the channel nor the trajectory count reshuffles existing streams; each output
  interval takes its noise, at most ``SSE_CHUNK_STEPS`` steps at a time, from one buffer of
  at most that many steps, so memory does not grow with run length.

``_MasterRHS`` holds a state as the diagonal blocks of rho that evolution from the initial
state leaves nonzero, found by one rule from the nonzeros of the operators and of that state
(``_blocks``), or as one block of every index, the d x d layout, on which the spectrum's Krylov
basis runs.  The one positivity certificate, ``DensityOperator.min_eigenvalue``, works on the
total-parity blocks of a state without even-odd coherence.

Every solver uses one generator action, ``_MasterRHS.apply(h, sign)``, on a
state with rho^dag = sign rho: the generator keeps Hermiticity (Breuer & Petruccione
2002, ch. 3), so master-equation and steady states are Hermitian and the spectrum's
Hermitian seed splits into a symmetric and an antisymmetric real part.  Half of each
such state repeats the other half, so every solver holds its states in one layout, the
half: each block's upper triangle, diagonal included, n(n + 1)/2 of its n^2 entries.
``_MasterRHS.pack`` and ``unpack`` convert a d x d state, ``apply`` takes and returns
halves, and ``norm`` gives a half's Frobenius norm; only ``apply`` rebuilds whole blocks.
The generator is real: every model operator makes -iH and each Lindblad operator real,
and ``_MasterRHS`` refuses one that is not.  A state keeps the dtype of its input, so
the vacuum evolves, relaxes and unravels in float64.

The solvers use numpy and ``scipy.sparse`` alone: none loads SciPy's ODE integrators
(about 0.3 s and 16 MB), and no CLI op loads ``scipy.sparse.linalg``, ``scipy.linalg`` or
``scipy.special`` (0.1 s, 6.5 MB; 0.05 s, 5.4 MB).  The propagator sums, and the Krylov
solvers orthogonalize, combine and solve their least-squares problems, without BLAS or
LAPACK, so no solver's state depends on the thread count.
"""

from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import count
from typing import ClassVar

import numpy as np
from scipy import sparse

from .hilbert import DensityOperator, LinearOperator, StateVector, trace_product, vacuum_state
from .model import OpenSystemModel


# Krylov solves stop at a residual estimate near round-off, so the exit checks have ample
# margin, and no basis grows past the cap.  Every basis vector is a half-layout state
# (``_MasterRHS.pack``), and a basis is allocated KRYLOV_PAGE_ROWS vectors at a time
# (``_Basis``): 0.68 MB on the d=72 blocks, under numpy's 4 MiB huge-page threshold, so a
# steady state there that builds fewer than 64 vectors holds one page and faults in only the
# rows it writes; 10.7 MB on the d=288 blocks, where GMRES at r=4 fills 201 vectors, 34 MB,
# and 21.3 MB on the d=288 d x d block, where a spectrum part fills m + 1, 43.6 MB at m=130.
KRYLOV_RTOL = 1e-12
KRYLOV_MAX_DIM = 400
KRYLOV_PAGE_ROWS = 64

# Output times of an SSE trajectory may sit this many steps off the dt lattice.
GRID_ALIGN_TOL = 1e-6

# Long-time steady state: chunk length and total time budget.
LONG_TIME_CHUNK = 10.0
LONG_TIME_MAX = 10000.0

# Chebyshev propagator: an output's sum closes once its terms stay below TOL ||rho||, an
# expansion stops at a term above GROWTH ||rho||, and its sums serve at most OUTPUTS output
# times, the one memory bound: OUTPUTS x the half-layout state, 10.7 MB at d=288.
CHEBYSHEV_TOL, CHEBYSHEV_GROWTH, CHEBYSHEV_OUTPUTS = 1e-12, 1e3, 64

# Most negative eigenvalue tolerated in a returned density matrix.
POSITIVITY_TOL = 1e-8

# Homodyne spectrum: largest accepted ||(G - i w) X + A0'||_F / ||A0'||_F, G the generator.
SPECTRUM_RESIDUAL_TOL = 1e-8

# SSE: largest per-step norm drift before the step counts as unstable, and the most steps of
# noise held at once: output intervals run in pieces of at most this many from one buffer.
SSE_NORM_DRIFT_MAX = 0.5
SSE_CHUNK_STEPS = 1024


class ConvergenceError(RuntimeError):
    """An iterative solver failed to reach its tolerance."""


@dataclass
class SimulationRecord:
    times: np.ndarray
    observables: dict[str, np.ndarray]
    final_state: object
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
    metadata: dict = field(default_factory=dict)
    normalization: ClassVar[str] = "vacuum = 1"


def _blocks(C: sparse.csr_matrix, Ls: list, rho0: np.ndarray) -> tuple[list, list]:
    """The blocks of rho that evolution from ``rho0`` leaves nonzero, and each L's (target,
    source) pairs of them in target order.  Of the finest partition of the indices in which
    every nonzero of C and of ``rho0`` lies inside a block and each L takes each block into
    one block, found by label propagation with pointer jumping, these are the blocks the Ls
    reach from ``rho0``'s diagonal, ordered by least index.  Stored zeros join nothing."""
    d = C.shape[0]
    fixed, *jumps = [(op.row[op.data != 0], op.col[op.data != 0]) for op in
                     (C.tocoo(), *(L.tocoo() for L in Ls))]
    fixed = [np.concatenate(ends) for ends in zip(fixed, np.nonzero(rho0))]
    label, settled = np.arange(d), None  # each index's block, named by its least index
    while not np.array_equal(label, settled):
        pairs, settled = [fixed], label.copy()
        for i, j in jumps:  # the indices an L reaches from one block join one block
            first = np.full(d, d)
            np.minimum.at(first, label[j], label[i])
            pairs.append((i, first[label[j]]))
        u, v = (label[np.concatenate(ends)] for ends in zip(*pairs))
        np.minimum.at(label, np.concatenate([u, v]), np.concatenate([v, u]))
        while not np.array_equal(jumped := label[label], label):
            label = jumped
    arrows = [np.unique(label[i] * d + label[j]) for i, j in jumps]  # target * d + source
    target, source = np.divmod(np.concatenate([np.empty(0, int), *arrows]), d)
    kept, size = np.zeros(d, dtype=bool), 0
    kept[label[np.flatnonzero(np.diagonal(rho0))]] = True
    while size < np.count_nonzero(kept):
        size = np.count_nonzero(kept)
        kept[target[kept[source]]] = True
    place = np.cumsum(kept) - 1  # a kept block's place in the list
    links = [place[np.stack(np.divmod(a[kept[a % d]], d), axis=1)].tolist() for a in arrows]
    return [np.flatnonzero(label == r) for r in np.flatnonzero(kept)], links


class _MasterRHS:
    """The Lindblad generator every solver shares, as real sparse operator action.

    ``C = -iH - 1/2 sum L^T L`` and the jump operators ``Ls`` drive both the
    master equation and the SSE drift.  Every model operator makes -iH and
    each L real, so C and L are stored as real CSR and L^dag = L^T; a real
    state stays real and a complex one goes through the same products.  A
    nonzero imaginary entry of -iH or of an L would be lost, so it raises
    :class:`ValueError` naming the operator.  ``evaluations`` counts the calls of ``apply``.

    A state is held as diagonal blocks of rho: ``blocks`` lists disjoint index sets, and
    every entry of rho outside their diagonal blocks is zero.  Given the initial state
    ``rho0``, they are those evolution from it leaves nonzero (:func:`_blocks`; Albert & Jiang,
    PRA 89, 022118 (2014)), else one block of every index, the d x d state itself.  C acts
    through one sub-CSR per block, and each L through one per (target <- source) pair.

    Every state rho^dag = sign rho, sign 1 or -1, is held as its half: each block's upper
    triangle, diagonal included, row by row, one block after another (``pack``).
    ``unpack(h, sign)`` rebuilds rho, each entry below a block's diagonal sign times the
    conjugate of its mirror, so exactly sign-Hermitian, and ``norm(h)`` is ||rho||_F.
    ``apply(h, sign)`` returns the half of M + sign M^dag, M = C rho + sign sum L~ (L~ rho)^dag,
    L~ = L/sqrt(2): the generator's action with one sparse product per L and C on the whole
    blocks it rebuilds.  The index arrays are built on first use, so the SSE, which uses C
    and the Ls alone, does not pay for them.
    """

    def __init__(self, model: OpenSystemModel, rho0: np.ndarray | None = None):
        named = [("-iH", -1j * model.H.matrix)] + [
            (f"Lindblad {k} ({l.kind}, index {l.index})", l.op.matrix)
            for k, l in enumerate(model.lindblads)
        ]
        for name, op in named:
            if op.imag.count_nonzero():
                raise ValueError(f"{name} has a nonzero imaginary entry; the generator is real")
        drift, *self.Ls = [op.real.tocsr() for _, op in named]  # -iH, then every L
        # every L stacked, so sum L^T L = jumps^T jumps; the empty first rows serve no L
        jumps = sparse.vstack([drift[:0], *self.Ls], format="csr")
        C = (drift - 0.5 * (jumps.T @ jumps)).tocoo()
        # an entry within round-off of its terms' magnitude is a cancellation, such as the
        # coherent drive's Hamiltonian half against its Lindblad half: exactly 0
        size = (abs(drift) + 0.5 * (abs(jumps).T @ abs(jumps))).tocsr()
        terms = np.asarray(size[C.row, C.col]).ravel()
        C.data[np.abs(C.data) <= np.finfo(float).eps * terms] = 0.0
        self.C = C.tocsr()  # drho = C rho + rho C^T + sum L rho L^T
        self.C.eliminate_zeros()
        self.dim = d = model.space.dim
        self.evaluations = 0  # calls of ``apply``
        self.blocks, links = (([np.arange(d)], [[(0, 0)]] * len(self.Ls)) if rho0 is None
                              else _blocks(self.C, self.Ls, rho0))
        self.sizes = [b.size for b in self.blocks]
        self._C = [self.C[b][:, b] for b in self.blocks]
        self._half_Ls = [(a, b, np.sqrt(0.5) * L[self.blocks[a]][:, self.blocks[b]])
                         for L, pairs in zip(self.Ls, links) for a, b in pairs]

    def diagonal(self) -> np.ndarray:
        """The generator's superoperator diagonal D_ij = C_ii + C_jj + sum_L L_ii L_jj, a half."""
        c = self.C.diagonal()
        D = np.add.outer(c, c)
        for L in self.Ls:
            D += np.multiply.outer(L.diagonal(), L.diagonal())
        return self.pack(D)

    @cached_property
    def _triangle(self) -> tuple[list, np.ndarray, np.ndarray, np.ndarray]:
        """The half layout's index arrays, built on first use: for each block of n indices,
        its slice of the half and where the slice's entries and their mirrors sit in the
        flattened n x n block; where each half entry and its mirror sit in the flattened
        d x d rho; and the half entries on a block's diagonal."""
        blocks, upper, mirror, start = [], [], [], 0
        for b in self.blocks:
            i, j = np.triu_indices(b.size)
            blocks.append((slice(start, start + i.size), b.size * i + j, b.size * j + i))
            upper.append(self.dim * b[i] + b[j])
            mirror.append(self.dim * b[j] + b[i])
            start += i.size
        upper, mirror = np.concatenate(upper), np.concatenate(mirror)
        return blocks, upper, mirror, np.flatnonzero(upper == mirror)

    @staticmethod
    def _mirrored(h: np.ndarray, sign: int, upper, mirror, out: np.ndarray) -> np.ndarray:
        """``out`` with ``h`` at ``upper`` and sign conj(h) at ``mirror``, diagonal last."""
        out[mirror] = h.conj() if sign > 0 else -h.conj()
        out[upper] = h
        return out

    def pack(self, rho: np.ndarray) -> np.ndarray:
        """The half of the d x d ``rho``; entries below a block's diagonal or off the blocks are
        dropped."""
        return rho.ravel()[self._triangle[1]]

    def unpack(self, h: np.ndarray, sign: int = 1) -> np.ndarray:
        """The d x d state with rho^dag = sign rho whose half is ``h``, zero off the blocks."""
        rho = np.zeros(self.dim * self.dim, dtype=h.dtype)
        return self._mirrored(h, sign, *self._triangle[1:3], rho).reshape(self.dim, self.dim)

    def norm(self, h: np.ndarray) -> float:
        """||rho||_F of the state whose half is ``h``: an entry off a block's diagonal stands for
        two of its magnitude.  numpy's own sums, not BLAS: no thread count moves it.  A sum that
        is not finite is taken again over h / max|h|, as :func:`_norm` does."""
        with np.errstate(over="ignore", invalid="ignore"):
            squares = np.square(np.abs(h))
            total = 2.0 * np.sum(squares) - np.sum(squares[self._triangle[3]])
        if not np.isfinite(total) and np.isfinite(peak := np.abs(h).max()):
            return float(peak * self.norm(h / peak))
        return float(np.sqrt(total))

    def apply(self, h: np.ndarray, sign: int = 1) -> np.ndarray:
        self.evaluations += 1
        add = np.add if sign > 0 else np.subtract
        blocks = self._triangle[0]
        xs = [self._mirrored(h[s], sign, upper, mirror, np.empty(n * n, h.dtype)).reshape(n, n)
              for (s, upper, mirror), n in zip(blocks, self.sizes)]
        ms = [C @ x for C, x in zip(self._C, xs)]
        for a, b, L in self._half_Ls:
            add(ms[a], L @ (L @ xs[b]).conj().T, out=ms[a])
        out = np.empty_like(h)
        for (s, upper, mirror), m in zip(blocks, ms):
            add(m.ravel()[upper], m.ravel()[mirror].conj(), out=out[s])
        return out


def _norm(v: np.ndarray) -> float:
    """||v||_2 by numpy's own sums, not BLAS: no thread count moves it.  A sum of squares that
    overflows is taken again over v / max|v|, so a representable norm is returned."""
    with np.errstate(over="ignore"):
        total = np.sum(np.square(np.abs(v)))
    if np.isinf(total) and np.isfinite(peak := np.abs(v).max()):
        return float(peak * _norm(v / peak))
    return float(np.sqrt(total))


def _bessel_weights(z: np.ndarray, n: int) -> np.ndarray:
    """a_k(z_i) = (2 - delta_k0) e^-z_i I_k(z_i) for k = 0..m as rows, m the first of n, 2n,
    4n, ... with every a_m(z_i) <= ``CHEBYSHEV_TOL``, z_i > 0: Miller's backward recurrence
    I_{k-1} = I_{k+1} + (2k/z) I_k in ratio form, normalized by sum_k a_k = 1 (Gautschi, SIAM
    Rev. 9, 24 (1967)).  It loses relative accuracy near its start, so it starts at 2m + 20."""
    top, ratio = 2 * n + 20, np.zeros_like(z)
    a = np.ones((top + 1, z.size))
    for k in range(top, 0, -1):
        a[k] = ratio = z / (2.0 * k + z * ratio)  # I_k / I_{k-1}
    np.cumprod(a, axis=0, out=a)
    a[1:] *= 2.0
    a = a[:n + 1] / a.sum(axis=0)
    return _bessel_weights(z, 2 * n) if a[n].max() > CHEBYSHEV_TOL else a  # NaN stops too


def _chebyshev_sums(rhs: _MasterRHS, y: np.ndarray, z: np.ndarray, scale: float):
    """exp(2 z_i G / scale) y = sum_k a_k(z_i) T_k(G') y, G' = 2G/scale + 1, a_k from
    :func:`_bessel_weights`, for each z_i of the increasing ``z``, by the three-term recurrence,
    all elementwise.  Output i closes once its terms have been at most ``CHEBYSHEV_TOL`` ||y||
    for three consecutive k and every earlier output has closed; closed outputs take no more
    terms.  ``y``, every term T_k(G') y and the returned sums are the halves of Hermitian
    states, ||.|| their Frobenius norm (:class:`_MasterRHS`).  Returns the sums of the closed
    outputs: all of them, or those closed when a term of an open one exceeds
    ``CHEBYSHEV_GROWTH`` ||y|| or is not finite."""
    y_norm, quiet, closed = rhs.norm(y), np.zeros(z.size, dtype=int), 0
    a = _bessel_weights(z, 1)
    sums = np.multiply.outer(a[0], y)
    older, v = y, rhs.apply(y) * (2.0 / scale) + y  # T_0 and T_1
    for k in count(1):
        if k == len(a):  # the stop rule weighs a_k by ||T_k y||, which can grow
            a = _bessel_weights(z, 2 * k)
        terms = a[k, closed:] * rhs.norm(v)
        if not terms.max() <= CHEBYSHEV_GROWTH * y_norm:
            return sums[:closed]
        for s, c in zip(sums[closed:], a[k, closed:]):  # no temporary of outputs x state
            s += c * v
        quiet[closed:] = np.where(terms <= CHEBYSHEV_TOL * y_norm, quiet[closed:] + 1, 0)
        closed += int(np.logical_and.accumulate(quiet[closed:] >= 3).sum())
        if closed == z.size:
            return sums
        w = rhs.apply(v) * (4.0 / scale)  # T_{k+1} = 2 G' T_k - T_{k-1}
        w += 2.0 * v
        w -= older
        older, v = v, w


def _chebyshev(rhs: _MasterRHS, y0: np.ndarray, t: np.ndarray):
    """Yield exp((t_i - t_0) G) y0, G = ``rhs``, at each t_i of ``t`` (the first is y0), y0
    the half of a Hermitian state.

    One expansion per span of up to ``CHEBYSHEV_OUTPUTS`` outputs, from the state at its start
    to each output in it (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967 (1984)), fitted to
    [-L, 0], L = -min ``rhs.diagonal()`` or 1 for a zero diagonal; here L bounds G's spectral
    radius closely.  A diverging expansion keeps the outputs it has closed and the next one
    starts from the last of them; if it closed none, its span and every later one are halved,
    to end at an output or between two, and a span below 1/L raises ConvergenceError.  One
    expansion's sums are held at a time, and each state is yielded as a new array."""
    scale = -float(rhs.diagonal().min()) or 1.0
    yield y0
    y, start, done, span = y0, t[0], 1, np.inf
    while done < t.size:
        end = min(t[min(done + CHEBYSHEV_OUTPUTS, t.size) - 1], start + span)
        upto = int(np.searchsorted(t, end, side="right"))
        ends = t[done:upto] if t[upto - 1] == end else np.append(t[done:upto], end)
        sums = _chebyshev_sums(rhs, y, (ends - start) * (scale / 2.0), scale)
        yield from map(np.copy, sums[:upto - done])
        if closed := len(sums):
            y, start, done = sums[-1].copy(), ends[closed - 1], min(done + closed, upto)
        del sums  # before the next expansion allocates its own
        if not closed and (span := (end - start) / 2.0) * scale < 1.0:
            raise ConvergenceError(
                f"Chebyshev propagator diverged at t={start:.6g}: a term exceeded "
                f"{CHEBYSHEV_GROWTH:.0e} ||rho|| or was not finite on every span down "
                f"to {2.0 * span:.3g}, and the floor is 1/L = {1.0 / scale:.3g}")


def evolve_master(
    model: OpenSystemModel,
    rho0: DensityOperator,
    t_grid,
    observables: dict[str, LinearOperator] | None = None,
    trace_tol: float = 1e-8,
    keep_states: bool = False,
) -> SimulationRecord:
    """rho(t) = exp((t - t_0) G) rho0 on ``t_grid`` by :func:`_chebyshev`, G the generator,
    linear and time-independent, recording observables.  ``rho0`` must be Hermitian to
    1e-12 max|rho0|, else :class:`ValueError`: the propagator stores upper triangles.

    The state evolves as the blocks of rho that :class:`_MasterRHS` finds for ``rho0``
    (:func:`_blocks`).  A propagator that diverges, trace drift
    beyond ``trace_tol`` or an output's ``min_eigenvalue()`` below ``-POSITIVITY_TOL`` raises
    :class:`ConvergenceError`.  Output states are exactly Hermitian.  ``extras`` holds the
    generator applies (``rhs_evaluations``), the block sizes (``block_sizes``), the worst
    trace drift (``max_trace_drift``) and the least eigenvalue (``min_eigenvalue``) over the
    outputs, and with ``keep_states`` the states.
    """
    if rho0.space != model.space:
        raise ValueError("initial state lives on a different space")
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size < 2 or np.any(np.diff(t) <= 0):
        raise ValueError("t_grid must be strictly increasing with at least two points")
    rho = rho0.matrix
    if np.max(np.abs(rho - rho.conj().T)) > 1e-12 * np.max(np.abs(rho)):
        raise ValueError("initial state is not Hermitian; its lower triangle would be dropped")
    observables = observables or {}
    for name, op in observables.items():
        if op.space != model.space:
            raise ValueError(f"observable {name!r} lives on a different space")
    rhs = _MasterRHS(model, rho)
    series = {name: np.empty(t.size, dtype=complex) for name in observables}
    states = []
    worst_drift, least_eigenvalue = 0.0, np.inf
    for idx, y in enumerate(_chebyshev(rhs, rhs.pack(rho), t)):
        state = DensityOperator(model.space, rhs.unpack(y))
        if (lam_min := state.min_eigenvalue()) < -POSITIVITY_TOL:
            raise ConvergenceError(f"negative eigenvalue {lam_min:.3e} at t={t[idx]:.4g}")
        if (drift := abs(state.trace().real - 1.0)) > trace_tol:
            raise ConvergenceError(f"trace drift {drift:.3e} at t={t[idx]:.4g} exceeds "
                                   f"{trace_tol:.1g}")
        worst_drift, least_eigenvalue = max(worst_drift, drift), min(least_eigenvalue, lam_min)
        for name, op in observables.items():
            series[name][idx] = trace_product(op.matrix, state.matrix)
        if keep_states:
            states.append(state)
    extras = {"rhs_evaluations": rhs.evaluations, "block_sizes": rhs.sizes,
              "max_trace_drift": worst_drift, "min_eigenvalue": least_eigenvalue}
    if keep_states:
        extras["states"] = states
    return SimulationRecord(t, series, state, extras=extras)


class _Basis:
    """A Krylov basis, its vectors the rows of pages of ``KRYLOV_PAGE_ROWS`` rows: each page
    is one ``np.empty``, made once the last one is full, so the basis holds the pages its
    vectors fill and never copies a row.  ``project`` and ``combine`` read it page by page;
    einsum, not BLAS: no thread count moves either."""

    def __init__(self):
        self.pages, self.rows = [], 0

    def append(self, v: np.ndarray):
        if self.rows % KRYLOV_PAGE_ROWS == 0:
            self.pages.append(np.empty((KRYLOV_PAGE_ROWS, v.size), v.dtype))
        self.pages[-1][self.rows % KRYLOV_PAGE_ROWS] = v
        self.rows += 1

    def _head(self, n: int) -> list:
        """(index of its first row, its rows) for each page the first ``n`` rows touch."""
        return [(start, page[:n - start])
                for start, page in zip(range(0, n, KRYLOV_PAGE_ROWS), self.pages)]

    def project(self, w: np.ndarray) -> np.ndarray:
        """v_i^H w for every row v_i."""
        return np.concatenate([np.einsum("ij,j->i", rows, w.conj()).conj()
                               for _, rows in self._head(self.rows)])

    def combine(self, c: np.ndarray) -> np.ndarray:
        """sum_i c_i v_i over the first len(c) rows, one page's sum after another."""
        sums = (np.einsum("i,ij->j", c[start:start + len(rows)], rows)
                for start, rows in self._head(c.size))
        return sum(sums, next(sums))


def _arnoldi(matvec, v0: np.ndarray, m: int):
    """Yield (V, h) after each of at most ``m`` Arnoldi steps j from the unit ``v0``: the
    :class:`_Basis` V holds the j + 2 orthonormal basis vectors v_i, h is column j of the
    Hessenberg matrix, matvec(v_j) = sum_i h_i v_i.  Two classical Gram-Schmidt passes,
    "twice is enough" (Giraud, Langou & Rozloznik, Comput. Math. Appl. 50, 1069 (2005)):
    with one, orthogonality is lost as the two-photon loss grows, and at eta=30 the spectrum
    basis stalled short of its residual.  A zero new vector ends V."""
    V, v = _Basis(), v0
    V.append(v)
    for j in range(m):
        w = matvec(v)
        h = np.zeros(j + 1, dtype=w.dtype)
        for _ in range(2):
            dh = V.project(w)
            w -= V.combine(dh)
            h += dh
        norm = _norm(w)
        v = w / norm if norm else w
        V.append(v)
        yield V, np.append(h, norm)
        if not norm:
            return


class _HessenbergLstsq:
    """min ||beta e1 - (H - s I) y|| by Givens rotations (Saad, Iterative Methods for Sparse
    Linear Systems, 2nd ed., 6.5.3), for a shift s or an array of them, as H grows."""

    def __init__(self, beta: float, s):
        self.s, self.g, self.rotations, self.R = s, [beta + 0 * s], [], []

    def add(self, h: np.ndarray):
        """Rotate in column j of H; return the least residual over its j + 1 columns."""
        col, j = h.tolist(), len(self.R)
        col[j] = col[j] - self.s
        for i, (c, z) in enumerate(self.rotations):
            col[i], col[i + 1] = (c.conjugate() * col[i] + z.conjugate() * col[i + 1],
                                  c * col[i + 1] - z * col[i])
        r = (abs(col[j]) ** 2 + abs(col[j + 1]) ** 2) ** 0.5
        if not np.all(r):
            raise ConvergenceError(f"GMRES broke down: Hessenberg column {j} rotates to zero")
        c, z = col[j] / r, col[j + 1] / r
        self.rotations.append((c, z))
        self.R.append(col[:j] + [r])  # column j of the triangular factor
        self.g[j:] = [c.conjugate() * self.g[j], -z * self.g[j]]
        return abs(self.g[j + 1])

    def solve(self) -> np.ndarray:
        """y, shaped (shifts..., columns), by back substitution: no LAPACK, so no thread
        count moves it."""
        n = len(self.R)
        R = np.array([col + [0 * self.s] * (n - len(col)) for col in self.R])  # [column, row]
        y = np.array(self.g[:-1])
        for i in range(n - 1, -1, -1):
            y[i] = (y[i] - (R[i + 1:, i] * y[i + 1:]).sum(axis=0)) / R[i, i]
        return np.moveaxis(y, 0, -1)


def _krylov_solve(rhs: _MasterRHS):
    """Solve G x + tr(x) b = b, G = ``rhs``, b = I_s/d_s, by GMRES from x = b,
    right-preconditioned by the operator's diagonal (1 where 0), which holds the vector
    count nearly flat in eta (Saad, Iterative Methods for Sparse Linear Systems, 9.3).
    One basis grows unrestarted, since a restart discards the generator's slow modes and
    stalls on lossless models (Saad, 6.5; Morgan, SIAM J. Sci. Comput. 24, 20 (2002)); a
    true residual above the stop starts another basis from x, within the same cap.

    I_s and d_s are the identity on the blocks' diagonal and its size, so b and every
    vector are real symmetric, and each is held as its half (:class:`_MasterRHS`), whose
    Euclidean norm GMRES minimizes.  Returns x (d x d, zero off the blocks), at a true
    residual of ``KRYLOV_RTOL`` ||b|| in that norm or after ``KRYLOV_MAX_DIM`` vectors, and the
    vectors built.
    """
    b = rhs.pack(np.eye(rhs.dim))  # I_s in the half layout
    diag = np.flatnonzero(b)
    b /= diag.size
    jacobi = rhs.diagonal()
    jacobi[diag] += 1.0 / diag.size
    jacobi[jacobi == 0] = 1.0

    def matvec(x: np.ndarray) -> np.ndarray:
        out = rhs.apply(x)
        out[diag] += x[diag].sum() / diag.size
        return out

    x, target, built = b.copy(), KRYLOV_RTOL * _norm(b), 0
    while (beta := _norm(r := b - matvec(x))) > target and built < KRYLOV_MAX_DIM:
        lstsq = _HessenbergLstsq(beta, 0.0)  # refinement from the true residual
        for V, h in _arnoldi(lambda u: matvec(u / jacobi), r / beta, KRYLOV_MAX_DIM - built):
            built += 1
            if lstsq.add(h) <= target:
                break
        x += V.combine(lstsq.solve()) / jacobi
    return rhs.unpack(x), built


def steady_state(
    model: OpenSystemModel,
    method: str = "null-space",
    tol: float = 1e-8,
) -> DensityOperator:
    """Steady state of the model by a sectored Krylov solve or long-time propagation.

    ``"null-space"`` solves L x + tr(x) I_s/d_s = I_s/d_s by unrestarted GMRES
    (:func:`_krylov_solve`) on the blocks of rho that evolution from the vacuum reaches
    (:func:`_blocks`), I_s and d_s being the identity on their diagonal and its size.  The
    trace term makes the operator invertible when the sector holds one steady state, which
    fixing the sector ensures even where a conserved quantity makes the full kernel degenerate.
    ``"long-time"`` propagates the d x d state from the vacuum instead, by
    :func:`_chebyshev` over spans of ``LONG_TIME_CHUNK``, each state
    renormalized: an independent reference, which no CLI op runs, kept off
    the blocks it checks.

    The returned state always satisfies ||d rho/dt||_F < tol (verified against
    the full generator for both methods) and a ``min_eigenvalue()`` of at least
    ``-POSITIVITY_TOL``; otherwise :class:`ConvergenceError`.
    """
    if not model.lindblads:
        raise ConvergenceError("model has no Lindblad operators; no relaxation to a steady state")
    rhs = _MasterRHS(model)

    if method == "null-space":
        vacuum = vacuum_state(model.space).to_density().matrix
        rho, built = _krylov_solve(_MasterRHS(model, vacuum))
        rho = rho / np.trace(rho).real
        residual = rhs.norm(rhs.apply(rhs.pack(rho)))
        if not residual <= tol:
            raise ConvergenceError(f"Krylov steady state failed after {built} iterations: "
                                   f"residual {residual:.3e}, tol {tol:.1g}")
    elif method == "long-time":
        rho = vacuum_state(model.space).to_density().matrix
        elapsed = 0.0
        while elapsed < LONG_TIME_MAX:
            *_, y = _chebyshev(rhs, rhs.pack(rho), np.array([0.0, LONG_TIME_CHUNK]))
            rho = rhs.unpack(y)
            rho = rho / np.trace(rho).real
            elapsed += LONG_TIME_CHUNK
            residual = rhs.norm(rhs.apply(rhs.pack(rho)))
            if residual < tol:
                break
        else:
            raise ConvergenceError(
                f"steady state not reached within t={LONG_TIME_MAX} (residual {residual:.3e})"
            )
    else:
        raise ValueError(f"unknown steady-state method {method!r}")
    state = DensityOperator(model.space, rho)
    if (lam_min := state.min_eigenvalue()) < -POSITIVITY_TOL:
        raise ConvergenceError(f"negative eigenvalue {lam_min:.3e} in the {method} steady state")
    return state


def homodyne_spectrum(
    model: OpenSystemModel,
    channel: LinearOperator,
    omega_grid,
    rho_ss: DensityOperator,
) -> SpectrumResult:
    """Steady-state homodyne (squeezing) spectrum of one output channel.

    S(w) = 1 + 2 Re tr[(L + L^dag) X] for channel L, (G - i w) X = -A0', G the generator,
    A0' = A0 - tr(A0) rho_ss, A0 = L rho_ss + rho_ss L^dag; 1 is the vacuum level.  G and
    rho_ss are real, so with L = L_1 + i L_-1, L_s real, A0' = A_1 + i A_-1 splits into real
    parts A_s = L_s rho + s (L_s rho)^T - tr(.) rho of symmetry s.  One real Krylov basis per
    part serves every w (Frommer & Glaessner, SIAM J. Sci. Comput. 19, 15 (1998)), and S
    takes 2 s tr[(L_s + s L_s^T) Re X_s] from its solution X_s: each other term pairs a
    symmetric with an antisymmetric matrix, so the spectrum is real arithmetic.  Each basis
    vector is the half of a state on the d x d block (:class:`_MasterRHS`), whose Euclidean
    norm counts each mirrored pair once, and the basis grows to an estimated residual of
    ``KRYLOV_RTOL`` ||A0'|| in that norm.
    A part at most ``KRYLOV_RTOL`` ||L||_F ||rho_ss||_F, the scale A0' is rounded at, needs
    none.  No trace pin: A0' is traceless.
    A basis of ``KRYLOV_MAX_DIM`` vectors, or a residual against G (summed over the parts)
    above ``SPECTRUM_RESIDUAL_TOL`` ||A0'||, raises :class:`ConvergenceError`, and a
    ``rho_ss`` with a nonzero imaginary entry :class:`ValueError`.  ``metadata`` holds the
    basis vectors built (``krylov_dimension``) and ``max_relative_residual``.
    """
    if channel.space != model.space:
        raise ValueError("channel lives on a different space")
    if rho_ss.space != model.space:
        raise ValueError("steady state lives on a different space")
    w = np.asarray(omega_grid, dtype=float)
    rho = rho_ss.matrix
    if np.imag(rho).any():
        raise ValueError("steady state has a nonzero imaginary entry; the generator is real")
    rho = (rho.real + rho.real.T) / 2.0
    L = channel.matrix
    floor = KRYLOV_RTOL * _norm(L.data) * _norm(rho)

    seeds, quads = [], []  # A_s and L_s + s L_s^T
    for sign, part in ((1, L.real), (-1, L.imag)):
        A = part @ rho
        A = A + sign * A.T
        seeds.append(A - np.trace(A) * rho)  # the antisymmetric part's trace is exactly 0
        quads.append((part + sign * part.T).tocsr())
    scale = float(np.hypot(*map(_norm, seeds)))  # ||A0'||_F
    rhs = _MasterRHS(model)
    S, residuals, dimension = np.ones(w.size), np.zeros(w.size), 0
    seeds = [rhs.pack(A) for A in seeds]  # A0' in the half layout
    half_scale = float(np.hypot(*map(_norm, seeds)))  # ||A0'|| in the half layout
    for sign, seed, quad in zip((1, -1), seeds, quads):
        beta = _norm(seed)
        if beta <= floor:
            continue
        lstsq = _HessenbergLstsq(beta, 1j * w)
        action = partial(rhs.apply, sign=sign)
        for V, h in _arnoldi(action, seed / beta, KRYLOV_MAX_DIM):
            if (estimate := lstsq.add(h).max(initial=0.0) / half_scale) <= KRYLOV_RTOL:
                break
        else:
            raise ConvergenceError(f"Krylov spectrum basis reached {KRYLOV_MAX_DIM} iterations "
                                   f"(KRYLOV_MAX_DIM): residual estimate {estimate:.3e}")
        dimension += V.rows - 1
        for k, y in enumerate(lstsq.solve()):  # two real products, no complex copy of V
            Xr, Xi = (-V.combine(c) for c in (y.real, y.imag))
            GX = action(Xr) + 1j * action(Xi)  # G on each real piece
            residuals[k] += rhs.norm(GX - 1j * w[k] * (Xr + 1j * Xi) + seed) / scale
            S[k] += 2.0 * sign * trace_product(quad, rhs.unpack(Xr, sign)).real
    worst = float(residuals.max(initial=0.0))
    if not worst <= SPECTRUM_RESIDUAL_TOL:
        raise ConvergenceError(f"Krylov spectrum at w={w[np.argmax(residuals)]:.4g}: relative "
                               f"residual {worst:.3e}, tol {SPECTRUM_RESIDUAL_TOL:.1e}")
    metadata = {"krylov_dimension": dimension, "max_relative_residual": worst}
    return SpectrumResult(w, S, metadata=metadata)


def rotated_channel(op: LinearOperator, phase_deg: float) -> LinearOperator:
    """Channel with homodyne phase rotated: L -> exp(i phase) L."""
    return np.exp(1j * np.deg2rad(phase_deg)) * op


def _noise_streams(seed: int, n_trajectories: int, n_channels: int, dt: float, out_steps):
    """``draw(n)``: the next n increments dW[channel, step, trajectory] of a run to the last of
    ``out_steps``, n at most the longest piece, min(longest interval, ``SSE_CHUNK_STEPS``), as
    a view of one buffer of as many such pieces as fit in ``SSE_CHUNK_STEPS``.  Streams are
    keyed (seed, trajectory, channel); a refill keeps the steps not yet handed out and fills
    the rest by one ``Generator.normal`` call per stream, so the draws join into the one draw
    of all their steps, bit for bit."""
    root_dt, total = np.sqrt(dt), int(out_steps[-1])
    longest = min(SSE_CHUNK_STEPS, int(np.diff(out_steps).max()))
    rngs = [[np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(k, ch)))
             for k in range(n_trajectories)] for ch in range(n_channels)]
    buffer = np.empty((n_channels, min(total, SSE_CHUNK_STEPS // longest * longest),
                       n_trajectories))
    head = tail = 0  # buffer[:, head:tail] is drawn and not yet handed out

    def draw(n: int) -> np.ndarray:
        nonlocal head, tail, total
        if tail - head < n:
            kept = tail - head
            buffer[:, :kept] = buffer[:, head:tail]
            fill = min(buffer.shape[1] - kept, total)
            for ch, streams in enumerate(rngs):
                for k, rng in enumerate(streams):
                    buffer[ch, kept:kept + fill, k] = rng.normal(0.0, root_dt, fill)
            head, tail, total = 0, kept + fill, total - fill
        head += n
        return buffer[:, head - n:head]

    return draw


def _sse_steps(stacked: sparse.csr_matrix, psi: np.ndarray, dW: np.ndarray, dt: float,
               first_step: int) -> np.ndarray:
    """Advance the d x n_trajectories block ``psi`` by one Euler-Maruyama step per step of the
    increments dW[channel, step, trajectory], normalizing after each, and return the block.

    ``stacked`` is the CSR [dt C; L_1; ...; L_n], so one product gives the drift and every
    channel's L psi.  Each dW[:, s] becomes that step's homodyne increment
    <L + L^dag> dt + dW in place.  A norm drift above ``SSE_NORM_DRIFT_MAX`` raises
    :class:`ConvergenceError` naming the trajectory and the step, counted from ``first_step``.
    """
    n_channels, n_trajectories = dW.shape[0], psi.shape[1]
    for s in range(dW.shape[1]):
        Y = (stacked @ psi).reshape(n_channels + 1, -1, n_trajectories)  # dt C psi, L_c psi
        increment = dW[:, s]
        increment += 2.0 * dt * np.einsum("ij,cij->cj", psi.conj(), Y[1:]).real
        psi = psi + Y[0] + np.einsum("cj,cij->ij", increment, Y[1:])
        nrm = np.sqrt(np.einsum("ij,ij->j", psi.conj(), psi).real)
        unstable = ~(np.abs(nrm - 1.0) <= SSE_NORM_DRIFT_MAX)
        if unstable.any():
            k = int(np.argmax(unstable))
            raise ConvergenceError(f"norm drift {abs(nrm[k] - 1.0):.3g} in trajectory {k} at "
                                   f"step {first_step + s}; reduce dt")
        psi /= nrm
    return psi


def step_grid(t_grid, dt: float) -> np.ndarray:
    """``t_grid`` moved onto the dt step lattice that :func:`sse_ensemble` requires.

    A grid already on the lattice keeps its points; otherwise every point is rounded
    to the nearest step.  Either way, a point on the step of an earlier one is dropped.
    """
    t = np.asarray(t_grid, dtype=float)
    steps = np.rint(t / dt)
    if np.max(np.abs(t / dt - steps)) > GRID_ALIGN_TOL:
        t = steps * dt
    return t[np.unique(steps, return_index=True)[1]]


def sse_ensemble(
    model: OpenSystemModel,
    psi0: StateVector,
    t_grid,
    n_trajectories: int,
    seed: int,
    dt: float = 1e-3,
    observables: dict[str, LinearOperator] | None = None,
) -> SimulationRecord:
    """Homodyne-unraveling trajectories by Euler-Maruyama with per-step normalization.

    All trajectories evolve as one d x n_trajectories block on one generator
    build, and each step is one product of that block with the stacked CSR
    [dt C; L_1; ...; L_n], which gives the drift and every channel's L psi at
    once (:func:`_sse_steps`).  One record holds the ensemble: each observable at ``t_grid``
    (which :func:`step_grid` must leave unchanged) [time, trajectory], ``final_state`` the
    d x n_trajectories amplitudes, and ``extras["homodyne_currents"]`` [channel, interval,
    trajectory] the mean homodyne current (sum of dW + <L + L^dag> dt) / interval.
    Trajectory k's noise is keyed (seed, k, channel), whatever ``n_trajectories``;
    a run is bit-reproducible for fixed (seed, n_trajectories, dt, Lindblad order).
    A norm drift above ``SSE_NORM_DRIFT_MAX`` raises :class:`ConvergenceError`
    naming the trajectory and the step.

    The noise is summed into the currents, in step order, one output interval at a time,
    in pieces of at most ``SSE_CHUNK_STEPS`` steps from one buffer that short intervals share
    (:func:`_noise_streams`); a longer interval's current is the sum of its pieces' sums, so
    it rounds differently from one sum of all its steps.  Beyond the returned record, the
    working set is the block, the stacked products, (n_channels + 1) x d x n_trajectories,
    and the buffer, n_channels x ``SSE_CHUNK_STEPS`` x n_trajectories x 8 B at most.
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
    n_channels = len(gen.Ls)
    stacked = sparse.vstack([dt * gen.C, *gen.Ls], format="csr")
    psi = np.repeat(psi0.normalized().amplitudes[:, None], n_trajectories, axis=1)
    series = {name: np.empty((t.size, n_trajectories), dtype=complex) for name in observables}
    homodyne = np.zeros((n_channels, t.size - 1, n_trajectories))

    def record(out_idx: int):
        for name, op in observables.items():
            series[name][out_idx] = np.einsum("ij,ij->j", psi.conj(), op.matrix @ psi)

    record(0)
    draw = _noise_streams(seed, n_trajectories, n_channels, dt, out_steps)
    for idx, (lo, hi) in enumerate(zip(out_steps[:-1], out_steps[1:])):
        for start in range(lo, hi, SSE_CHUNK_STEPS):
            dW = draw(min(SSE_CHUNK_STEPS, hi - start))
            psi = _sse_steps(stacked, psi, dW, dt, start)
            # in step order: a plain sum adds a one-trajectory block's steps pairwise
            homodyne[:, idx] += np.add.reduceat(dW, [0], axis=1)[:, 0]
        record(idx + 1)
    homodyne /= np.diff(t)[:, None]
    return SimulationRecord(t, series, psi, extras={"homodyne_currents": homodyne})


def sse_trajectory(
    model: OpenSystemModel,
    psi0: StateVector,
    t_grid,
    seed: int,
    dt: float = 1e-3,
    observables: dict[str, LinearOperator] | None = None,
) -> SimulationRecord:
    """One homodyne trajectory: :func:`sse_ensemble` of one, noise keyed (seed, 0, ch), so each
    observable is [time, 1], ``final_state`` d x 1 and the currents [channel, interval, 1]."""
    return sse_ensemble(model, psi0, t_grid, 1, seed, dt, observables)


def ensemble_mean(series: np.ndarray):
    """Mean and standard error over trajectories of the real part of ``series``, one
    observable's [time, trajectory] block from :func:`sse_ensemble`.  Both reduce a
    [trajectory, time] copy row by row, whatever the layout of ``series``; one trajectory's
    standard error is NaN at every time.
    """
    stack = np.ascontiguousarray(series.real.T)
    mean = stack.mean(axis=0)
    if stack.shape[0] < 2:
        return mean, np.full(mean.shape, np.nan)
    stderr = stack.std(axis=0, ddof=1) / np.sqrt(stack.shape[0])
    return mean, stderr
