"""Truncated multimode Fock-space linear algebra.

Every operator lives on a :class:`FockSpace`, a tensor product of per-mode
truncated ladders.  Its one occupation table, each mode's photon number at each
flattened index, builds the ladder, number and pair operators, each in one
assembly of shifted diagonals, and the parity blocks.
Operators are stored sparse (CSR); density operators are dense, which is the
right trade-off at desk-scale dimensions where Lindblad evolution is dominated
by sparse-times-dense products.  Operators are complex; a state keeps the dtype
of its data, float64 when that is real (Fock states and the vacuum) and
complex128 otherwise.
"""

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse


# Weight a truncated coherent state may lose before a TruncationWarning.
TRUNCATION_TOL = 1e-6


class TruncationWarning(UserWarning):
    """A state constructor discarded more weight than ``TRUNCATION_TOL``."""


@dataclass(frozen=True)
class FockSpace:
    """Tensor product of truncated bosonic modes.

    ``cutoffs[i]`` is the number of Fock levels kept for mode ``i`` (levels
    ``0 .. cutoffs[i]-1``).  ``occupations[i, j]`` is mode ``i``'s photon number at
    flattened index ``j``, row-major: the last mode varies fastest.  ``even`` marks the
    indices of even total photon number: the blocks of ``DensityOperator.min_eigenvalue``.
    """

    cutoffs: tuple[int, ...]

    def __post_init__(self):
        cutoffs = tuple(int(c) for c in self.cutoffs)
        if len(cutoffs) == 0:
            raise ValueError("FockSpace needs at least one mode")
        if any(c < 2 for c in cutoffs):
            raise ValueError(f"all cutoffs must be >= 2, got {cutoffs}")
        object.__setattr__(self, "cutoffs", cutoffs)

    @property
    def mode_count(self) -> int:
        return len(self.cutoffs)

    @property
    def dim(self) -> int:
        return math.prod(self.cutoffs)

    @cached_property
    def occupations(self) -> np.ndarray:
        occupations = np.indices(self.cutoffs).reshape(self.mode_count, self.dim)
        occupations.flags.writeable = False
        return occupations

    @property
    def even(self) -> np.ndarray:
        return self.occupations.sum(axis=0) % 2 == 0

    def check_mode(self, mode: int) -> int:
        if not 0 <= mode < self.mode_count:
            raise IndexError(f"mode {mode} out of range for {self.mode_count} modes")
        return mode


def _norm(v: np.ndarray) -> float:
    """||v||_2 by numpy's own sums, not BLAS: no thread count moves it.  A sum of squares that
    overflows is taken again over v / max|v|, so a representable norm is returned."""
    with np.errstate(over="ignore"):
        total = np.sum(np.square(np.abs(v)))
    if np.isinf(total) and np.isfinite(peak := np.abs(v).max()):
        return float(peak * _norm(v / peak))
    return float(np.sqrt(total))


class LinearOperator:
    """A complex operator on a FockSpace, stored as a sparse CSR matrix."""

    __slots__ = ("space", "matrix")

    def __init__(self, space: FockSpace, matrix):
        matrix = sparse.csr_matrix(matrix, dtype=complex)
        if matrix.shape != (space.dim, space.dim):
            raise ValueError(
                f"matrix shape {matrix.shape} does not match space dim {space.dim}"
            )
        self.space = space
        self.matrix = matrix

    def norm(self) -> float:
        """Frobenius norm, by :func:`_norm` of the entries once duplicates are summed."""
        self.matrix.sum_duplicates()
        return _norm(self.matrix.data)

    def __mul__(self, scalar) -> "LinearOperator":
        return LinearOperator(self.space, self.matrix * complex(scalar))

    __rmul__ = __mul__


def _state_dtype(data):
    """complex128 for complex data, float64 for real."""
    return complex if np.iscomplexobj(data) else float


class StateVector:
    """Pure state: amplitude vector on a FockSpace, float64 or complex128 as given."""

    __slots__ = ("space", "amplitudes")

    def __init__(self, space: FockSpace, amplitudes):
        amplitudes = np.asarray(amplitudes, dtype=_state_dtype(amplitudes)).ravel()
        if amplitudes.size != space.dim:
            raise ValueError(
                f"amplitude vector length {amplitudes.size} does not match dim {space.dim}"
            )
        self.space = space
        self.amplitudes = amplitudes

    def norm(self) -> float:
        return _norm(self.amplitudes)

    def normalized(self) -> "StateVector":
        n = self.norm()
        if n == 0:
            raise ValueError("cannot normalize the zero vector")
        return StateVector(self.space, self.amplitudes / n)

    def to_density(self) -> "DensityOperator":
        """|psi><psi|, exactly Hermitian: the outer product's round-off is averaged away
        (a no-op on real amplitudes, whose outer product is already symmetric)."""
        rho = np.outer(self.amplitudes, self.amplitudes.conj())
        return DensityOperator(self.space, (rho + rho.conj().T) / 2.0)


class DensityOperator:
    """Mixed state: dense matrix on a FockSpace, float64 or complex128 as given.  Its
    ``min_eigenvalue`` is the one positivity certificate of every solver and CLI summary."""

    __slots__ = ("space", "matrix")

    def __init__(self, space: FockSpace, matrix):
        matrix = np.asarray(matrix, dtype=_state_dtype(matrix))
        if matrix.shape != (space.dim, space.dim):
            raise ValueError(
                f"matrix shape {matrix.shape} does not match space dim {space.dim}"
            )
        self.space = space
        self.matrix = matrix

    def trace(self) -> complex:
        return complex(np.trace(self.matrix))

    def min_eigenvalue(self) -> float:
        """The least eigenvalue of (rho + rho^dag)/2: the least over its parity blocks, whose
        spectra make up its own, if it has no even-odd coherence, else that of the whole."""
        rho, even = (self.matrix + self.matrix.conj().T) / 2, self.space.even
        if np.any(rho[np.ix_(even, ~even)]):  # the odd-even block is its mirror image
            return float(np.linalg.eigvalsh(rho).min())
        return min(float(np.linalg.eigvalsh(rho[np.ix_(b, b)]).min()) for b in (even, ~even))


def _shifted_diagonal(space: FockSpace, terms) -> LinearOperator:
    """The sum over (values, shift) terms of the operator with entry ``values[j]`` at
    (j - shift, j) for each index j where it is not zero: one COO assembly, whose entries at
    one place add up."""
    j = [np.flatnonzero(values) for values, _ in terms]
    data = np.concatenate([np.empty(0), *(values[k] for (values, _), k in zip(terms, j))])
    rows = np.concatenate([np.empty(0, int), *(k - shift for (_, shift), k in zip(terms, j))])
    cols = np.concatenate([np.empty(0, int), *j])
    return LinearOperator(space, sparse.csr_matrix((data, (rows, cols)), (space.dim,) * 2))


def annihilation(space: FockSpace, mode: int) -> LinearOperator:
    """a|.., n, ..> = sqrt(n)|.., n-1, ..>: one mode-``mode`` stride down the flattened index."""
    n = space.occupations[space.check_mode(mode)]
    return _shifted_diagonal(space, [(np.sqrt(n), math.prod(space.cutoffs[mode + 1:]))])


def number_operator(space: FockSpace, mode: int) -> LinearOperator:
    return _shifted_diagonal(space, [(space.occupations[space.check_mode(mode)], 0)])


def total_number_operator(space: FockSpace) -> LinearOperator:
    return _shifted_diagonal(space, [(space.occupations.sum(axis=0), 0)])


def pair_operator(space: FockSpace, weights) -> LinearOperator:
    """sum_ij weights_ij a_i a_j: each nonzero weight puts w_ij sqrt(n_i - delta_ij) sqrt(n_j)
    at (j - stride_i - stride_j, j), so the (i, j) and (j, i) terms add at one place."""
    n = space.occupations
    stride = [math.prod(space.cutoffs[m + 1:]) for m in range(space.mode_count)]
    return _shifted_diagonal(space, [
        (weights[i, j] * (np.sqrt(np.maximum(n[i] - (i == j), 0)) * np.sqrt(n[j])),
         stride[i] + stride[j]) for i, j in zip(*np.nonzero(weights))
    ])


def fock_state(space: FockSpace, occupations) -> StateVector:
    """Product Fock state |n_0, n_1, ...>."""
    occ = tuple(int(n) for n in occupations)
    if len(occ) != space.mode_count:
        raise ValueError(f"need {space.mode_count} occupation numbers, got {len(occ)}")
    for n, c in zip(occ, space.cutoffs):
        if not 0 <= n < c:
            raise ValueError(f"occupation {n} outside cutoff {c}")
    amplitudes = np.zeros(space.dim)
    amplitudes[np.ravel_multi_index(occ, space.cutoffs)] = 1.0
    return StateVector(space, amplitudes)


def vacuum_state(space: FockSpace) -> StateVector:
    return fock_state(space, (0,) * space.mode_count)


def coherent_state(space: FockSpace, alpha: complex) -> StateVector:
    """Truncated coherent state on a single-mode space, renormalized.

    Amplitudes c_n = exp(-|alpha|^2/2) alpha^n / sqrt(n!) are accumulated
    iteratively; if the weight lost to truncation exceeds ``TRUNCATION_TOL``
    a :class:`TruncationWarning` is emitted.
    """
    if space.mode_count != 1:
        raise ValueError("coherent_state requires a single-mode space")
    cutoff = space.cutoffs[0]
    amps = np.empty(cutoff, dtype=complex)
    amps[0] = math.exp(-abs(alpha) ** 2 / 2)
    for n in range(1, cutoff):
        amps[n] = amps[n - 1] * alpha / math.sqrt(n)
    kept = float(np.sum(np.abs(amps) ** 2))
    discarded = max(0.0, 1.0 - kept)
    if discarded > TRUNCATION_TOL:
        warnings.warn(
            f"coherent state |alpha|^2={abs(alpha)**2:.3g} loses weight {discarded:.3g} "
            f"at cutoff {cutoff} (tolerance {TRUNCATION_TOL:.1g})",
            TruncationWarning,
            stacklevel=2,
        )
    return StateVector(space, amps / math.sqrt(kept))


def trace_product(op: sparse.spmatrix, rho: np.ndarray) -> complex:
    """tr(op rho) = sum_ij op_ij rho_ji for a sparse op and a dense matrix rho: rho read at
    op's stored entries, duplicates included, summed in CSR order, with no sparse product."""
    op = op.tocsr()
    rows = np.repeat(np.arange(op.shape[0]), np.diff(op.indptr))
    return complex(np.sum(op.data * rho[op.indices, rows]))


def expectation(op: LinearOperator, rho: DensityOperator) -> complex:
    """tr(op rho)."""
    if rho.space != op.space:
        raise ValueError("operator and state live on different spaces")
    return trace_product(op.matrix, rho.matrix)


def partial_trace(rho: DensityOperator, keep) -> DensityOperator:
    """Reduced density operator on the kept modes (order preserved), a new array: one einsum
    over the (cutoffs + cutoffs) view, each traced mode's row and column axes one label."""
    keep = sorted({rho.space.check_mode(m) for m in keep})
    if not keep:
        raise ValueError("keep set must be nonempty")
    n, dims = rho.space.mode_count, rho.space.cutoffs
    columns = [n + m if m in keep else m for m in range(n)]
    reduced = np.einsum(rho.matrix.reshape(dims + dims), [*range(n), *columns],
                        [*keep, *(n + m for m in keep)])
    d = math.prod(dims[m] for m in keep)
    # with every mode kept nothing is summed, and einsum returns a view of rho
    return DensityOperator(FockSpace(tuple(dims[m] for m in keep)), reduced.reshape(d, d).copy())
