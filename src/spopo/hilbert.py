"""Truncated multimode Fock-space linear algebra.

Every operator lives on a :class:`FockSpace`, a tensor product of per-mode
truncated ladders.  Operators are stored sparse (CSR); density operators are
dense, which is the right trade-off at desk-scale dimensions where Lindblad
evolution is dominated by sparse-times-dense products.  Operators are
complex; a state keeps the dtype of its data, float64 when that is real
(Fock states and the vacuum) and complex128 otherwise.
"""

import math
import warnings
from dataclasses import dataclass

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
    ``0 .. cutoffs[i]-1``).  Mode ordering is fixed at construction and row-major:
    the last mode varies fastest in the flattened index.
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

    def check_mode(self, mode: int) -> int:
        if not 0 <= mode < self.mode_count:
            raise IndexError(f"mode {mode} out of range for {self.mode_count} modes")
        return mode


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

    def dag(self) -> "LinearOperator":
        return LinearOperator(self.space, self.matrix.conj().T)

    def to_dense(self) -> np.ndarray:
        return self.matrix.toarray()

    def norm(self) -> float:
        """Frobenius norm."""
        return float(sparse.linalg.norm(self.matrix))

    def _require_same_space(self, other: "LinearOperator"):
        if self.space != other.space:
            raise ValueError("operators live on different spaces")

    def __matmul__(self, other):
        if isinstance(other, LinearOperator):
            self._require_same_space(other)
            return LinearOperator(self.space, self.matrix @ other.matrix)
        return self.matrix @ other

    def __add__(self, other: "LinearOperator") -> "LinearOperator":
        self._require_same_space(other)
        return LinearOperator(self.space, self.matrix + other.matrix)

    def __sub__(self, other: "LinearOperator") -> "LinearOperator":
        self._require_same_space(other)
        return LinearOperator(self.space, self.matrix - other.matrix)

    def __mul__(self, scalar) -> "LinearOperator":
        return LinearOperator(self.space, self.matrix * complex(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "LinearOperator":
        return LinearOperator(self.space, -self.matrix)

    def __repr__(self):
        return f"LinearOperator(dim={self.space.dim}, nnz={self.matrix.nnz})"


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
        return float(np.linalg.norm(self.amplitudes))

    def normalized(self) -> "StateVector":
        n = self.norm()
        if n == 0:
            raise ValueError("cannot normalize the zero vector")
        return StateVector(self.space, self.amplitudes / n)

    def to_density(self) -> "DensityOperator":
        return DensityOperator(self.space, np.outer(self.amplitudes, self.amplitudes.conj()))


class DensityOperator:
    """Mixed state: dense matrix on a FockSpace, float64 or complex128 as given."""

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
        return float(np.linalg.eigvalsh((self.matrix + self.matrix.conj().T) / 2).min())


def identity(space: FockSpace) -> LinearOperator:
    return LinearOperator(space, sparse.identity(space.dim, dtype=complex, format="csr"))


def _ladder(cutoff: int) -> sparse.csr_matrix:
    # single-mode annihilation: a|n> = sqrt(n)|n-1>
    return sparse.diags(
        np.sqrt(np.arange(1, cutoff, dtype=float)), offsets=1, dtype=complex, format="csr"
    )


def embed(space: FockSpace, mode: int, single_mode_matrix) -> LinearOperator:
    """Embed a single-mode operator as I x ... x A x ... x I on the full space."""
    space.check_mode(mode)
    op = sparse.csr_matrix(single_mode_matrix, dtype=complex)
    c = space.cutoffs[mode]
    if op.shape != (c, c):
        raise ValueError(f"single-mode matrix shape {op.shape} does not match cutoff {c}")
    left = math.prod(space.cutoffs[:mode])
    right = math.prod(space.cutoffs[mode + 1:])
    full = sparse.kron(
        sparse.kron(sparse.identity(left, dtype=complex), op),
        sparse.identity(right, dtype=complex),
        format="csr",
    )
    return LinearOperator(space, full)


def annihilation(space: FockSpace, mode: int) -> LinearOperator:
    """Annihilation operator of the given mode on the full tensor space."""
    return embed(space, mode, _ladder(space.cutoffs[space.check_mode(mode)]))


def creation(space: FockSpace, mode: int) -> LinearOperator:
    return annihilation(space, mode).dag()


def number_operator(space: FockSpace, mode: int) -> LinearOperator:
    a = annihilation(space, mode)
    return a.dag() @ a


def total_number_operator(space: FockSpace) -> LinearOperator:
    op = number_operator(space, 0)
    for m in range(1, space.mode_count):
        op = op + number_operator(space, m)
    return op


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
    """tr(op rho) = sum_ij op_ij rho_ji for a sparse op and a dense matrix rho."""
    return complex(op.multiply(rho.T).sum())


def expectation(op: LinearOperator, state) -> complex:
    """tr(op rho) for a DensityOperator, <psi|op|psi> for a StateVector."""
    if isinstance(state, StateVector):
        if state.space != op.space:
            raise ValueError("operator and state live on different spaces")
        return complex(np.vdot(state.amplitudes, op.matrix @ state.amplitudes))
    if isinstance(state, DensityOperator):
        if state.space != op.space:
            raise ValueError("operator and state live on different spaces")
        return trace_product(op.matrix, state.matrix)
    raise TypeError(f"unsupported state type {type(state)!r}")


def partial_trace(rho: DensityOperator, keep) -> DensityOperator:
    """Reduced density operator on the kept modes (order preserved)."""
    keep = sorted({rho.space.check_mode(m) for m in keep})
    if not keep:
        raise ValueError("keep set must be nonempty")
    n = rho.space.mode_count
    if len(keep) == n:
        return DensityOperator(rho.space, rho.matrix.copy())
    dims = rho.space.cutoffs
    arr = rho.matrix.reshape(dims + dims)
    # trace out the complement, highest mode index first so axes stay valid
    traced = arr
    modes_left = n
    for m in sorted(set(range(n)) - set(keep), reverse=True):
        traced = np.trace(traced, axis1=m, axis2=m + modes_left)
        modes_left -= 1
    d = math.prod(dims[m] for m in keep)
    reduced_space = FockSpace(tuple(dims[m] for m in keep))
    return DensityOperator(reduced_space, traced.reshape(d, d))
