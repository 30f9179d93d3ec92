"""Pump and signal supermode bases and the transformed coupling tensors.

The pump basis rows are sampled Hermite-Gaussian spectra, re-orthonormalized
on the discrete pump grid.  Labels are 1-based: label k corresponds to Hermite
order k - 1, so label 1 is the Gaussian row that gets pumped.

The signal basis diagonalizes the label-1 transformed coupling matrix.  For
parity-symmetric dispersion an exact selection rule holds,

    G^(k)_ij = 0  whenever  (-1)^(k-1) * parity_i * parity_j = -1,

because each eigenvector has definite parity under m -> -m and the label-k
pump row has parity (-1)^(k-1).  The eigenvalue signs alternate with parity,
and the dominant positive eigenvalues all carry even parity; retaining only
even-parity signal supermodes therefore makes every even-label tensor vanish
identically on the retained block, which is what justifies dropping the
even-label nonlinear channels ("odd_only") without approximation.

:func:`build_supermodes` takes the config's ``supermode`` section as its parameters and
alone decides whether a dispersion admits the requested set; each infeasible request is a
:class:`SupermodeDataError` naming the ``supermode.*`` or ``dispersion.*`` field to change.
"""

import math
from dataclasses import dataclass

import numpy as np

from .phasematch import DispersionParams, coupling_matrix, is_parity_symmetric


# Largest relative asymmetry diagonalize_signal accepts, and how far from +/-1
# a normalized parity overlap may sit in parity_signature and count as definite.
SYMMETRY_TOL = 1e-10
PARITY_TOL = 1e-8


class SupermodeDataError(ValueError):
    """Parameters that pass the config's per-field rules but whose dispersion, sampled
    basis or coupling admits no supermode set; the message names the config field."""


def _hermite(order: int, x: np.ndarray) -> np.ndarray:
    """H_order(x) = 2^(order/2) He_order(sqrt(2) x), He by the backward recurrence of SciPy's
    ``eval_hermite``, in the same operations: the same bits, without ``scipy.special``."""
    s, y2, y3 = np.sqrt(2.0) * x, np.ones_like(x), np.zeros_like(x)
    for k in range(order, 1, -1):
        y2, y3 = s * y2 - k * y3, y2
    return (s * y2 - y3) * 2.0 ** (order / 2.0) if order else y2


def hermite_gaussian_basis(Np: float, pump_grid, count: int) -> np.ndarray:
    """Sampled Hermite-Gaussian rows, re-orthonormalized on the grid.

    Row k - 1 (0-based) samples the order-(k-1) Hermite-Gaussian
    (sqrt(pi) Np 2^o o!)^(-1/2) H_o(q/Np) exp(-(q/Np)^2 / 2) on ``pump_grid``,
    then a QR factorization of the transposed row stack restores exact row
    orthonormality, with signs fixed so each row keeps positive overlap with
    its raw sampled version.

    Raises :class:`ValueError` if ``count`` exceeds the grid size, and
    :class:`SupermodeDataError` if a sampled row or its normalization is not finite or
    the rows are numerically dependent (Np too small for the requested order).
    """
    grid = np.asarray(pump_grid, dtype=float)
    if Np <= 0:
        raise ValueError("Np must be positive")
    if count < 1:
        raise ValueError("count must be >= 1")
    if count > grid.size:
        raise ValueError(f"count {count} exceeds pump grid size {grid.size}")
    rows = np.empty((count, grid.size))
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is caught as non-finite
        x = grid / Np
        for order in range(count):
            try:
                norm = (math.sqrt(math.pi) * Np * 2.0 ** order * math.factorial(order)) ** -0.5
            except OverflowError:  # 2^o o! beyond float range: a non-finite row
                norm = math.nan
            rows[order] = norm * _hermite(order, x) * np.exp(-x * x / 2.0)
    if not np.isfinite(rows).all():
        raise SupermodeDataError(f"sampled Hermite-Gaussian rows are not finite at count {count} "
                                 f"(Np {Np}); lower `supermode.k_max` or raise `supermode.Np`")
    Q, Rtri = np.linalg.qr(rows.T)
    diag = np.diag(Rtri)
    if np.min(np.abs(diag)) < 1e-10 * np.max(np.abs(diag)):
        raise SupermodeDataError(
            f"sampled Hermite-Gaussian rows are numerically dependent at count {count} "
            f"(Np {Np} too small for the grid); adjust `supermode.Np` or `supermode.k_max`"
        )
    return (Q * np.sign(diag)).T


def transform_pump(F: np.ndarray, R: np.ndarray) -> list[np.ndarray]:
    """Per-label transformed coupling matrices of the (2M+1) x (2M+1) coupling matrix F,
    row k of R weighting pump line m + n."""
    R = np.asarray(R)
    M = (F.shape[0] - 1) // 2
    if R.ndim != 2 or R.shape[1] != 4 * M + 1:
        raise ValueError(
            f"pump basis must have {4 * M + 1} columns covering q in [-2M, 2M], "
            f"got shape {R.shape}"
        )
    m = np.arange(-M, M + 1)
    qindex = (m[:, None] + m[None, :]) + 2 * M
    return [R[k][qindex] * F for k in range(R.shape[0])]


def diagonalize_signal(Fp1: np.ndarray):
    """Orthonormal eigenbasis of the label-1 transformed coupling matrix.

    Returns (T, lam) with rows of T the eigenvectors ordered by descending
    |eigenvalue|; each row's largest-magnitude entry is made positive (ties
    broken by lowest index).  Raises :class:`SupermodeDataError` if the leading
    eigenvalue is not positive.
    """
    Fp1 = np.asarray(Fp1, dtype=float)
    if Fp1.ndim != 2 or Fp1.shape[0] != Fp1.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {Fp1.shape}")
    asym = np.max(np.abs(Fp1 - Fp1.T)) if Fp1.size else 0.0
    if asym > SYMMETRY_TOL * max(1.0, np.max(np.abs(Fp1))):
        raise ValueError(f"input not symmetric (defect {asym:.3e})")
    lam, vecs = np.linalg.eigh((Fp1 + Fp1.T) / 2.0)
    order = np.argsort(-np.abs(lam), kind="stable")
    lam = lam[order]
    T = vecs[:, order].T
    for i in range(T.shape[0]):
        lead = np.argmax(np.abs(T[i]) > np.max(np.abs(T[i])) - 1e-14)
        if T[i, lead] < 0:
            T[i] = -T[i]
    if lam[0] <= 0:
        raise SupermodeDataError(
            f"leading eigenvalue {lam[0]:.3e} is not positive; adjust the phase mismatch "
            "(`dispersion.beta1`, `dispersion.beta2s`, `dispersion.beta2p`) or `supermode.Np`"
        )
    return T, lam


def coupling_tensors(Fp: list[np.ndarray], T: np.ndarray) -> list[np.ndarray]:
    """Transformed tensors G^(k) = T F'^(k) T^T, real as T and the pump rows are.

    The rows of T diagonalize F'^(1) (:func:`diagonalize_signal`), so G^(1) keeps its diagonal,
    the eigenvalues, as computed and its off-diagonal round-off is set to exactly 0."""
    T = np.asarray(T)
    G = []
    for k, mat in enumerate(Fp):
        mat = np.asarray(mat)
        if mat.shape != (T.shape[1], T.shape[1]):
            raise ValueError(
                f"tensor {k} has shape {mat.shape}, expected {(T.shape[1], T.shape[1])}"
            )
        G.append(T @ mat @ T.T)
    G[0] = np.diag(np.diag(G[0]))
    return G


def parity_signature(vector: np.ndarray) -> int:
    """+1 / -1 for definite parity under index reversal, 0 otherwise."""
    v = np.asarray(vector)
    s = float(np.real(np.vdot(v, v[::-1])) / np.real(np.vdot(v, v)))
    if s > 1 - PARITY_TOL:
        return 1
    if s < -1 + PARITY_TOL:
        return -1
    return 0


@dataclass(frozen=True)
class SupermodeSet:
    """Retained pump/signal bases and coupling tensors of one SPOPO configuration.

    Stored: ``pump_basis`` rows align with ``pump_labels`` (1-based, label 1 first), and the
    orthonormal rows of ``signal_basis`` make uniform comb-line loss uniform supermode loss;
    ``tensors[j]`` is G^(k), k = pump_labels[j], on the retained signal block.  Derived, per
    signal row: ``eigenvalues``, the label-1 tensor's diagonal (descending |.|), and
    ``parities``, its :func:`parity_signature`.
    """

    pump_basis: np.ndarray          # (n_pump, 4M+1)
    pump_labels: tuple[int, ...]    # 1-based labels of retained pump rows
    signal_basis: np.ndarray        # (n_signal, 2M+1)
    tensors: tuple[np.ndarray, ...]  # each (n_signal, n_signal)
    params: DispersionParams | None

    @property
    def n_signal(self) -> int:
        return self.signal_basis.shape[0]

    @property
    def eigenvalues(self) -> np.ndarray:
        return np.diag(self.tensors[0])

    @property
    def parities(self) -> tuple[int, ...]:
        return tuple(parity_signature(row) for row in self.signal_basis)

    @property
    def lambda1(self) -> float:
        return float(self.tensors[0][0, 0])


def single_mode_set(lambda1: float = 1.0) -> SupermodeSet:
    """Degenerate one-supermode set used for cw-style single-mode models."""
    if lambda1 <= 0:
        raise ValueError("lambda1 must be positive")
    return SupermodeSet(
        pump_basis=np.array([[1.0]]),
        pump_labels=(1,),
        signal_basis=np.array([[1.0]]),
        tensors=(np.array([[lambda1]]),),
        params=None,
    )


def build_supermodes(
    params: DispersionParams,
    Np: float,
    n_signal: int,
    k_max: int,
    odd_only: bool = True,
    parity_retention: str = "auto",
) -> SupermodeSet:
    """Run the full decomposition pipeline for one dispersion configuration.

    parity_retention:
      - "auto": under parity-symmetric dispersion retain, in descending
        |eigenvalue| order, only even-parity signal supermodes (see module
        docstring); otherwise fall back to plain descending-|eigenvalue|.
      - "magnitude": plain descending-|eigenvalue| retention; it keeps odd-parity
        supermodes, so it cannot be combined with ``odd_only``.

    Raises :class:`SupermodeDataError`, naming the config field, when ``odd_only`` meets
    asymmetric dispersion or magnitude retention, ``k_max`` exceeds the 4M+1 pump lines,
    the Hermite-Gaussian rows are numerically dependent, the label-1 coupling's leading
    eigenvalue is not positive, or fewer than ``n_signal`` supermodes are retainable.
    """
    if not params.g0 > 0:
        raise ValueError("g0 must be > 0")
    if params.M < 0:
        raise ValueError("M must be >= 0")
    if n_signal < 1:
        raise ValueError("n_signal must be >= 1")
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if parity_retention not in ("auto", "magnitude"):
        raise ValueError(f"unknown parity_retention {parity_retention!r}")

    symmetric = is_parity_symmetric(params)
    use_even = parity_retention == "auto" and symmetric
    if odd_only and not symmetric:
        raise SupermodeDataError("field `supermode.odd_only` requires `dispersion.beta1` = 0")
    if odd_only and parity_retention == "magnitude":
        raise SupermodeDataError(
            "field `supermode.odd_only` requires `supermode.parity_retention` = auto: "
            "magnitude retention keeps odd-parity signal supermodes, whose even-label pump "
            "channels are not zero"
        )
    if k_max > 4 * params.M + 1:
        raise SupermodeDataError(
            f"field `supermode.k_max` exceeds the {4 * params.M + 1} pump lines of "
            "`dispersion.M`"
        )

    F = coupling_matrix(params)
    R_all = hermite_gaussian_basis(Np, params.pump_indices, k_max)
    Fp_all = transform_pump(F, R_all)
    T_full, _ = diagonalize_signal(Fp_all[0])

    pars = [parity_signature(row) for row in T_full]
    # counted: rows of tiny eigenvalue lose definite parity, so fewer than M + 1 are even
    retainable = [i for i, p in enumerate(pars) if p == 1 or not use_even]
    if len(retainable) < n_signal:
        raise SupermodeDataError(
            f"field `supermode.n_signal` exceeds the {len(retainable)} retainable signal "
            "supermodes"
        )
    selected = retainable[:n_signal]
    T = T_full[selected]

    labels = tuple(k for k in range(1, k_max + 1) if not odd_only or k % 2 == 1)
    tensors = coupling_tensors([Fp_all[k - 1] for k in labels], T)  # labels[0] is 1
    if tensors[0][0, 0] <= 0:
        raise SupermodeDataError(
            "retained leading eigenvalue is not positive; adjust `supermode.Np` or "
            "`supermode.k_max`"
        )

    p = np.array([pars[i] for i in selected])
    for k, g in zip(labels, tensors):  # the selection rule's zeros, exactly (module docstring)
        g[(-1) ** (k - 1) * np.outer(p, p) == -1] = 0.0
    return SupermodeSet(
        pump_basis=R_all[[k - 1 for k in labels]],
        pump_labels=labels,
        signal_basis=T,
        tensors=tuple(tensors),
        params=params,
    )
