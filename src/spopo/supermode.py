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
"""

import math
from dataclasses import dataclass

import numpy as np

from .phasematch import CouplingMatrix, DispersionParams, coupling_matrix, is_parity_symmetric


# Largest relative asymmetry diagonalize_signal accepts, and how far from +/-1
# a normalized parity overlap may sit in parity_signature and count as definite.
SYMMETRY_TOL = 1e-10
PARITY_TOL = 1e-8


class SupermodeDataError(ValueError):
    """Valid-looking parameters whose sampled basis or coupling admits no supermode set."""


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
    :class:`SupermodeDataError` if the sampled rows are numerically dependent
    (Np too small for the requested order).
    """
    grid = np.asarray(pump_grid, dtype=float)
    if Np <= 0:
        raise ValueError("Np must be positive")
    if count < 1:
        raise ValueError("count must be >= 1")
    if count > grid.size:
        raise ValueError(f"count {count} exceeds pump grid size {grid.size}")
    x = grid / Np
    rows = np.empty((count, grid.size))
    for order in range(count):
        norm = (math.sqrt(math.pi) * Np * 2.0 ** order * math.factorial(order)) ** -0.5
        rows[order] = norm * _hermite(order, x) * np.exp(-x * x / 2.0)
    Q, Rtri = np.linalg.qr(rows.T)
    diag = np.diag(Rtri)
    if np.min(np.abs(diag)) < 1e-10 * np.max(np.abs(diag)):
        raise SupermodeDataError(
            f"sampled Hermite-Gaussian rows are numerically dependent at count {count} "
            f"(Np {Np} too small for the grid)"
        )
    signs = np.sign(diag)
    signs[signs == 0] = 1.0
    return (Q * signs).T


def transform_pump(F: CouplingMatrix, R: np.ndarray) -> list[np.ndarray]:
    """Per-label transformed coupling matrices, row k weighting pump line m + n."""
    R = np.asarray(R)
    M = F.params.M
    if R.ndim != 2 or R.shape[1] != 4 * M + 1:
        raise ValueError(
            f"pump basis must have {4 * M + 1} columns covering q in [-2M, 2M], "
            f"got shape {R.shape}"
        )
    m = np.arange(-M, M + 1)
    qindex = (m[:, None] + m[None, :]) + 2 * M
    return [R[k][qindex] * F.matrix for k in range(R.shape[0])]


def diagonalize_signal(Fp1: np.ndarray):
    """Orthonormal eigenbasis of the label-1 transformed coupling matrix.

    Returns (T, lam) with rows of T the eigenvectors ordered by descending
    |eigenvalue|; each row's largest-magnitude entry is made positive (ties
    broken by lowest index) and the leading eigenvalue must be positive.
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
        raise ValueError(f"leading eigenvalue {lam[0]:.3e} is not positive")
    return T, lam


def coupling_tensors(Fp: list[np.ndarray], T: np.ndarray):
    """Transformed tensors G^(k) = conj(T) F'^(k) conj(T)^T and their label-1 diagonal."""
    T = np.asarray(T)
    Tc = T.conj()
    G = []
    for k, mat in enumerate(Fp):
        mat = np.asarray(mat)
        if mat.shape != (T.shape[1], T.shape[1]):
            raise ValueError(
                f"tensor {k} has shape {mat.shape}, expected {(T.shape[1], T.shape[1])}"
            )
        G.append(Tc @ mat @ Tc.T)
    lam = np.real(np.diag(G[0])).copy()
    return G, lam


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

    ``pump_basis`` rows align with ``pump_labels`` (1-based labels); the signal
    rows of ``signal_basis`` align with ``eigenvalues`` and ``parities``; they are
    orthonormal, so uniform loss on the comb lines is uniform loss on the supermodes.
    ``tensors[j]`` is G^(k) for k = pump_labels[j] on the retained signal block,
    and ``eigenvalues[i]`` equals tensors-of-label-1 diagonal entry i.
    """

    pump_basis: np.ndarray          # (n_pump, 4M+1)
    pump_labels: tuple[int, ...]    # 1-based labels of retained pump rows
    signal_basis: np.ndarray        # (n_signal, 2M+1)
    tensors: tuple[np.ndarray, ...]  # each (n_signal, n_signal)
    eigenvalues: np.ndarray         # retained label-1 diagonal, descending |.|
    parities: tuple[int, ...]
    params: DispersionParams | None
    Np: float | None

    @property
    def n_signal(self) -> int:
        return self.signal_basis.shape[0]

    @property
    def lambda1(self) -> float:
        return float(self.eigenvalues[0])


def single_mode_set(lambda1: float = 1.0) -> SupermodeSet:
    """Degenerate one-supermode set used for cw-style single-mode models."""
    if lambda1 <= 0:
        raise ValueError("lambda1 must be positive")
    return SupermodeSet(
        pump_basis=np.array([[1.0]]),
        pump_labels=(1,),
        signal_basis=np.array([[1.0]]),
        tensors=(np.array([[lambda1]]),),
        eigenvalues=np.array([lambda1]),
        parities=(1,),
        params=None,
        Np=None,
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
      - "even": force even-parity retention (requires parity symmetry).
      - "magnitude": plain descending-|eigenvalue| retention; it keeps odd-parity
        supermodes, so it cannot be combined with ``odd_only``.
    """
    if n_signal < 1:
        raise ValueError("n_signal must be >= 1")
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if parity_retention not in ("auto", "even", "magnitude"):
        raise ValueError(f"unknown parity_retention {parity_retention!r}")

    symmetric = is_parity_symmetric(params)
    if parity_retention == "even" and not symmetric:
        raise ValueError("even-parity retention requires parity-symmetric dispersion (beta1 = 0)")
    use_even = parity_retention == "even" or (parity_retention == "auto" and symmetric)
    if odd_only and not symmetric:
        raise ValueError("odd_only labels are only exact under parity-symmetric dispersion")
    if odd_only and parity_retention == "magnitude":
        raise ValueError("odd_only labels are only exact with even-parity retention; "
                         "magnitude retention keeps odd-parity signal supermodes")

    F = coupling_matrix(params)
    R_all = hermite_gaussian_basis(Np, params.pump_indices, k_max)
    Fp_all = transform_pump(F, R_all)
    T_full, _ = diagonalize_signal(Fp_all[0])

    if use_even:
        pars = [parity_signature(T_full[i]) for i in range(T_full.shape[0])]
        selected = [i for i, p in enumerate(pars) if p == 1][:n_signal]
        if len(selected) < n_signal:
            raise ValueError(
                f"only {len(selected)} even-parity signal supermodes available, "
                f"requested {n_signal}"
            )
    else:
        selected = list(range(n_signal))

    T = T_full[selected]
    parities = tuple(parity_signature(T[i]) for i in range(T.shape[0]))

    labels = tuple(k for k in range(1, k_max + 1) if not odd_only or k % 2 == 1)
    G_all, lam = coupling_tensors([Fp_all[k - 1] for k in labels], T)  # labels[0] is 1
    if lam[0] <= 0:
        raise SupermodeDataError("retained leading eigenvalue is not positive")

    tensors = tuple(np.real_if_close(g, tol=1000).astype(float) for g in G_all)
    return SupermodeSet(
        pump_basis=R_all[[k - 1 for k in labels]],
        pump_labels=labels,
        signal_basis=T,
        tensors=tensors,
        eigenvalues=lam,
        parities=parities,
        params=params,
        Np=Np,
    )
