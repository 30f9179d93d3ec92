"""Open-system models of the pumped SPOPO in dimensionless units.

Two families, each a Hamiltonian plus an ordered list of tagged Lindblad
operators on a truncated signal Fock space:

* lossy (time unit 1/kappa, kappa = 1):
    H          = (i r / 4) sum_i (lam_i / lam_1) S_i^2 + h.c.
    L_lin^(i)  = sqrt(2) S_i
    L_nl^(k)   = sqrt(eta) sum_ij (G^(k)_ij / lam_1) S_i S_j + (r / 2 sqrt(eta)) delta_k1

* lossless (time unit 1/lam_1^2, lam_1^2 = 1):
    H          = (i p / 4) sum_i (lam_i / lam_1) S_i^2 + h.c.
    L_nl^(k)   = sum_ij (G^(k)_ij / lam_1) S_i S_j + (p / 2) delta_k1

r is the pump amplitude in units of the first-supermode threshold, eta the
ratio of two-photon to linear decay rates, p the lossless pump parameter.
Displacing a Lindblad by a constant and adding the corresponding quadratic
Hamiltonian are two halves of the same coherent drive; both appear above.
Lindblad ordering (linear ascending, then nonlinear ascending label) is a
fixed contract so trajectory noise channels are reproducible under a seed.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from . import hilbert
from .hilbert import FockSpace, LinearOperator
from .supermode import SupermodeSet


@dataclass(frozen=True)
class ModelParams:
    family: str                 # "lossy" | "lossless"
    r: float | None = None
    eta: float | None = None
    p: float | None = None
    kappa: float | None = None  # 1.0 in lossy units, None for lossless
    lambda1: float = 1.0


@dataclass(frozen=True)
class Lindblad:
    op: LinearOperator
    kind: str        # "linear" | "nonlinear"
    index: int       # supermode index i or pump label k (1-based)
    pumped: bool = False


@dataclass(frozen=True)
class OpenSystemModel:
    space: FockSpace
    H: LinearOperator
    lindblads: tuple[Lindblad, ...]
    params: ModelParams

    def nonlinear_lindblads(self) -> list[Lindblad]:
        return [l for l in self.lindblads if l.kind == "nonlinear"]

    def linear_lindblads(self) -> list[Lindblad]:
        return [l for l in self.lindblads if l.kind == "linear"]

    def summary(self) -> dict:
        p = self.params
        return {
            "family": p.family,
            "r": p.r,
            "eta": p.eta,
            "p": p.p,
            "kappa": p.kappa,
            "lambda1": p.lambda1,
            "cutoffs": list(self.space.cutoffs),
            "hamiltonian_norm": self.H.norm(),
            "lindblads": [
                {"kind": l.kind, "index": l.index, "pumped": l.pumped, "norm": l.op.norm()}
                for l in self.lindblads
            ],
        }


def liouvillian_matrix(model: OpenSystemModel) -> sparse.csr_matrix:
    """Sparse superoperator generating d(vec rho)/dt, C-order (row-major) vec.

    vec(A rho B) = (A kron B^T) vec(rho) for row-stacked rho.
    """
    dim = model.space.dim
    eye = sparse.identity(dim, dtype=complex, format="csr")
    H = model.H.matrix
    gen = -1j * (sparse.kron(H, eye) - sparse.kron(eye, H.T))
    for lb in model.lindblads:
        L = lb.op.matrix
        Ldag = L.conj().T
        LdL = (Ldag @ L).tocsr()
        gen = gen + sparse.kron(L, L.conj())
        gen = gen - 0.5 * (sparse.kron(LdL, eye) + sparse.kron(eye, LdL.T))
    return gen.tocsr()


def _squeezing_hamiltonian(S, drive: float, lam_ratio: np.ndarray) -> sparse.csr_matrix:
    """(i * drive / 4) sum_i lam_ratio_i S_i^2 + h.c. from the ladder operators S."""
    acc = sparse.csr_matrix(S[0].shape, dtype=complex)
    for i, ratio in enumerate(lam_ratio):
        acc = acc + (S[i] @ S[i]) * (1j * drive / 4.0 * ratio)
    return acc + acc.conj().T


def _pair_operator(S, weights: np.ndarray) -> sparse.csr_matrix:
    """sum_ij weights_ij S_i S_j with a symmetric weight matrix."""
    acc = sparse.csr_matrix(S[0].shape, dtype=complex)
    for i in range(len(S)):
        for j in range(len(S)):
            w = weights[i, j]
            if w != 0.0:
                acc = acc + w * (S[i] @ S[j])
    return acc


def _build(sm: SupermodeSet, cutoffs, params: ModelParams, *, drive: float, scale: float,
           shift: float, linear_rate: float | None) -> OpenSystemModel:
    """Squeezing H with pump ``drive``, optional linear loss sqrt(linear_rate) S_i, and
    nonlinear Lindblads scale * sum_ij (G^(k)_ij / lam_1) S_i S_j + shift * delta_k1."""
    cutoffs = tuple(int(c) for c in cutoffs)
    if len(cutoffs) != sm.n_signal:
        raise ValueError(
            f"{len(cutoffs)} cutoffs for {sm.n_signal} retained signal supermodes"
        )
    space = FockSpace(cutoffs)
    S = [hilbert.annihilation(space, i).matrix for i in range(space.mode_count)]
    lam1 = sm.lambda1
    H = LinearOperator(space, _squeezing_hamiltonian(S, drive, sm.eigenvalues / lam1))

    lindblads = []
    if linear_rate is not None:
        lindblads = [
            Lindblad(LinearOperator(space, math.sqrt(linear_rate) * S[i]), "linear", i + 1)
            for i in range(sm.n_signal)
        ]
    for label, G in zip(sm.pump_labels, sm.tensors):
        op = scale * _pair_operator(S, G / lam1)
        if label == 1 and drive != 0.0:
            op = op + shift * sparse.identity(space.dim, dtype=complex)
        pumped = label == 1 and drive > 0
        lindblads.append(Lindblad(LinearOperator(space, op), "nonlinear", label, pumped))
    return OpenSystemModel(space, H, tuple(lindblads), params)


def build_spopo(sm: SupermodeSet, r: float, eta: float, cutoffs) -> OpenSystemModel:
    """Lossy SPOPO model in kappa = 1 units."""
    if r < 0:
        raise ValueError("pump parameter r must be >= 0")
    if eta <= 0:
        raise ValueError("nonlinearity eta must be positive")
    root_eta = math.sqrt(eta)
    params = ModelParams(family="lossy", r=r, eta=eta, kappa=1.0, lambda1=sm.lambda1)
    return _build(sm, cutoffs, params, drive=r, scale=root_eta, shift=r / (2.0 * root_eta),
                  linear_rate=2.0)


def build_lossless(sm: SupermodeSet, p: float, cutoffs) -> OpenSystemModel:
    """Lossless SPOPO model in lam_1^2 = 1 units (no linear Lindblads)."""
    if p < 0:
        raise ValueError("pump parameter p must be >= 0")
    params = ModelParams(family="lossless", p=p, lambda1=sm.lambda1)
    return _build(sm, cutoffs, params, drive=p, scale=1.0, shift=p / 2.0, linear_rate=None)


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
