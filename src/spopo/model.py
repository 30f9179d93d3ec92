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
            "kappa": 1.0 if p.family == "lossy" else None,  # the lossy time unit is 1/kappa
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


def _build(sm: SupermodeSet, cutoffs, params: ModelParams, *, drive: float, scale: float,
           linear_rate: float | None) -> OpenSystemModel:
    """Squeezing H = A + A^dag, A = (i * drive / 4) sum_i (lam_i / lam_1) S_i^2, optional
    linear loss sqrt(linear_rate) S_i, and nonlinear Lindblads scale * sum_ij (G^(k)_ij /
    lam_1) S_i S_j + drive / (2 scale) delta_k1 (r / 2 sqrt(eta) lossy, p / 2 lossless), each
    quadratic form built by ``hilbert.pair_operator`` in one pass over the occupation table."""
    cutoffs = tuple(int(c) for c in cutoffs)
    if len(cutoffs) != sm.n_signal:
        raise ValueError(
            f"{len(cutoffs)} cutoffs for {sm.n_signal} retained signal supermodes"
        )
    space = FockSpace(cutoffs)
    lam1 = sm.lambda1
    A = hilbert.pair_operator(space, np.diag(1j * drive / 4.0 * (sm.eigenvalues / lam1))).matrix
    H = LinearOperator(space, A + A.conj().T)

    lindblads = []
    if linear_rate is not None:
        lindblads = [
            Lindblad(math.sqrt(linear_rate) * hilbert.annihilation(space, i), "linear", i + 1)
            for i in range(sm.n_signal)
        ]
    for label, G in zip(sm.pump_labels, sm.tensors):
        op = scale * hilbert.pair_operator(space, G / lam1).matrix
        if label == 1 and drive != 0.0:
            op = op + drive / (2.0 * scale) * sparse.identity(space.dim, dtype=complex)
        pumped = label == 1 and drive > 0
        lindblads.append(Lindblad(LinearOperator(space, op), "nonlinear", label, pumped))
    return OpenSystemModel(space, H, tuple(lindblads), params)


def build_spopo(sm: SupermodeSet, r: float, eta: float, cutoffs) -> OpenSystemModel:
    """Lossy SPOPO model in kappa = 1 units."""
    if r < 0:
        raise ValueError("pump parameter r must be >= 0")
    if eta <= 0:
        raise ValueError("nonlinearity eta must be positive")
    params = ModelParams(family="lossy", r=r, eta=eta, lambda1=sm.lambda1)
    return _build(sm, cutoffs, params, drive=r, scale=math.sqrt(eta), linear_rate=2.0)


def build_lossless(sm: SupermodeSet, p: float, cutoffs) -> OpenSystemModel:
    """Lossless SPOPO model in lam_1^2 = 1 units (no linear Lindblads)."""
    if p < 0:
        raise ValueError("pump parameter p must be >= 0")
    params = ModelParams(family="lossless", p=p, lambda1=sm.lambda1)
    return _build(sm, cutoffs, params, drive=p, scale=1.0, linear_rate=None)

