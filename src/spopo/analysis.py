"""Derived observables: Wigner functions, output flux spectra, purity, fidelities.

Wigner convention: x and p are quadratures with vacuum variance 1/2 in each,
alpha = (x + i p) / sqrt(2), normalized so that the full-plane integral is 1
and the vacuum is W(x, p) = (1/pi) exp(-x^2 - p^2).
"""

import math
import warnings
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import hilbert
from .hilbert import DensityOperator, StateVector
from .model import OpenSystemModel
from .supermode import SupermodeSet


@dataclass
class WignerGrid:
    x: np.ndarray
    p: np.ndarray
    W: np.ndarray  # shape (len(p), len(x))
    convention: ClassVar[str] = "vacuum W(x,p) = exp(-x^2-p^2)/pi, integral 1"

    def integral(self) -> float:
        inner = np.trapezoid(self.W, self.x, axis=1)
        return float(np.trapezoid(inner, self.p))

    def min_value(self) -> float:
        return float(self.W.min())


def _laguerre_diagonal_series(offset: int, x: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Clenshaw evaluation of sum_n c_n * (-1)^n sqrt(o! n! / (o+n)!) L_n^o(x)."""
    y0, y1 = coeffs[-1] * np.ones_like(x), np.zeros_like(x)
    for k in range(len(coeffs), 1, -1):
        y0, y1 = (
            coeffs[k - 2] - y1 * math.sqrt((k - 1) * (offset + k - 1) / ((offset + k) * k)),
            y0 - y1 * ((offset + 2 * k - 1) - x) / math.sqrt((offset + k) * k),
        )
    return y0 - y1 * ((offset + 1) - x) / math.sqrt(offset + 1)


def wigner(rho: DensityOperator, x_grid, p_grid) -> WignerGrid:
    """Wigner function of a single-mode state via the Laguerre diagonal expansion.

    Takes a single-mode DensityOperator; multimode states must be reduced with a
    partial trace first.  Emits a warning when the grid is too small for the
    normalization integral to be trusted.
    """
    if rho.space.mode_count != 1:
        raise ValueError("wigner takes a single-mode state; partial-trace first")
    x = np.asarray(x_grid, dtype=float)
    p = np.asarray(p_grid, dtype=float)
    cutoff = rho.space.cutoffs[0]

    X, P = np.meshgrid(x, p)
    amp2 = np.sqrt(2.0) * (X + 1j * P)  # 2 alpha
    B = np.abs(amp2) ** 2

    # doubled upper diagonals fold in the conjugate lower ones (real part below)
    mat = rho.matrix * (2.0 - np.eye(cutoff))
    acc = 0.0
    for off in range(cutoff - 1, -1, -1):
        acc = _laguerre_diagonal_series(off, B, np.diag(mat, off)) + acc * amp2 / math.sqrt(off + 1)

    W = acc.real * np.exp(-B / 2.0) / math.pi
    grid = WignerGrid(x=x, p=p, W=W)
    total = grid.integral()
    if abs(total - 1.0) > 1e-3:
        warnings.warn(
            f"Wigner grid integral {total:.5f} deviates from 1; enlarge/refine the grid",
            stacklevel=2,
        )
    return grid


def purity(rho: DensityOperator) -> float:
    """tr(rho^2)."""
    return float(np.real(np.sum(rho.matrix * rho.matrix.T)))


def cat_state(space, p: float) -> StateVector:
    """Normalized even superposition of coherent states at +/- i sqrt(p)."""
    if p < 0:
        raise ValueError("p must be >= 0")
    plus = hilbert.coherent_state(space, 1j * math.sqrt(p)).amplitudes
    # the -alpha branch is this one with alternating signs: the sum is twice its even terms
    even = np.arange(plus.size) % 2 == 0
    return StateVector(space, np.where(even, 2.0 * plus, 0.0)).normalized()


def cat_fidelity(rho: DensityOperator, p: float) -> float:
    """Overlap <cat|rho|cat> of a single-mode state with the normalized two-branch cat.

    The cat normalization includes the coherent-branch overlap term; at p = 0
    the cat degenerates to vacuum.
    """
    if rho.space.mode_count != 1:
        raise ValueError("cat_fidelity takes a single-mode state")
    cat = cat_state(rho.space, p)
    value = float(np.real(np.vdot(cat.amplitudes, rho.matrix @ cat.amplitudes)))
    return min(max(value, 0.0), 1.0)


def _gram_expectations(ops, rho: DensityOperator) -> np.ndarray:
    """M_ab = <A_a^dag A_b> = tr(A_a^dag (A_b rho)) over sparse A: one sparse product per A."""
    products = [op @ rho.matrix for op in ops]
    return np.array([[hilbert.trace_product(adjoint, product) for product in products]
                     for adjoint in (op.conj().T.tocsr() for op in ops)])


def flux_spectrum_signal(rho_ss: DensityOperator, sm: SupermodeSet) -> dict:
    """Per-comb-line signal output flux 2 <s_m^dag s_m> over m in [-M, M].

    Frequency-mode operators are reconstructed from the retained supermodes,
    s_m = sum_i conj(T_im) S_i, so the profile lives in the retained subspace.
    """
    if rho_ss.space.mode_count != sm.n_signal:
        raise ValueError("state mode count does not match retained supermodes")
    T = sm.signal_basis
    ladders = [hilbert.annihilation(rho_ss.space, i).matrix for i in range(sm.n_signal)]
    N = _gram_expectations(ladders, rho_ss)
    flux = 2.0 * np.real(np.einsum("im,ij,jm->m", T, N, T.conj()))
    return {"m": sm.params.indices.copy(), "flux": flux}


def flux_spectrum_pump(rho_ss: DensityOperator, model: OpenSystemModel, sm: SupermodeSet) -> dict:
    """Per-pump-line output flux <L^(q)dag L^(q)> / kappa over q in [-2M, 2M].

    Frequency-channel operators are reconstructed from the retained pump
    supermode Lindblads (including the drive displacement on label 1),
    L^(q) = sum_k conj(R_kq) L'^(k).  ``completeness`` records the retained
    weight sum_k |R_kq|^2 per line; reconstruction is exact only where it
    approaches 1.
    """
    if rho_ss.space != model.space:
        raise ValueError("state lives on a different space than the model")
    nls = model.nonlinear_lindblads()
    labels = [l.index for l in nls]
    if list(sm.pump_labels) != labels:
        raise ValueError("model nonlinear labels do not match the supermode set")
    Mkk = _gram_expectations([l.op.matrix for l in nls], rho_ss)
    R = sm.pump_basis
    flux = np.real(np.einsum("kq,kl,lq->q", R, Mkk, R.conj()))
    completeness = np.sum(np.abs(R) ** 2, axis=0)
    return {
        "q": sm.params.pump_indices.copy(),
        "flux": flux,
        "completeness": completeness,
    }


def pump_input_profile(sm: SupermodeSet, r: float, eta: float) -> np.ndarray:
    """No-interaction pump output profile (r^2 / 4 eta) |R_1q|^2 per line."""
    gauss = sm.pump_basis[sm.pump_labels.index(1)]
    return (r ** 2 / (4.0 * eta)) * np.abs(gauss) ** 2
