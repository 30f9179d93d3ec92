"""Nonlinear coupling matrix of the signal comb from dispersion parameters.

Signal comb lines are indexed m in [-M, M].  Two lines (m, n) convert into the
pump line q = m + n with weight sqrt(g0) * sinc(Phi_mn), where the accumulated
phase mismatch is the second-order dispersion expansion

    Phi_mn = beta1 (m + n) + beta2p (m + n)^2 - beta2s (m^2 + n^2),

with Phi_00 = 0 by the quasi-degenerate phase-matching condition.  The beta
coefficients are taken as primitive dimensionless inputs; they are never
re-derived from material data here.
"""

from dataclasses import dataclass
from typing import Annotated

import numpy as np


@dataclass(frozen=True)
class DispersionParams:
    """Dimensionless dispersion inputs plus the coupling-rate scale g0; the annotated bounds
    are the config's rules, checked where ``config`` reads the ``dispersion`` section."""

    beta1: float
    beta2s: float
    beta2p: float
    g0: Annotated[float, "> 0"]
    M: Annotated[int, ">= 0"]  # comb halfwidth

    @property
    def indices(self) -> np.ndarray:
        """Signal comb indices -M .. M."""
        return np.arange(-self.M, self.M + 1)

    @property
    def pump_indices(self) -> np.ndarray:
        """Pump comb indices -2M .. 2M (all possible m + n)."""
        return np.arange(-2 * self.M, 2 * self.M + 1)


def sinc(x):
    """sin(x)/x with a series branch near zero (not numpy's normalized sinc)."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    small = np.abs(x) < 1e-4
    xs = x[small]
    out[small] = 1.0 - xs * xs / 6.0 + xs ** 4 / 120.0
    xb = x[~small]
    out[~small] = np.sin(xb) / xb
    return out if out.ndim else float(out)


def coupling_matrix(params: DispersionParams) -> np.ndarray:
    """sqrt(g0) * sinc(Phi_mn) over (m, n) in [-M, M]^2, real, read-only and exactly
    symmetric; entry [m + M, n + M] is the pair (m, n)."""
    m = params.indices.astype(float)
    mm, nn = np.meshgrid(m, m, indexing="ij")
    s = mm + nn
    phi = params.beta1 * s + params.beta2p * s * s - params.beta2s * (mm * mm + nn * nn)
    F = np.sqrt(params.g0) * sinc(phi)  # Phi_mn = Phi_nm term by term, so F = F^T exactly
    F.flags.writeable = False
    return F


def is_parity_symmetric(params: DispersionParams) -> bool:
    """Whether Phi (hence F) is invariant under (m, n) -> (-m, -n)."""
    return params.beta1 == 0.0
