"""Analytic reference results the tests check the solvers against."""

import numpy as np


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
