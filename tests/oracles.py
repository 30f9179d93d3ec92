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


def rk45_master_states(rhs, rho0: np.ndarray, t, rtol: float, atol: float) -> list[np.ndarray]:
    """The master equation by SciPy's ``solve_ivp(method="RK45")`` on ``rhs.flat``.

    The reference for the in-module stepper: the states at ``t``, each
    symmetrized as ``evolve_master`` records it.
    """
    from scipy.integrate import solve_ivp

    sol = solve_ivp(rhs.flat, (t[0], t[-1]), rho0.ravel(), t_eval=t, method="RK45",
                    rtol=rtol, atol=atol)
    assert sol.success, sol.message
    states = [y.reshape(rho0.shape) for y in sol.y.T]
    return [(rho + rho.conj().T) / 2.0 for rho in states]
