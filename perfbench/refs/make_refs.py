"""Regenerate ``references.json``: reference values for the benchmark's output checks.

Each reference comes from a method independent of the path the CLI takes:

* steady state (d=72 and the cw cat): ``steady_state(method="long-time")``
  at a tighter residual, where the CLI's ``auto`` takes the null-space solve;
* homodyne spectrum (d=72): resolvent solves of the sparse Liouvillian,
  S(w) = 1 + 2 Re tr[X (iw - L)^-1 A0'], against the CLI's
  time-domain correlation integral;
* photon-number transients (d=150 for ``evolve``, d=288 for the SSE ensemble
  mean): DOP853 on a master-equation right-hand side written here, against
  the CLI's RK45 on ``dynamics._MasterRHS`` and its Euler-Maruyama SSE.

Run from the repository root (about 25 minutes on one core of a 2-core machine):

    PYTHONPATH=src python3 perfbench/refs/make_refs.py [--only r0.55,cw]
"""

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np
from scipy import sparse
from scipy.integrate import solve_ivp
from scipy.sparse.linalg import spsolve

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from spopo import dynamics, hilbert, model as model_mod, supermode  # noqa: E402
from spopo.phasematch import DispersionParams  # noqa: E402

import workloads as wl  # noqa: E402

OUT = Path(__file__).with_name("references.json")


def comb_model(r: float, cutoffs):
    sm = supermode.build_supermodes(
        DispersionParams(**wl.DESK_DISPERSION),
        Np=wl.DESK_SUPERMODE["Np"], n_signal=wl.DESK_SUPERMODE["n_signal"],
        k_max=wl.DESK_SUPERMODE["k_max"], odd_only=wl.DESK_SUPERMODE["odd_only"],
    )
    return model_mod.build_spopo(sm, r, wl.ETA, cutoffs)


def photon_ops(space) -> dict:
    ops = {f"n_{i + 1}": hilbert.number_operator(space, i).matrix for i in range(space.mode_count)}
    ops["n_total"] = hilbert.total_number_operator(space).matrix
    return ops


def expect(op, rho: np.ndarray) -> float:
    return float(np.real((op @ rho).trace()))


def steady_reference(mdl) -> tuple[dict, np.ndarray]:
    rho = dynamics.steady_state(mdl, method="long-time", tol=1e-9).matrix
    out = {name: expect(op, rho) for name, op in photon_ops(mdl.space).items()}
    out["purity"] = float(np.real(np.sum(rho * rho.T)))
    return out, rho


def spectrum_reference(mdl, rho_ss: np.ndarray, omegas, channel_index: int, phase_deg: float):
    dim = mdl.space.dim
    lin = [l for l in mdl.linear_lindblads() if l.index == channel_index][0]
    L = (np.exp(1j * np.deg2rad(phase_deg)) * lin.op.matrix).tocsr()
    X = (L + L.conj().T).toarray()
    A0 = L @ rho_ss + rho_ss @ L.conj().T.toarray()
    A0 = A0 - np.trace(A0) * rho_ss
    gen = model_mod.liouvillian_matrix(mdl)
    eye = sparse.identity(dim * dim, dtype=complex, format="csc")
    # at w = 0 the rank-one term |I/d><I| makes -L invertible and keeps tr(x) = 0
    diag = np.arange(dim) * dim + np.arange(dim)
    pin = sparse.csr_matrix(
        (np.full(dim * dim, 1.0 / dim), (np.repeat(diag, dim), np.tile(diag, dim))),
        shape=(dim * dim, dim * dim))
    S = []
    for w in omegas:
        x = spsolve((1j * w * eye - gen + (pin if w == 0 else 0 * eye)).tocsc(), A0.ravel())
        S.append(1.0 + 2.0 * float(np.real(np.sum(X.T.ravel() * x))))
    return S


def transient_reference(mdl, t_grid, names, rtol: float, atol: float) -> dict:
    """Photon numbers from vacuum by DOP853 on an independently written Lindblad RHS."""
    dim = mdl.space.dim
    H = mdl.H.matrix.tocsr()
    Ls = [l.op.matrix.tocsr() for l in mdl.lindblads]
    Ldags = [L.conj().T.tocsr() for L in Ls]
    K = sum((Ld @ L for L, Ld in zip(Ls, Ldags)), sparse.csr_matrix((dim, dim))).tocsr()
    KT, HT = K.T.tocsr(), H.T.tocsr()

    def rhs(_t, y):
        rho = y.reshape(dim, dim)
        out = -1j * (H @ rho - (HT @ rho.T).T)
        out -= 0.5 * (K @ rho + (KT @ rho.T).T)
        for L, Ld in zip(Ls, Ldags):
            out += (Ld.T @ (L @ rho).T).T
        return out.ravel()

    rho0 = hilbert.vacuum_state(mdl.space).to_density().matrix
    sol = solve_ivp(rhs, (t_grid[0], t_grid[-1]), rho0.ravel(), t_eval=t_grid,
                    method="DOP853", rtol=rtol, atol=atol)
    if not sol.success:
        raise RuntimeError(sol.message)
    ops = photon_ops(mdl.space)
    return {
        name: [expect(ops[name], sol.y[:, i].reshape(dim, dim)) for i in range(t_grid.size)]
        for name in names
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", default="", help="comma-separated point keys to compute")
    args = parser.parse_args()
    only = set(filter(None, args.only.split(",")))
    refs = json.loads(OUT.read_text()) if OUT.exists() else {}
    refs.setdefault("steady", {})
    refs.setdefault("spectrum", {})
    refs.setdefault("evolve", {})
    refs.setdefault("sse", {})

    if not only or "cw" in only:
        t0 = time.perf_counter()
        cw = model_mod.build_lossless(supermode.single_mode_set(1.0), wl.CW_CAT["p"],
                                      wl.CW_CAT["cutoffs"])
        steady, rho = steady_reference(cw)
        steady["even_parity"] = float(np.real(np.sum(np.diag(rho)[::2])))
        refs["steady"]["cw"] = steady
        print(f"cw {time.perf_counter() - t0:.1f}s", flush=True)

    evolve_t = np.linspace(0.0, wl.EVOLVE_DYNAMICS["t_max"], wl.EVOLVE_DYNAMICS["n_points"])
    sse_t = np.linspace(0.0, wl.SSE_DYNAMICS["t_max"], wl.SSE_DYNAMICS["n_points"])
    for r in wl.r_grid():
        key = wl.point_key(r)
        if only and key not in only:
            continue
        t0 = time.perf_counter()
        mdl = comb_model(r, wl.STEADY_CUTOFFS)
        steady, rho = steady_reference(mdl)
        refs["steady"][key] = steady
        t1 = time.perf_counter()
        refs["spectrum"][key] = spectrum_reference(
            mdl, rho, wl.SPECTRUM_OMEGAS, wl.SPECTRUM_DYNAMICS["channel_index"],
            wl.SPECTRUM_DYNAMICS["channel_phase_deg"])
        t2 = time.perf_counter()
        mdl = comb_model(r, wl.EVOLVE_CUTOFFS)
        refs["evolve"][key] = transient_reference(
            mdl, evolve_t, ["n_1", "n_2", "n_3", "n_total"], rtol=1e-11, atol=1e-13)
        t3 = time.perf_counter()
        mdl = comb_model(r, wl.SSE_CUTOFFS)
        refs["sse"][key] = transient_reference(mdl, sse_t, ["n_total"], rtol=1e-8, atol=1e-10)
        t4 = time.perf_counter()
        print(f"{key} steady {t1 - t0:.1f}s spectrum {t2 - t1:.1f}s "
              f"evolve {t3 - t2:.1f}s sse {t4 - t3:.1f}s", flush=True)
        OUT.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    OUT.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
