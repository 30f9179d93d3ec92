"""Output checks of one CLI op: exit code, manifest checksums, physics, references.

``check_op`` returns the op's failures as ``(kind, message)`` pairs.  Kind
``"exit"`` means the process failed (non-zero exit, timeout, no manifest);
kind ``"value"`` means an artifact is missing, corrupted or holds a wrong
number.  An op that exits non-zero still has every artifact it wrote checked.
"""

import csv
import hashlib
import json
from pathlib import Path

import numpy as np

TRACE_TOL = 1e-8
MIN_EIG_TOL = 1e-8
PARITY_TOL = 1e-6            # cw lossless cat: even parity and purity equal 1
PHOTON_REL, PHOTON_ABS = 1e-5, 1e-7   # steady photon numbers against long-time
PURITY_ABS = 1e-5
FLUX_TIE_REL = 1e-8          # sum_m flux_signal = 2 <n_total> of the same model
SPECTRUM_REL = 1e-3          # time-domain integral (tau <= 20) against resolvent solves
EVOLVE_REL, EVOLVE_ABS = 1e-5, 1e-6   # RK45 transients against DOP853
WIGNER_INTEGRAL_TOL = 1e-3
WIGNER_N1_ABS = 1e-4         # <n_1> from the Wigner moment against the transient
SSE_SIGMAS = 6.0             # ensemble time-average against the master equation

EXPECTED = {
    "steady": ("steady_summary.json", "steady_diag.csv"),
    "fluxes": ("flux_signal.csv", "flux_pump.csv"),
    "spectrum": ("spectrum.csv", "spectrum_meta.json"),
    "evolve": ("timeseries.csv", "model_summary.json"),
    "wigner": ("wigner.csv", "wigner_axes.csv", "wigner_meta.json"),
    "trajectories": ("trajectories_photon.csv", "homodyne_pumped_channel.csv", "ensemble.csv"),
}


class CheckFailed(Exception):
    pass


def read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if len(rows) < 2:
        raise CheckFailed(f"{path.name} has no data rows")
    return rows[0], np.array([[float(v) for v in row] for row in rows[1:]])


def _close(name: str, got, want, rel: float = 0.0, abs_: float = 0.0):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        raise CheckFailed(f"{name}: shape {got.shape} != reference {want.shape}")
    err = np.abs(got - want)
    limit = abs_ + rel * np.abs(want)
    if not np.all(np.isfinite(got)) or np.any(err > limit):
        worst = int(np.argmax(err - limit)) if np.all(np.isfinite(got)) else 0
        raise CheckFailed(
            f"{name}: {float(got.ravel()[worst])!r} vs reference {float(want.ravel()[worst])!r} "
            f"(|diff| {err.ravel()[worst]:.3g} > {limit.ravel()[worst]:.3g})")


def _at_least(name: str, value: float, floor: float):
    if not value >= floor:
        raise CheckFailed(f"{name} = {value!r} < {floor!r}")


def check_steady(out: Path, op, refs: dict, shared: dict):
    summary = json.loads((out / "steady_summary.json").read_text())
    _close("trace", summary["trace"], 1.0, abs_=TRACE_TOL)
    _at_least("min_eigenvalue", summary["min_eigenvalue"], -MIN_EIG_TOL)
    _, diag = read_csv(out / "steady_diag.csv")
    ref = refs["steady"][op.point]
    photons = summary["photon_numbers"]
    shared[(op.point, "n_total")] = photons["n_total"]
    if op.point == "cw":
        even = float(np.sum(diag[0::2, 1]))
        _at_least("even-parity population", even, 1.0 - PARITY_TOL)
        _at_least("purity of the lossless cat", summary["purity"], 1.0 - PARITY_TOL)
    for name, value in sorted(photons.items()):
        _close(f"<{name}>", value, ref[name], rel=PHOTON_REL, abs_=PHOTON_ABS)
    _close("purity", summary["purity"], ref["purity"], abs_=PURITY_ABS)


def check_fluxes(out: Path, op, refs: dict, shared: dict):
    _, sig = read_csv(out / "flux_signal.csv")
    _, pump = read_csv(out / "flux_pump.csv")
    m_max = op.config["dispersion"]["M"]
    _close("signal lines", sig[:, 0], np.arange(-m_max, m_max + 1))
    _close("pump lines", pump[:, 0], np.arange(-2 * m_max, 2 * m_max + 1))
    _at_least("smallest signal flux", float(sig[:, 1].min()), -PHOTON_ABS)
    total = float(sig[:, 1].sum())
    _close("sum of signal flux vs 2 <n_total> reference", total,
           2.0 * refs["steady"][op.point]["n_total"], rel=PHOTON_REL, abs_=PHOTON_ABS)
    same_run = shared.get((op.point, "n_total"))
    if same_run is not None:
        _close("sum of signal flux vs 2 <n_total> of the steady op", total, 2.0 * same_run,
               rel=FLUX_TIE_REL, abs_=1e-12)


def check_spectrum(out: Path, op, refs: dict, _shared: dict):
    header, data = read_csv(out / "spectrum.csv")
    if header != ["omega", "S"]:
        raise CheckFailed(f"spectrum.csv header {header}")
    _close("omega grid", data[:, 0], op.config["dynamics"]["omega_grid"], abs_=1e-12)
    _close("S(omega)", data[:, 1], refs["spectrum"][op.point], rel=SPECTRUM_REL)


def _time_grid(dyn: dict) -> np.ndarray:
    return np.linspace(0.0, dyn["t_max"], dyn["n_points"])


def check_evolve(out: Path, op, refs: dict, _shared: dict):
    header, data = read_csv(out / "timeseries.csv")
    ref = refs["evolve"][op.point]
    if header != ["t", *sorted(ref)]:
        raise CheckFailed(f"timeseries.csv header {header}")
    _close("time grid", data[:, 0], _time_grid(op.config["dynamics"]), abs_=1e-12)
    for col, name in enumerate(header[1:], start=1):
        _close(f"<{name}>(t)", data[:, col], ref[name], rel=EVOLVE_REL, abs_=EVOLVE_ABS)
    _close("<n_total> vs sum of modes", data[:, -1], data[:, 1:-1].sum(axis=1), abs_=1e-9)


def check_wigner(out: Path, op, refs: dict, _shared: dict):
    W = np.loadtxt(out / "wigner.csv", delimiter=",", skiprows=1, ndmin=2)
    _, axes = read_csv(out / "wigner_axes.csv")
    meta = json.loads((out / "wigner_meta.json").read_text())
    wig = op.config["wigner"]
    grid = np.linspace(-wig["x_max"], wig["x_max"], wig["points"])
    _close("Wigner axes", axes[:, 1:], np.stack([grid, grid], axis=1), abs_=1e-12)
    _close("Wigner time", meta["time"], op.config["dynamics"]["t_max"], abs_=1e-12)
    integral = float(np.trapezoid(np.trapezoid(W, grid, axis=1), grid))
    _close("Wigner integral (recomputed)", integral, 1.0, abs_=WIGNER_INTEGRAL_TOL)
    _close("Wigner integral (meta)", meta["integral"], integral, abs_=1e-9)
    # <n> = integral of W (x^2 + p^2) / 2 - 1/2 with vacuum variance 1/2
    X, P = np.meshgrid(grid, grid)
    n1 = float(np.trapezoid(np.trapezoid(W * (X**2 + P**2) / 2.0, grid, axis=1), grid)) - 0.5
    _close("<n_1> from the Wigner moment", n1, refs["evolve"][op.point]["n_1"][-1],
           abs_=WIGNER_N1_ABS)


def check_trajectories(out: Path, op, refs: dict, _shared: dict):
    dyn = op.config["dynamics"]
    t = _time_grid(dyn)
    n_traj = dyn["n_trajectories"]
    header, photon = read_csv(out / "trajectories_photon.csv")
    if len(header) != n_traj + 1 or photon.shape[0] != t.size:
        raise CheckFailed(f"trajectories_photon.csv is {photon.shape}, want ({t.size}, {n_traj + 1})")
    _close("time grid", photon[:, 0], t, abs_=1e-12)
    n = photon[:, 1:]
    _close("<n_total> at t=0", n[0], np.zeros(n_traj), abs_=1e-12)
    _at_least("smallest <n_total>", float(n.min()), -1e-9)
    _, current = read_csv(out / "homodyne_pumped_channel.csv")
    if current.shape != (t.size - 1, n_traj + 1) or not np.all(np.isfinite(current)):
        raise CheckFailed(f"homodyne_pumped_channel.csv is {current.shape} or not finite")
    _, ens = read_csv(out / "ensemble.csv")
    _close("ensemble mean", ens[:, 1], n.mean(axis=1), rel=1e-12, abs_=1e-12)
    _close("ensemble stderr", ens[:, 2], n.std(axis=1, ddof=1) / np.sqrt(n_traj),
           rel=1e-9, abs_=1e-12)
    # time-averaged photon number per trajectory: independent samples of one mean
    per_traj = np.trapezoid(n, t, axis=0) / t[-1]
    ref = float(np.trapezoid(refs["sse"][op.point]["n_total"], t)) / t[-1]
    sigma = float(per_traj.std(ddof=1)) / np.sqrt(n_traj)
    _close("time-averaged ensemble <n_total>", float(per_traj.mean()), ref,
           abs_=SSE_SIGMAS * sigma + 1e-3 * ref)


CHECKERS = {
    "steady": check_steady,
    "fluxes": check_fluxes,
    "spectrum": check_spectrum,
    "evolve": check_evolve,
    "wigner": check_wigner,
    "trajectories": check_trajectories,
}


def _verify_manifest(out: Path) -> list[str]:
    manifest = json.loads((out / "manifest.json").read_text())
    bad = []
    for name, digest in sorted(manifest["artifacts"].items()):
        path = out / name
        if not path.is_file():
            bad.append(f"{name} listed in manifest.json but missing")
        elif hashlib.sha256(path.read_bytes()).hexdigest() != digest:
            bad.append(f"{name} does not match its sha256 in manifest.json")
    return bad


def check_op(op, out: Path, exit_code: int, refs: dict, shared: dict) -> list[tuple[str, str]]:
    """Every failure of one finished op, as (kind, message)."""
    failures = []
    if exit_code != 0:
        failures.append(("exit", f"exit code {exit_code}"))
    if (out / "manifest.json").is_file():
        failures += [("value", msg) for msg in _verify_manifest(out)]
    elif exit_code == 0:
        failures.append(("exit", "no manifest.json"))
    missing = [name for name in EXPECTED[op.command] if not (out / name).is_file()]
    if exit_code == 0 and missing:
        failures.append(("value", f"missing artifacts {missing}"))
    try:
        CHECKERS[op.command](out, op, refs, shared)
    except CheckFailed as exc:
        failures.append(("value", str(exc)))
    except (OSError, KeyError, ValueError, IndexError, json.JSONDecodeError) as exc:
        # a partial write from a crashed op is already counted by its exit code
        if exit_code == 0:
            failures.append(("value", f"unreadable artifact: {type(exc).__name__}: {exc}"))
    return failures
