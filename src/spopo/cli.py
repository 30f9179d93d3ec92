"""Command-line pipeline: config in, deterministic CSV/JSON artifacts out.

Exit codes: 0 success, 2 config parse error, 3 validation error (a config rule at load
or a ``SupermodeDataError`` from the supermode build), 4 numerical-convergence failure.
"""

import argparse
import csv
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__, analysis, dynamics, hilbert, model as model_mod, supermode
from .config import ConfigParseError, ConfigValidationError, RunConfig, load_config, validate_config
from .dynamics import ConvergenceError
from .phasematch import coupling_matrix
from .supermode import SupermodeDataError

EXIT_CONFIG = 2
EXIT_VALIDATION = 3
EXIT_CONVERGENCE = 4


class ArtifactWriter:
    """Writes CSV/JSON artifacts into one directory and records their checksums."""

    def __init__(self, directory: Path):
        self.directory = directory
        self.files: dict[str, str] = {}

    def _path(self, name: str) -> Path:
        """Artifact ``name``'s path; the first write makes the directory."""
        self.directory.mkdir(parents=True, exist_ok=True)
        return self.directory / name

    def _register(self, path: Path):
        digest = hashlib.sha256()
        with open(path, "rb") as fh:
            while block := fh.read(1 << 16):
                digest.update(block)
        self.files[path.name] = digest.hexdigest()

    def write_csv(self, name: str, columns: dict):
        """Artifact ``name``: one column per entry of ``columns``, its key the header, and the
        ``repr`` of each element of ``np.asarray(column)`` in its cells, so a float reads as
        its shortest round-trip decimal and an int as its digits.  Rows are written one at a
        time from the columns' buffers.  Columns of unequal length raise ``ValueError`` before
        anything is written."""
        arrays = [np.asarray(column) for column in columns.values()]
        if len({len(a) for a in arrays}) > 1:
            raise ValueError(f"columns of {name} differ in length")
        path = self._path(name)
        with open(path, "w", newline="\n") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(columns)
            writer.writerows(zip(*(map(repr, memoryview(a)) for a in arrays)))
        self._register(path)

    def write_json(self, name: str, payload):
        path = self._path(name)
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        self._register(path)

    def write_manifest(self, cfg: RunConfig, wall_time: float):
        payload = {
            "config": cfg.raw,
            "config_sha256": cfg.content_hash(),
            "seed": cfg.dynamics.seed,
            "package_version": __version__,
            "artifacts": dict(sorted(self.files.items())),
            "wall_time_s": wall_time,
        }
        path = self._path("manifest.json")
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _build_supermodes(cfg: RunConfig) -> supermode.SupermodeSet:
    return supermode.build_supermodes(cfg.dispersion, **asdict(cfg.supermode))


def _state_fits(cfg: RunConfig):
    """Check, before the model is built, that its d x d float64 state fits in memory."""
    if cfg.model is not None:  # a missing section is named by _build_model
        d = math.prod(cfg.model.cutoffs)
        _fits("model.cutoffs", d, d)


def _build_model(cfg: RunConfig):
    m = cfg.model
    if m is None:
        raise ConfigValidationError("missing required section `model` for this command")
    _fits("model.cutoffs", len(m.cutoffs), math.prod(m.cutoffs))  # the occupation table
    if m.family == "cw-single":
        sm = supermode.single_mode_set(1.0)
        return sm, model_mod.build_lossless(sm, m.p, m.cutoffs)
    sm = _build_supermodes(cfg)
    if m.family == "lossy":
        return sm, model_mod.build_spopo(sm, m.r, m.eta, m.cutoffs)
    return sm, model_mod.build_lossless(sm, m.p, m.cutoffs)


def _fits(name: str, *shape: int):
    """Raise ConfigValidationError naming field ``name`` when a float64 array of ``shape``
    would exceed this machine's memory; nothing is allocated."""
    size = 8 * math.prod(shape)
    if size > os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"):
        raise ConfigValidationError(f"field `{name}` sizes an array of {size:.3g} B, more than "
                                    "this machine's memory")


def _photon_observables(space) -> dict[str, hilbert.LinearOperator]:
    obs = {f"n_{i+1}": hilbert.number_operator(space, i) for i in range(space.mode_count)}
    obs["n_total"] = hilbert.total_number_operator(space)
    return obs


def cmd_build(cfg: RunConfig, writer: ArtifactWriter):
    if cfg.dispersion is None or cfg.supermode is None:
        raise ConfigValidationError("`build` requires sections `dispersion` and `supermode`")
    params = cfg.dispersion
    F = coupling_matrix(params)
    sm = _build_supermodes(cfg)

    idx, q, labels = params.indices, params.pump_indices, np.asarray(sm.pump_labels)
    modes = np.arange(1, sm.n_signal + 1)  # 1-based signal supermode labels
    writer.write_csv("coupling_matrix.csv", {
        "m": np.repeat(idx, idx.size), "n": np.tile(idx, idx.size), "value": F.ravel()})
    writer.write_csv("pump_basis.csv", {
        "k": np.repeat(labels, q.size), "q": np.tile(q, labels.size),
        "value": sm.pump_basis.ravel()})
    writer.write_csv("signal_basis.csv", {
        "i": np.repeat(modes, idx.size), "m": np.tile(idx, modes.size),
        "value": sm.signal_basis.ravel()})
    tensors = np.asarray(sm.tensors)  # [label, i, j]
    a, i, j = np.indices(tensors.shape).reshape(3, -1)
    writer.write_csv("tensors.csv", {
        "k": labels[a], "i": modes[i], "j": modes[j], "value": tensors.ravel()})
    writer.write_csv("eigenvalues.csv", {
        "i": modes, "lambda": sm.eigenvalues, "parity": sm.parities})
    writer.write_json("supermode_summary.json", {
        "pump_labels": list(sm.pump_labels),
        "eigenvalues": [float(v) for v in sm.eigenvalues],
        "parities": list(sm.parities),
        "lambda1": sm.lambda1,
    })


def cmd_evolve(cfg: RunConfig, writer: ArtifactWriter):
    _state_fits(cfg)
    _sm, mdl = _build_model(cfg)
    obs = _photon_observables(mdl.space)
    # per output time: its time and each observable's complex series
    _fits("dynamics.n_points", cfg.dynamics.n_points, 1 + 2 * len(obs))
    t = np.linspace(0.0, cfg.dynamics.t_max, cfg.dynamics.n_points)
    rec = dynamics.evolve_master(
        mdl, hilbert.vacuum_state(mdl.space).to_density(), t, obs,
        trace_tol=cfg.dynamics.tolerance,
    )
    writer.write_csv("timeseries.csv", {
        "t": rec.times, **{name: rec.observables[name].real for name in sorted(obs)}})
    writer.write_json("model_summary.json", mdl.summary())


def cmd_steady(cfg: RunConfig, writer: ArtifactWriter):
    _state_fits(cfg)
    _sm, mdl = _build_model(cfg)
    rho = dynamics.steady_state(mdl, tol=cfg.dynamics.tolerance)
    obs = _photon_observables(mdl.space)
    summary = {
        "photon_numbers": {
            name: float(hilbert.expectation(op, rho).real) for name, op in sorted(obs.items())
        },
        "purity": analysis.purity(rho),
        "trace": float(rho.trace().real),
        "min_eigenvalue": rho.min_eigenvalue(),
    }
    if cfg.model.family == "cw-single":
        summary["cat_fidelity"] = analysis.cat_fidelity(rho, cfg.model.p)
    writer.write_json("steady_summary.json", summary)
    writer.write_csv("steady_diag.csv", {
        "index": np.arange(mdl.space.dim), "population": rho.matrix.diagonal().real})


def _spectrum_channel(cfg: RunConfig, mdl) -> hilbert.LinearOperator:
    linear = mdl.linear_lindblads()
    if not linear:
        raise ConfigValidationError(
            "spectrum requires a model with linear loss channels (family lossy)"
        )
    index = cfg.dynamics.channel_index
    match = [l for l in linear if l.index == index]
    if not match:
        raise ConfigValidationError(f"no linear channel with index {index}")
    return dynamics.rotated_channel(match[0].op, cfg.dynamics.channel_phase_deg)


def cmd_spectrum(cfg: RunConfig, writer: ArtifactWriter):
    _state_fits(cfg)
    _sm, mdl = _build_model(cfg)
    if not cfg.dynamics.omega_grid:
        raise ConfigValidationError("missing required field `dynamics.omega_grid` for spectrum")
    channel = _spectrum_channel(cfg, mdl)
    rho = dynamics.steady_state(mdl, tol=cfg.dynamics.tolerance)
    result = dynamics.homodyne_spectrum(mdl, channel, cfg.dynamics.omega_grid, rho_ss=rho)
    writer.write_csv("spectrum.csv", {"omega": result.omega, "S": result.S})
    writer.write_json("spectrum_meta.json", {
        "normalization": result.normalization, **result.metadata,
    })


def cmd_trajectories(cfg: RunConfig, writer: ArtifactWriter):
    if cfg.dynamics.t_max / cfg.dynamics.dt > sys.maxsize:  # the step counts are numpy ints
        raise ConfigValidationError(
            f"field `dynamics.dt` splits `dynamics.t_max` into over {sys.maxsize} steps"
        )
    _sm, mdl = _build_model(cfg)
    _fits("dynamics.n_points", cfg.dynamics.n_points)
    t = np.linspace(0.0, cfg.dynamics.t_max, cfg.dynamics.n_points)
    t = dynamics.step_grid(t, cfg.dynamics.dt)
    if t.size < 2:
        raise ConfigValidationError("field `dynamics.t_max` rounds to zero steps of `dynamics.dt`")
    _fits("dynamics.n_trajectories",
          dynamics.sse_floats(mdl, t, cfg.dynamics.dt, cfg.dynamics.n_trajectories))
    n_total = hilbert.total_number_operator(mdl.space)
    rec = dynamics.sse_ensemble(
        mdl, hilbert.vacuum_state(mdl.space), t,
        n_trajectories=cfg.dynamics.n_trajectories, seed=cfg.dynamics.seed, dt=cfg.dynamics.dt,
        observables={"n_total": n_total},
    )
    photons = rec.observables["n_total"]  # [time, trajectory]
    labels = [f"traj_{k}" for k in range(photons.shape[1])]
    writer.write_csv("trajectories_photon.csv", {"t": t, **dict(zip(labels, photons.real.T))})
    pumped = [j for j, l in enumerate(mdl.lindblads) if l.pumped]
    if pumped:
        currents = rec.extras["homodyne_currents"][pumped[0]]  # [interval, trajectory]
        writer.write_csv("homodyne_pumped_channel.csv",
                         {"t_mid": (t[:-1] + t[1:]) / 2.0, **dict(zip(labels, currents.T))})
    mean, stderr = dynamics.ensemble_mean(photons)
    writer.write_csv("ensemble.csv", {"t": t, "mean_n_total": mean, "stderr_n_total": stderr})


def cmd_wigner(cfg: RunConfig, writer: ArtifactWriter):
    # per grid point, the 17 float64s of ``analysis.wigner``'s grids and Clenshaw terms
    _fits("wigner.points", cfg.wigner.points, cfg.wigner.points, 17)
    _state_fits(cfg)
    _sm, mdl = _build_model(cfg)
    # only the state at t_max is written, so no earlier output time is propagated
    rec = dynamics.evolve_master(
        mdl, hilbert.vacuum_state(mdl.space).to_density(), [0.0, cfg.dynamics.t_max],
        trace_tol=cfg.dynamics.tolerance,
    )
    rho1 = hilbert.partial_trace(rec.final_state, {0})
    grid = np.linspace(-cfg.wigner.x_max, cfg.wigner.x_max, cfg.wigner.points)
    wg = analysis.wigner(rho1, grid, grid)
    writer.write_csv("wigner.csv", {f"x_{j}": column for j, column in enumerate(wg.W.T)})
    writer.write_csv("wigner_axes.csv", {"index": np.arange(grid.size), "x": grid, "p": grid})
    writer.write_json("wigner_meta.json", {
        "convention": wg.convention,
        "integral": wg.integral(),
        "min_value": wg.min_value(),
        "time": float(rec.times[-1]),
    })


def cmd_fluxes(cfg: RunConfig, writer: ArtifactWriter):
    _state_fits(cfg)
    sm, mdl = _build_model(cfg)
    if cfg.model.family == "cw-single":
        raise ConfigValidationError("fluxes requires a comb model (family lossy or lossless)")
    rho = dynamics.steady_state(mdl, tol=cfg.dynamics.tolerance)
    writer.write_csv("flux_signal.csv", analysis.flux_spectrum_signal(rho, sm))
    pump = analysis.flux_spectrum_pump(rho, mdl, sm)  # columns q, flux, completeness
    if cfg.model.family == "lossy":
        pump["input_profile"] = analysis.pump_input_profile(sm, cfg.model.r, cfg.model.eta)
    writer.write_csv("flux_pump.csv", pump)


COMMANDS = {
    "build": cmd_build,
    "evolve": cmd_evolve,
    "steady": cmd_steady,
    "spectrum": cmd_spectrum,
    "trajectories": cmd_trajectories,
    "wigner": cmd_wigner,
    "fluxes": cmd_fluxes,
}


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spopo",
        description="Simulate pumped multimode OPO quantum dynamics in a supermode basis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON run config")
        p.add_argument("--seed", type=int, default=None, help="override dynamics.seed")
        p.add_argument("--out", default=None, help="override outputs.directory")
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    start = time.monotonic()
    try:
        cfg = load_config(args.config)
        if args.seed is not None:  # meets the file's rules; the manifest keeps the file's config
            raw = {**cfg.raw, "dynamics": {**cfg.raw.get("dynamics", {}), "seed": args.seed}}
            cfg = replace(validate_config(raw), raw=cfg.raw)
        out_dir = Path(args.out) if args.out else Path(cfg.outputs.directory)
        writer = ArtifactWriter(out_dir)
        COMMANDS[args.command](cfg, writer)
        writer.write_manifest(cfg, wall_time=time.monotonic() - start)
    except ConfigParseError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ConfigValidationError, SupermodeDataError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ConvergenceError as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    return 0


if __name__ == "__main__":
    sys.exit(main())
