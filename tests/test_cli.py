import itertools
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import spopo
from spopo import cli, dynamics, hilbert, supermode
from spopo.cli import main
from spopo.config import (
    ConfigValidationError, DynamicsConfig, WignerConfig, load_config, validate_config,
)
from spopo.supermode import SupermodeDataError

from oracles import linearized_spectrum

BASE_DISPERSION = {"beta1": 0.0, "beta2s": 0.01, "beta2p": 0.0025, "g0": 1.0, "M": 10}
BASE_SUPERMODE = {"Np": 4.0, "n_signal": 2, "k_max": 9, "odd_only": True}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def cw_config(tmp_path, outdir, **dynamics):
    payload = {
        "model": {"family": "cw-single", "p": 2.0, "cutoffs": [16]},
        "dynamics": {"t_max": 2.0, "n_points": 9, "dt": 0.001, "seed": 7, **dynamics},
        "wigner": {"x_max": 4.0, "points": 41},
        "outputs": {"directory": str(tmp_path / outdir)},
    }
    return write_config(tmp_path, payload, f"{outdir}.json")


def lossy_config(tmp_path, outdir, **dynamics):
    payload = {
        "dispersion": BASE_DISPERSION,
        "supermode": BASE_SUPERMODE,
        "model": {"family": "lossy", "r": 0.5, "eta": 1.0, "cutoffs": [3, 2]},
        "dynamics": {"omega_grid": [0.0, 1.0], **dynamics},
        "outputs": {"directory": str(tmp_path / outdir)},
    }
    return write_config(tmp_path, payload, f"{outdir}.json")


def run_python(*args, timeout=120, env=None):
    """``python <args>`` in a fresh interpreter that imports this checkout's spopo, with the
    variables ``env`` added to the environment."""
    path = [str(Path(spopo.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, **(env or {}), "PYTHONPATH": os.pathsep.join(filter(None, path))}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=timeout)


def lossy_config_text(tmp_path, field, literal):
    """A valid lossy config as JSON text, with ``field`` set to the raw JSON ``literal``."""
    payload = {
        "dispersion": dict(BASE_DISPERSION),
        "supermode": dict(BASE_SUPERMODE),
        "model": {"family": "lossy", "r": 0.5, "eta": 1.0, "cutoffs": [3, 2]},
        "dynamics": {"t_max": 1.0, "n_points": 3, "omega_grid": [0.0, 1.0]},
        "wigner": {"x_max": 4.0},
        "outputs": {"directory": str(tmp_path / "out")},
    }
    section, key = field.split(".")
    payload[section][key] = "@literal@"
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload).replace('"@literal@"', literal))
    return str(path)


def test_missing_family_names_field(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "model": {"p": 2.0, "cutoffs": [16]},
        "outputs": {"directory": str(tmp_path / "out")},
    })
    code = main(["evolve", "--config", cfg])
    assert code == 3
    assert "model.family" in capsys.readouterr().err


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    assert main(["evolve", "--config", str(bad)]) == 2
    assert "config error" in capsys.readouterr().err


def test_repeated_key_is_a_parse_error_naming_it(tmp_path, capsys):
    cfg = tmp_path / "repeated.json"
    cfg.write_text('{"model": {"family": "cw-single", "p": 2.0, "p": 0.5, "cutoffs": [8]}, '
                   f'"outputs": {{"directory": {json.dumps(str(tmp_path / "out"))}}}}}')
    assert main(["steady", "--config", str(cfg)]) == 2
    assert "key `p` is repeated" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_integer_past_the_digit_limit_is_a_parse_error(tmp_path, capsys):
    # json raises a plain ValueError, not a JSONDecodeError, for an int over 4300 digits
    cfg = lossy_config_text(tmp_path, "dynamics.seed", "1" * 5000)
    assert main(["steady", "--config", cfg]) == 2
    assert "config error" in capsys.readouterr().err


def test_config_that_is_not_utf8_is_a_parse_error(tmp_path, capsys):
    bad = tmp_path / "latin1.json"
    bad.write_bytes(b'{"outputs": {"directory": "x\xff"}}')
    assert main(["evolve", "--config", str(bad)]) == 2
    assert "config error" in capsys.readouterr().err


def test_unknown_key_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "model": {"family": "cw-single", "p": 2.0, "cutoffs": [16], "bogus": 1},
        "outputs": {"directory": str(tmp_path / "out")},
    })
    assert main(["evolve", "--config", cfg]) == 3
    assert "model.bogus" in capsys.readouterr().err
    cfg = write_config(tmp_path, {
        "model": {"family": "cw-single", "p": 2.0, "cutoffs": [16]},
        "outputs": {"directory": str(tmp_path / "out"), "artifacts": ["timeseries.csv"]},
    })
    assert main(["evolve", "--config", cfg]) == 3
    assert "unknown field `outputs.artifacts`" in capsys.readouterr().err


DROP = object()  # a ``payload_with`` edit that removes the key


def payload_with(tmp_path, edits):
    """A valid config payload with every section, changed by ``edits``: dotted name -> value
    or DROP."""
    payload = {
        "dispersion": dict(BASE_DISPERSION),
        "supermode": dict(BASE_SUPERMODE),
        "model": {"family": "lossy", "r": 0.5, "eta": 1.0, "cutoffs": [3, 2]},
        "dynamics": {"t_max": 1.0, "n_points": 3, "omega_grid": [0.0, 1.0]},
        "wigner": {"x_max": 4.0, "points": 41},
        "outputs": {"directory": str(tmp_path / "out")},
    }
    for name, value in edits.items():
        section, _, key = name.rpartition(".")
        target = payload[section] if section else payload
        if value is DROP:
            del target[key]
        else:
            target[key] = value
    return payload


def config_with(tmp_path, edits):
    """``payload_with(tmp_path, edits)`` written to a config file."""
    return write_config(tmp_path, payload_with(tmp_path, edits))


def rule(name, value, *more, field=None):
    """A case of ``test_each_config_rule_exits_3_naming_its_field``: the edit ``name`` =
    ``value`` (plus ``more`` name, value pairs), rejected naming ``field`` (default ``name``)."""
    edits = {name: value, **dict(zip(more[::2], more[1::2]))}
    label = ",".join(f"{k}={'missing' if v is DROP else json.dumps(v)}" for k, v in edits.items())
    return pytest.param(edits, field or name, id=label)


@pytest.mark.parametrize("edits, field", [
    # sections
    rule("bogus", {}),
    rule("outputs", DROP),
    rule("model", [1]),
    rule("dispersion", DROP),
    rule("supermode", DROP),
    rule("dispersion", 1),
    rule("supermode", "x"),
    rule("dynamics", [1]),
    rule("wigner", 3),
    rule("outputs", None),
    rule("model", None),
    rule("raw", {}),  # `RunConfig.raw` holds the file's config; it is not a section
    # missing required fields
    *(rule(f"dispersion.{key}", DROP) for key in BASE_DISPERSION),
    rule("supermode.Np", DROP),
    rule("supermode.n_signal", DROP),
    rule("supermode.k_max", DROP),
    rule("model.family", DROP),
    rule("model.cutoffs", DROP),
    rule("model.r", DROP),
    rule("model.eta", DROP),
    rule("model.family", "lossless", field="model.p"),
    rule("model.family", "cw-single", "model.cutoffs", [16], field="model.p"),
    rule("outputs.directory", DROP),
    # wrong types
    rule("dispersion.beta1", "0"),
    rule("dispersion.M", 10.0),
    rule("supermode.n_signal", True),
    rule("supermode.odd_only", 1),
    rule("supermode.parity_retention", 0),
    rule("model.family", 1),
    rule("model.cutoffs", 3),
    rule("model.cutoffs", [3, 2.0]),
    rule("model.cutoffs", [3, True]),
    rule("model.r", None),
    rule("dynamics.n_points", 3.5),
    rule("dynamics.omega_grid", 1.0),
    rule("dynamics.omega_grid", [0.0, "1"]),
    rule("wigner.points", "41"),
    rule("outputs.directory", 1),
    # ranges and enums
    rule("dispersion.M", -1),
    rule("dispersion.g0", 0.0),
    rule("supermode.Np", 0.0),
    rule("supermode.n_signal", 0),
    rule("supermode.k_max", 0),
    rule("supermode.parity_retention", "odd"),
    rule("supermode.parity_retention", "even"),
    rule("model.family", "cw"),
    rule("model.cutoffs", []),
    rule("model.cutoffs", [3, 1]),
    rule("model.eta", 0.0),
    rule("model.r", -0.1),
    rule("model.family", "lossless", "model.p", -1.0, field="model.p"),
    rule("model.family", "cw-single", "model.p", 2.0, field="model.cutoffs"),
    # fields the family does not read
    rule("model.p", 2.0),
    rule("model.family", "lossless", "model.p", 2.0, field="model.r"),
    rule("model.family", "lossless", "model.p", 2.0, "model.r", DROP, field="model.eta"),
    rule("model.family", "cw-single", "model.p", 2.0, "model.cutoffs", [16], field="model.r"),
    rule("dynamics.t_max", 0.0),
    rule("dynamics.dt", -1e-3),
    rule("dynamics.tolerance", 0.0),
    rule("dynamics.n_points", 1),
    rule("dynamics.n_points", 10**30),
    rule("dynamics.n_trajectories", 0),
    rule("dynamics.n_trajectories", 10**30),
    rule("dynamics.seed", -1),
    rule("wigner.x_max", 0.0),
    rule("wigner.points", 10),
    rule("wigner.points", 10**30),
    # unknown fields
    *(rule(f"{section}.bogus", 1)
      for section in ("dispersion", "supermode", "model", "dynamics", "wigner", "outputs")),
    # across sections
    rule("model.cutoffs", [3]),
    rule("dispersion.beta1", 0.1, field="supermode.odd_only"),
    rule("supermode.parity_retention", "magnitude", field="supermode.odd_only"),
    rule("dispersion.M", 1, field="supermode.k_max"),
    rule("dispersion.M", 1, "supermode.k_max", 5, "supermode.n_signal", 3,
         "model.cutoffs", [3, 2, 2], field="supermode.n_signal"),
    # the desk's 21 signal rows hold 9 of definite even parity, not M + 1 = 11
    rule("supermode.n_signal", 10, "model.cutoffs", [2] * 10),
    rule("dispersion.beta2p", 1.0),  # the label-1 coupling's leading eigenvalue is negative
    # the sampled pump basis is not finite: overflow times a vanishing Gaussian, and a
    # normalization beyond float range
    rule("dispersion.M", 100, "supermode.k_max", 160, field="supermode.k_max"),
    rule("supermode.Np", 1e-300),
    rule("dispersion.M", 43, "supermode.k_max", 172, field="supermode.k_max"),
])
def test_each_config_rule_exits_3_naming_its_field(tmp_path, capsys, edits, field):
    assert main(["build", "--config", config_with(tmp_path, edits)]) == 3
    assert f"`{field}`" in capsys.readouterr().err


@pytest.mark.parametrize("seed", [-1, 10**30], ids=["-1", "10**30"])
def test_negative_seed_override_exits_3(tmp_path, capsys, seed):
    # the override meets every rule of the file's `dynamics.seed`, the int range too
    cfg = cw_config(tmp_path, "seed")
    assert main(["trajectories", "--config", cfg, "--seed", str(seed)]) == 3
    assert "field `dynamics.seed` must be" in capsys.readouterr().err
    assert not (tmp_path / "seed").exists()


@pytest.mark.parametrize("edits", [
    {"dispersion.M": 0},
    {"supermode.n_signal": 1, "model.cutoffs": [2]},
    {"supermode.k_max": 1},
    {"model.cutoffs": [2, 2]},
    {"model.r": 0.0},
    {"model.family": "lossless", "model.r": DROP, "model.eta": DROP, "model.p": 0.0},
    {"dynamics.n_points": 2},
    {"dynamics.n_trajectories": 1},
    {"dynamics.seed": 0},
    {"wigner.points": 11},
], ids=lambda edits: ",".join(f"{k}={json.dumps(v)}" for k, v in edits.items() if v is not DROP))
def test_value_at_an_inclusive_bound_loads(tmp_path, edits):
    cfg = validate_config(payload_with(tmp_path, edits))
    for name, value in edits.items():
        section, key = name.split(".")
        if value is not DROP:
            loaded = getattr(getattr(cfg, section), key)
            assert loaded == (tuple(value) if isinstance(value, list) else value)


@pytest.mark.parametrize("command, edits", [
    ("spectrum", {"dynamics.omega_grid": DROP}),
    ("fluxes", {"model": {"family": "cw-single", "p": 2.0, "cutoffs": [16]}}),
    ("build", {"supermode.k_max": 42}),
], ids=["spectrum-without-omega-grid", "fluxes-on-cw-single", "build-k-max-above-pump-lines"])
def test_command_failing_validation_leaves_no_output_directory(tmp_path, capsys, command, edits):
    # the rule is checked once the command has built its model, after the config loaded
    assert main([command, "--config", config_with(tmp_path, edits)]) == 3
    assert "validation error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


SUPERMODE_GRID = list(itertools.product(
    (1, 10),  # dispersion.M
    (0.0, 0.05),  # dispersion.beta1
    (0.0025, 1.0),  # dispersion.beta2p
    (4.0, 0.05),  # supermode.Np
    (3, 9),  # supermode.k_max
    (1, 3, 10),  # supermode.n_signal
    (True, False),  # supermode.odd_only
    ("auto", "magnitude"),  # supermode.parity_retention
))


def test_every_supermode_section_builds_or_exits_3():
    # each section either builds its set or fails with an error `main` maps to exit 3;
    # any other exception would be a traceback with exit 1
    built = 0
    for M, beta1, beta2p, Np, k_max, n_signal, odd_only, retention in SUPERMODE_GRID:
        try:
            cfg = validate_config({
                "dispersion": {**BASE_DISPERSION, "M": M, "beta1": beta1, "beta2p": beta2p},
                "supermode": {"Np": Np, "k_max": k_max, "n_signal": n_signal,
                              "odd_only": odd_only, "parity_retention": retention},
                "outputs": {"directory": "unused"},
            })
            built += cli._build_supermodes(cfg).n_signal == n_signal
        except (ConfigValidationError, SupermodeDataError):
            pass
    assert len(SUPERMODE_GRID) == 384 and 0 < built < 384


def test_omitted_dynamics_and_wigner_load_their_defaults(tmp_path):
    cfg = load_config(config_with(tmp_path, {"dynamics": DROP, "wigner": DROP}))
    assert cfg.dynamics == DynamicsConfig()
    assert cfg.wigner == WignerConfig()


@pytest.mark.parametrize("key, value", [("tau_max", 20.0)])
def test_deprecated_dynamics_field_loads_with_one_future_warning(tmp_path, capsys, key, value):
    payload = {
        "model": {"family": "cw-single", "p": 2.0, "cutoffs": [16]},
        "dynamics": {key: value, "omega_grid": [0.0]},
        "outputs": {"directory": str(tmp_path / "out")},
    }
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cfg = load_config(write_config(tmp_path, payload))
    assert [type(w.message) for w in caught] == [FutureWarning]
    assert f"dynamics.{key}" in str(caught[0].message)
    assert not hasattr(cfg.dynamics, key)
    payload["dynamics"]["bogus"] = 1
    with pytest.warns(FutureWarning, match=f"dynamics.{key}"):
        assert main(["evolve", "--config", write_config(tmp_path, payload)]) == 3
    assert "unknown field `dynamics.bogus`" in capsys.readouterr().err


def test_removed_dynamics_method_exits_3_naming_it(tmp_path, capsys):
    # the steady state has one method, so `method` is no longer read, not even to be dropped
    payload = {
        "model": {"family": "cw-single", "p": 2.0, "cutoffs": [16]},
        "dynamics": {"method": "null-space"},
        "outputs": {"directory": str(tmp_path / "out")},
    }
    assert main(["steady", "--config", write_config(tmp_path, payload)]) == 3
    assert "unknown field `dynamics.method`" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("field, literal", [
    ("model.r", "NaN"),
    ("model.eta", "Infinity"),
    ("supermode.Np", "Infinity"),
    pytest.param("dispersion.g0", "1" + "0" * 400, id="dispersion.g0-10**400"),  # > float max
    ("dynamics.tolerance", "NaN"),
    ("dynamics.omega_grid", "[0, NaN]"),
    ("dynamics.dt", "Infinity"),
    ("wigner.x_max", "1e999"),  # json reads it as inf
])
def test_non_finite_number_is_a_validation_error(tmp_path, capsys, field, literal):
    assert main(["evolve", "--config", lossy_config_text(tmp_path, field, literal)]) == 3
    err = capsys.readouterr().err
    assert f"field `{field}`" in err and "finite" in err


def test_nan_t_max_exits_3_promptly(tmp_path):
    # unchecked, t_max NaN handed the integrator a NaN time span and evolve never returned
    cfg = lossy_config_text(tmp_path, "dynamics.t_max", "NaN")
    proc = run_python("-m", "spopo.cli", "evolve", "--config", cfg, timeout=60)
    assert proc.returncode == 3
    assert "field `dynamics.t_max` must be finite" in proc.stderr


# the propagator's Bessel coefficients and the pump rows' Hermite polynomials are numpy's own
DEFERRED = {"scipy.integrate", "scipy.sparse.linalg", "scipy.special"}


def test_cli_import_defers_integrate_and_krylov():
    proc = run_python("-c", f"import sys, spopo.cli; print(sorted({DEFERRED} & set(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


SOLVES = DEFERRED | {"scipy.linalg"}


@pytest.mark.parametrize("command, unused, config", [
    ("trajectories", DEFERRED, cw_config),
    ("steady", SOLVES, cw_config),
    ("evolve", SOLVES, cw_config),
    ("wigner", SOLVES, cw_config),
    ("fluxes", SOLVES, lossy_config),
    ("spectrum", SOLVES, lossy_config),
], ids=["trajectories", "steady", "evolve", "wigner", "fluxes", "spectrum"])
def test_op_never_imports_what_it_does_not_run(tmp_path, command, unused, config):
    probe = ("import sys; from spopo import cli; code = cli.main(sys.argv[1:]); "
             f"print(code, sorted({unused} & set(sys.modules)))")
    proc = run_python("-c", probe, command, "--config", config(tmp_path, command))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0 []"


def test_nan_generator_exits_4_promptly(tmp_path):
    probe = ("import sys, numpy as np; from spopo import cli, dynamics; "
             "dynamics._MasterRHS.apply = lambda self, rho, sign=1: np.full_like(rho, np.nan); "
             "sys.exit(cli.main(sys.argv[1:]))")
    proc = run_python("-c", probe, "evolve", "--config", cw_config(tmp_path, "nan"), timeout=60)
    assert proc.returncode == 4
    assert "Chebyshev propagator diverged" in proc.stderr


def artifacts_by_blas_threads(tmp_path, command, dynamics, cutoffs=(10, 5, 3)):
    """Every artifact that ``command`` writes on the desk comb at ``cutoffs`` (d=150 by
    default) as {name: bytes}, run with one and with two OpenBLAS/OMP threads; not
    ``manifest.json``, which records the wall time."""
    written = []
    for threads in ("1", "2"):
        payload = {
            "dispersion": BASE_DISPERSION,
            "supermode": {**BASE_SUPERMODE, "n_signal": 3},
            "model": {"family": "lossy", "r": 1.19, "eta": 1.0, "cutoffs": list(cutoffs)},
            "dynamics": dynamics,
            "outputs": {"directory": str(tmp_path / threads)},
        }
        cfg = write_config(tmp_path, payload, f"threads{threads}.json")
        env = {name: threads for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        proc = run_python("-m", "spopo.cli", command, "--config", cfg, env=env)
        assert proc.returncode == 0, proc.stderr
        written.append({path.name: path.read_bytes() for path in (tmp_path / threads).iterdir()
                        if path.name != "manifest.json"})
    return written


def test_evolve_bits_do_not_depend_on_the_blas_thread_count(tmp_path):
    # d=150, where summing RK45 stages through BLAS once moved timeseries.csv by round-off
    one, two = artifacts_by_blas_threads(tmp_path, "evolve", {"t_max": 5.0, "n_points": 51})
    assert one == two and "timeseries.csv" in one


def test_trajectories_bits_do_not_depend_on_the_blas_thread_count(tmp_path):
    one, two = artifacts_by_blas_threads(
        tmp_path, "trajectories",
        {"t_max": 0.5, "n_points": 6, "dt": 1e-3, "n_trajectories": 4, "seed": 5})
    assert one == two and "homodyne_pumped_channel.csv" in one


def test_steady_and_spectrum_bits_do_not_depend_on_the_blas_thread_count(tmp_path):
    # d=150, where BLAS Gram-Schmidt products and norms once moved both by round-off, and
    # LAPACK eigvalsh on the whole state moved steady_summary.json's min_eigenvalue at d=150
    # and d=288; on the parity blocks (75 and 144 indices) it did not
    spectrum = {"omega_grid": np.linspace(0.0, 6.0, 31).tolist(), "channel_index": 1,
                "channel_phase_deg": -30.0}
    for command, dynamics, cutoffs, name in (
            ("steady", {}, (10, 5, 3), "steady_summary.json"),
            ("steady", {}, (12, 6, 4), "steady_summary.json"),
            ("spectrum", spectrum, (10, 5, 3), "spectrum.csv")):
        work = tmp_path / f"{command}{math.prod(cutoffs)}"
        work.mkdir()
        one, two = artifacts_by_blas_threads(work, command, dynamics, cutoffs)
        assert one == two and name in one, work.name


def test_fluxes_wigner_and_build_bits_do_not_depend_on_the_blas_thread_count(tmp_path):
    for command, dynamics, name in (("fluxes", {}, "flux_pump.csv"),
                                    ("wigner", {"t_max": 5.0, "n_points": 51}, "wigner.csv"),
                                    ("build", {}, "tensors.csv")):
        (tmp_path / command).mkdir()
        one, two = artifacts_by_blas_threads(tmp_path / command, command, dynamics)
        assert one == two and name in one, command


def test_convergence_failure_exit_code(tmp_path, capsys):
    cfg = cw_config(tmp_path, "unstable", dt=0.5, t_max=5.0)
    assert main(["trajectories", "--config", cfg]) == 4
    assert "convergence" in capsys.readouterr().err


def test_single_trajectory_writes_nan_stderr_without_warning(tmp_path):
    cfg = cw_config(tmp_path, "single")  # n_trajectories unset: one trajectory
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["trajectories", "--config", cfg]) == 0
    rows = (tmp_path / "single" / "ensemble.csv").read_text().splitlines()
    assert rows[0] == "t,mean_n_total,stderr_n_total"
    assert len(rows) == 10
    assert all(row.split(",")[2] == "nan" for row in rows[1:])


def test_trajectories_snap_output_times_to_dt(tmp_path):
    cfg = cw_config(tmp_path, "snapped", dt=0.01, t_max=1.0, n_points=7)
    assert main(["trajectories", "--config", cfg]) == 0
    rows = (tmp_path / "snapped" / "trajectories_photon.csv").read_text().splitlines()[1:]
    times = np.array([float(r.split(",")[0]) for r in rows])
    assert np.allclose(times, [0.0, 0.17, 0.33, 0.5, 0.67, 0.83, 1.0], atol=1e-12)


@pytest.mark.parametrize("t_max, dt, field", [
    (1e-4, 1e-3, "dynamics.t_max"),
    (1e-9, 1e-3, "dynamics.t_max"),  # every point within GRID_ALIGN_TOL of step 0
    (1.0, 1e-300, "dynamics.dt"),  # more steps than an int holds
])
def test_trajectories_with_too_few_or_too_many_steps_exit_3(tmp_path, capsys, t_max, dt, field):
    payload = {
        "model": {"family": "cw-single", "p": 2.0, "cutoffs": [8]},
        "dynamics": {"t_max": t_max, "dt": dt, "n_points": 3},
        "outputs": {"directory": str(tmp_path / "out")},
    }
    assert main(["trajectories", "--config", write_config(tmp_path, payload)]) == 3
    assert f"`{field}`" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, section, key, value", [
    ("evolve", "dynamics", "n_points", 10**18),  # 8 EB of output times
    ("evolve", "dynamics", "n_points", sys.maxsize),  # more bytes than an index holds
    ("wigner", "wigner", "points", 10**18),
    ("trajectories", "dynamics", "n_trajectories", 10**18),
    ("steady", "model", "cutoffs", [10**6]),  # a 7.3 TiB d x d state
    ("evolve", "model", "cutoffs", [10**6]),
    ("wigner", "model", "cutoffs", [10**6]),
    ("trajectories", "model", "cutoffs", [10**18]),  # an 8 EB occupation table
    ("spectrum", "model", "cutoffs", [10**18]),
    ("fluxes", "model", "cutoffs", [10**18]),
], ids=["evolve-n_points", "evolve-n_points-maxsize", "wigner-points", "trajectories-count",
        "steady-cutoffs", "evolve-cutoffs", "wigner-cutoffs", "trajectories-cutoffs",
        "spectrum-cutoffs", "fluxes-cutoffs"])
def test_grid_no_array_holds_exits_3_naming_its_field(tmp_path, capsys, command, section, key,
                                                       value):
    # each grid's bytes, and the model's occupation table and d x d state, are checked against
    # the machine's memory before any solve or model build, allocating nothing
    payload = {
        "model": {"family": "cw-single", "p": 2.0, "cutoffs": [2]},
        "dynamics": {"t_max": 1.0, "n_points": 3},
        "outputs": {"directory": str(tmp_path / "out")},
    }
    payload.setdefault(section, {})[key] = value
    assert main([command, "--config", write_config(tmp_path, payload)]) == 3
    assert f"`{section}.{key}`" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_build_artifacts_and_manifest(tmp_path):
    out = tmp_path / "build_out"
    cfg = write_config(tmp_path, {
        "dispersion": BASE_DISPERSION,
        "supermode": BASE_SUPERMODE,
        "outputs": {"directory": str(out)},
    })
    assert main(["build", "--config", cfg]) == 0
    for name in ("coupling_matrix.csv", "pump_basis.csv", "signal_basis.csv",
                 "tensors.csv", "eigenvalues.csv", "supermode_summary.json",
                 "manifest.json"):
        assert (out / name).exists(), name
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 1
    import hashlib
    for fname, digest in manifest["artifacts"].items():
        assert hashlib.sha256((out / fname).read_bytes()).hexdigest() == digest


def test_trajectories_and_wigner_deterministic(tmp_path):
    cfg_a = cw_config(tmp_path, "run_a", n_trajectories=3)
    cfg_b = cw_config(tmp_path, "run_b", n_trajectories=3)
    assert main(["trajectories", "--config", cfg_a]) == 0
    with pytest.warns(UserWarning, match="Wigner grid integral"):
        assert main(["wigner", "--config", cfg_a, "--out", str(tmp_path / "run_a")]) == 0
    assert main(["trajectories", "--config", cfg_b]) == 0
    with pytest.warns(UserWarning, match="Wigner grid integral"):
        assert main(["wigner", "--config", cfg_b, "--out", str(tmp_path / "run_b")]) == 0
    for name in ("trajectories_photon.csv", "homodyne_pumped_channel.csv",
                 "ensemble.csv", "wigner.csv", "wigner_axes.csv"):
        a = (tmp_path / "run_a" / name).read_bytes()
        b = (tmp_path / "run_b" / name).read_bytes()
        assert a == b, f"{name} not byte-identical"


def test_seed_override_changes_trajectories(tmp_path):
    cfg = cw_config(tmp_path, "seeded", n_trajectories=2)
    assert main(["trajectories", "--config", cfg]) == 0
    first = (tmp_path / "seeded" / "trajectories_photon.csv").read_bytes()
    unseeded = json.loads((tmp_path / "seeded" / "manifest.json").read_text())
    assert main(["trajectories", "--config", cfg, "--seed", "99"]) == 0
    second = (tmp_path / "seeded" / "trajectories_photon.csv").read_bytes()
    assert first != second
    manifest = json.loads((tmp_path / "seeded" / "manifest.json").read_text())
    assert manifest["seed"] == 99
    # the manifest records the config file as written, not the override
    assert manifest["config"] == json.loads(Path(cfg).read_text())
    assert manifest["config_sha256"] == unseeded["config_sha256"]


def test_spectrum_pipeline_matches_linearized(tmp_path):
    out = tmp_path / "spec_out"
    omega = list(np.linspace(-5, 5, 11))
    cfg = write_config(tmp_path, {
        "dispersion": BASE_DISPERSION,
        "supermode": {"Np": 4.0, "n_signal": 1, "k_max": 9, "odd_only": True},
        "model": {"family": "lossy", "r": 0.5, "eta": 0.001, "cutoffs": [16]},
        "dynamics": {"omega_grid": omega, "seed": 3},
        "outputs": {"directory": str(out)},
    })
    assert main(["spectrum", "--config", cfg]) == 0
    rows = (out / "spectrum.csv").read_text().strip().splitlines()
    assert rows[0] == "omega,S"
    data = np.array([[float(v) for v in row.split(",")] for row in rows[1:]])
    expected = linearized_spectrum(0.5, 1.0, data[:, 0])
    assert np.max(np.abs(data[:, 1] / expected - 1.0)) < 0.05


@pytest.mark.parametrize("command", ["steady", "spectrum"])
def test_impossible_steady_state_tolerance_exits_4(tmp_path, capsys, command):
    # spectrum solves its steady state with the config's tolerance, as steady does
    cfg = lossy_config(tmp_path, command, tolerance=1e-30)
    assert main([command, "--config", cfg]) == 4
    assert "tol 1e-30" in capsys.readouterr().err


def test_spectrum_rejects_lossless(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "model": {"family": "cw-single", "p": 2.0, "cutoffs": [16]},
        "dynamics": {"omega_grid": [0.0]},
        "outputs": {"directory": str(tmp_path / "out")},
    })
    assert main(["spectrum", "--config", cfg]) == 3
    assert "linear loss" in capsys.readouterr().err


def test_fluxes_command(tmp_path):
    out = tmp_path / "flux_out"
    cfg = write_config(tmp_path, {
        "dispersion": BASE_DISPERSION,
        "supermode": BASE_SUPERMODE,
        "model": {"family": "lossy", "r": 0.8, "eta": 1.0, "cutoffs": [7, 4]},
        "outputs": {"directory": str(out)},
    })
    assert main(["fluxes", "--config", cfg]) == 0
    pump_rows = (out / "flux_pump.csv").read_text().strip().splitlines()
    assert pump_rows[0] == "q,flux,completeness,input_profile"
    data = {int(r.split(",")[0]): [float(v) for v in r.split(",")[1:]]
            for r in pump_rows[1:]}
    flux0, _comp, profile0 = data[0]
    assert flux0 < profile0  # pump depletion at the center line
    signal_rows = (out / "flux_signal.csv").read_text().strip().splitlines()
    assert signal_rows[0] == "m,flux"
    assert len(signal_rows) == 22


def test_evolve_and_steady_commands(tmp_path):
    out = tmp_path / "evo_out"
    cfg = write_config(tmp_path, {
        "model": {"family": "cw-single", "p": 2.0, "cutoffs": [14]},
        "dynamics": {"t_max": 2.0, "n_points": 5},
        "outputs": {"directory": str(out)},
    })
    assert main(["evolve", "--config", cfg]) == 0
    rows = (out / "timeseries.csv").read_text().strip().splitlines()
    assert rows[0] == "t,n_1,n_total"
    assert main(["steady", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "steady_summary.json").read_text())
    assert abs(summary["trace"] - 1.0) < 1e-8
    assert summary["purity"] > 0.99  # lossless cw steady state is the pure cat


def test_steady_lossless_two_mode_matches_the_long_time_reference(tmp_path):
    # with k_max 1 each mode keeps its own photon-number parity; the even total-parity block
    # also holds a steady state the vacuum never reaches, at <n_1> = 1.5989 against 1.3214
    cfg = write_config(tmp_path, {
        "dispersion": BASE_DISPERSION,
        "supermode": {**BASE_SUPERMODE, "k_max": 1},
        "model": {"family": "lossless", "p": 2.0, "cutoffs": [6, 6]},
        "outputs": {"directory": str(tmp_path / "out")},
    })
    assert main(["steady", "--config", cfg]) == 0
    summary = json.loads((tmp_path / "out" / "steady_summary.json").read_text())
    _sm, mdl = cli._build_model(load_config(cfg))
    rho = dynamics.steady_state(mdl, method="long-time")
    for name, op in cli._photon_observables(mdl.space).items():
        want = hilbert.expectation(op, rho).real
        assert summary["photon_numbers"][name] == pytest.approx(want, abs=1e-6)


def test_steady_summary_reports_cat_fidelity_on_cw_single_only(tmp_path):
    # the lossless cw steady state is the even cat at +/- i sqrt(p): 0.99999993 at cutoff 16
    assert main(["steady", "--config", cw_config(tmp_path, "cw")]) == 0
    summary = json.loads((tmp_path / "cw" / "steady_summary.json").read_text())
    assert summary["cat_fidelity"] == pytest.approx(1.0, abs=1e-6)
    assert main(["steady", "--config", lossy_config(tmp_path, "comb")]) == 0
    summary = json.loads((tmp_path / "comb" / "steady_summary.json").read_text())
    assert "cat_fidelity" not in summary


def test_cutoffs_must_match_n_signal(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "dispersion": BASE_DISPERSION,
        "supermode": BASE_SUPERMODE,
        "model": {"family": "lossy", "r": 0.5, "eta": 1.0, "cutoffs": [7]},
        "outputs": {"directory": str(tmp_path / "out")},
    })
    assert main(["evolve", "--config", cfg]) == 3
    assert "cutoffs" in capsys.readouterr().err


def test_odd_only_needs_parity_symmetric_dispersion(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "dispersion": {**BASE_DISPERSION, "beta1": 0.1},
        "supermode": BASE_SUPERMODE,
        "outputs": {"directory": str(tmp_path / "out")},
    })
    assert main(["build", "--config", cfg]) == 3
    assert "supermode.odd_only" in capsys.readouterr().err


def test_supermode_data_failures_exit_3_naming_np_and_k_max(tmp_path, capsys, monkeypatch):
    # Np = 0.05 is far too narrow for k_max = 9 Hermite-Gaussian rows on the pump grid
    cfg = write_config(tmp_path, {
        "dispersion": BASE_DISPERSION,
        "supermode": {**BASE_SUPERMODE, "Np": 0.05},
        "outputs": {"directory": str(tmp_path / "out")},
    })
    assert main(["build", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert "numerically dependent" in err
    assert "supermode.Np" in err and "supermode.k_max" in err

    def negated(Fp, T):
        return [-g for g in coupling_tensors(Fp, T)]

    coupling_tensors = supermode.coupling_tensors
    monkeypatch.setattr(supermode, "coupling_tensors", negated)
    cfg = write_config(tmp_path, {
        "dispersion": BASE_DISPERSION,
        "supermode": BASE_SUPERMODE,
        "outputs": {"directory": str(tmp_path / "out")},
    })
    assert main(["build", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert "retained leading eigenvalue is not positive" in err
    assert "supermode.Np" in err and "supermode.k_max" in err


def test_internal_value_error_is_not_a_validation_error(tmp_path, monkeypatch):
    def broken(_cfg, _writer):
        raise ValueError("internal defect")

    monkeypatch.setitem(cli.COMMANDS, "evolve", broken)
    cfg = cw_config(tmp_path, "broken")
    with pytest.raises(ValueError, match="internal defect"):
        main(["evolve", "--config", cfg])
