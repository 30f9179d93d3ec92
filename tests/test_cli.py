import json
import warnings

import numpy as np
import pytest

from spopo import cli
from spopo.cli import main
from spopo.config import load_config
from spopo.model import linearized_spectrum

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


def test_deprecated_tau_max_loads_with_one_future_warning(tmp_path, capsys):
    payload = {
        "model": {"family": "cw-single", "p": 2.0, "cutoffs": [16]},
        "dynamics": {"tau_max": 20.0, "omega_grid": [0.0]},
        "outputs": {"directory": str(tmp_path / "out")},
    }
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cfg = load_config(write_config(tmp_path, payload))
    assert [type(w.message) for w in caught] == [FutureWarning]
    assert "dynamics.tau_max" in str(caught[0].message)
    assert not hasattr(cfg.dynamics, "tau_max")
    payload["dynamics"]["bogus"] = 1
    with pytest.warns(FutureWarning, match="dynamics.tau_max"):
        assert main(["evolve", "--config", write_config(tmp_path, payload)]) == 3
    assert "unknown field `dynamics.bogus`" in capsys.readouterr().err


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
    assert main(["trajectories", "--config", cfg, "--seed", "99"]) == 0
    second = (tmp_path / "seeded" / "trajectories_photon.csv").read_bytes()
    assert first != second
    manifest = json.loads((tmp_path / "seeded" / "manifest.json").read_text())
    assert manifest["seed"] == 99


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


def test_internal_value_error_is_not_a_validation_error(tmp_path, monkeypatch):
    def broken(_cfg, _writer, _seed):
        raise ValueError("internal defect")

    monkeypatch.setitem(cli.COMMANDS, "evolve", broken)
    cfg = cw_config(tmp_path, "broken")
    with pytest.raises(ValueError, match="internal defect"):
        main(["evolve", "--config", cfg])
