"""Child-process entry points of the benchmark (run with ``src`` on PYTHONPATH).

    python3 perfbench/child.py setup <config.json>
        Import ``spopo.cli``, load the config and build its supermodes and
        model as every CLI op does, then exit: the set-up a CLI op pays.

    python3 perfbench/child.py trace <spans.json> <spopo arguments...>
        Import spopo and run ``spopo <arguments>`` in-process with spans
        around the public functions of each module; write the spans.
"""

import importlib
import json
import sys
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import Tracer, to_records  # noqa: E402


def build_for_config(path: str):
    """The op's supermodes and model, built by the CLI's own code path."""
    from spopo import cli

    return cli._build_model(cli.load_config(path))


def _count_model(counts, _args, _kwargs, mdl):
    counts["dim"] = mdl.space.dim
    counts["nnz"] = mdl.H.matrix.nnz + sum(l.op.matrix.nnz for l in mdl.lindblads)


def _count_spectrum(counts, args, _kwargs, result):
    counts["stored_bytes"] = result.metadata["n_tau"] * 16 * args[0].space.dim ** 2


def _count_rho(counts, args, _kwargs, _result):
    counts["rho_bytes"] = 16 * args[0].space.dim ** 2


def _count_sse(counts, args, kwargs, _result):
    counts["steps"] = round(float(args[2][-1]) / kwargs.get("dt", 1e-3))


def _count_written(counts, args, _kwargs, _result):
    writer = args[0]
    name = args[1] if len(args) > 1 and isinstance(args[1], str) else "manifest.json"
    counts["bytes"] = (writer.directory / name).stat().st_size


def install_layers(tracer: Tracer):
    """Span every public function the CLI reaches, named ``module.function``."""
    from spopo import analysis, cli, dynamics, hilbert, model, supermode

    layers = [
        (cli, "load_config", "config.load_config", None),
        (supermode, "build_supermodes", "supermode.build_supermodes", None),
        (supermode, "single_mode_set", "supermode.single_mode_set", None),
        (model, "build_spopo", "model.build", _count_model),
        (model, "build_lossless", "model.build", _count_model),
        (dynamics, "steady_state", "dynamics.steady_state", None),
        (dynamics, "homodyne_spectrum", "dynamics.homodyne_spectrum", _count_spectrum),
        (dynamics, "evolve_master", "dynamics.evolve_master", _count_rho),
        (dynamics, "sse_ensemble", "dynamics.sse_ensemble", None),
        (dynamics, "sse_trajectory", "dynamics.sse_trajectory", _count_sse),
        (dynamics, "ensemble_mean", "dynamics.ensemble_mean", None),
        (analysis, "wigner", "analysis.wigner", None),
        (analysis, "flux_spectrum_signal", "analysis.flux", None),
        (analysis, "flux_spectrum_pump", "analysis.flux", None),
        (analysis, "pump_input_profile", "analysis.flux", None),
        (analysis, "purity", "analysis.purity", None),
        (hilbert, "partial_trace", "hilbert.partial_trace", None),
        (hilbert, "expectation", "hilbert.expectation", None),
        (hilbert, "vacuum_state", "hilbert.vacuum_state", None),
        (hilbert, "number_operator", "hilbert.operators", None),
        (hilbert, "total_number_operator", "hilbert.operators", None),
        (hilbert.DensityOperator, "min_eigenvalue", "hilbert.min_eigenvalue", None),
        (cli.ArtifactWriter, "write_csv", "cli.write", _count_written),
        (cli.ArtifactWriter, "write_json", "cli.write", _count_written),
        (cli.ArtifactWriter, "write_manifest", "cli.write", _count_written),
    ]
    for owner, attr, name, count in layers:
        tracer.wrap(owner, attr, name, count)


def run_traced(spans_path: str, cli_args: list[str]) -> int:
    """One op as the frame span ``op`` holding ``cli.import`` and ``cli.main``."""
    tracer = Tracer()
    root = tracer.open("op")
    status = 1
    try:
        cli = tracer.call("cli.import", importlib.import_module, "spopo.cli")
        install_layers(tracer)
        status = tracer.call("cli.main", cli.main, cli_args)
    except Exception:  # the op's own failure: report it like the CLI's exit 1
        traceback.print_exc()
    finally:
        tracer.unwrap_all()
        tracer.close(root)
    Path(spans_path).write_text(json.dumps({"spans": to_records(tracer.spans)}))
    return status


def main(argv: list[str]) -> int:
    if argv[:1] == ["setup"] and len(argv) == 2:
        build_for_config(argv[1])
        return 0
    if argv[:1] == ["trace"] and len(argv) > 2:
        return run_traced(argv[1], argv[2:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
