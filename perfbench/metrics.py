"""Metric catalogue of the benchmark, the single source for ``BENCHMARK.json``.

End-to-end metrics are printed by every untraced run on every workload; the
per-layer metrics by every traced run (0 where a workload never reaches the
layer).
"""

import re
import statistics

# spans that frame an op rather than name a layer: their self time is unattributed
FRAME_SPANS = ("op", "cli.main")
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
COMMANDS = ("steady", "fluxes", "spectrum", "evolve", "wigner", "trajectories")

# name, unit, better, bound (share of the parent's median)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("run_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("ops_passed_frac", "frac", "higher", 0.1),
)

_SPANNED = (
    # span name, metrics derived from it
    ("config.load_config", ("s",)),
    ("supermode.build_supermodes", ("s",)),
    ("model.build", ("s",)),
    ("dynamics.steady_state", ("self_s", "calls", "rss_mb")),
    ("dynamics.homodyne_spectrum", ("self_s", "rss_mb")),
    ("dynamics.evolve_master", ("s", "calls")),
    ("dynamics.sse_trajectory", ("s", "calls")),
    ("analysis.wigner", ("s", "calls")),
    ("analysis.flux", ("s", "calls")),
    ("analysis.purity", ("s", "calls")),
    ("hilbert.partial_trace", ("s", "calls")),
    ("hilbert.expectation", ("s", "calls")),
    ("cli.write", ("s",)),
)
_UNITS = {"s": "s", "self_s": "s", "calls": "count", "rss_mb": "MB"}

PER_LAYER = (
    ("cli.import_s", "s", "lower"),
    *((f"{span}.{kind}", _UNITS[kind], "lower") for span, kinds in _SPANNED for kind in kinds),
    ("model.dim", "count", "lower"),
    ("model.operator_nnz", "count", "lower"),
    ("dynamics.homodyne_spectrum.stored_bytes", "B", "lower"),
    ("dynamics.rho_bytes", "B", "lower"),
    ("dynamics.sse_steps_per_s", "1/s", "higher"),
    ("cli.bytes_written", "B", "lower"),
    *((f"cli.{cmd}.{kind}", unit, better)
      for cmd in COMMANDS
      for kind, unit, better in (("s", "s", "lower"), ("rss_mb", "MB", "lower"),
                                 ("n", "count", "higher"))),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
    ("trace.coverage_frac", "frac", "higher"),
)


def benchmark_spec() -> dict:
    """The content of ``BENCHMARK.json`` apart from the workloads."""
    return {
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def end_to_end(setup_walls: dict, samples) -> dict:
    """The untraced run's metrics from its set-up probes and op samples.

    ``setup_s`` is the median, over the run's distinct models, of each model's
    fastest set-up probe (``setup_walls`` maps a model to its probe times).

    ``run_s`` sums, over the workload's ops, each op's fastest wall time in the
    run's passes: the host alternates between normal and ~1.6x slower phases
    lasting seconds, and a best-of-passes time does not depend on how much of
    a run such a phase happened to cover.
    """
    passed = sum(1 for s in samples if not s.failures)
    best = {}
    for s in samples:
        best[s.name] = min(best.get(s.name, s.wall_s), s.wall_s)
    values = {
        "setup_s": median([min(walls) for walls in setup_walls.values()]),
        "run_s": sum(best.values()),
        "peak_rss_mb": max(s.rss_kb for s in samples) / 1024.0,
        "ops_passed_frac": passed / len(samples),
    }
    return {n: {"value": values[n], "unit": u} for n, u, _b, _bound in END_TO_END}


def per_layer(traced, samples) -> dict:
    """Per-layer metrics from traced ops (dicts with ``spans`` and ``wall_s``) and the
    untraced op samples of the same run.

    ``trace.coverage_frac`` is, for the worst op, the share of its in-process
    time (import and ``cli.main``) spent inside named layer spans.
    """
    from tracing import self_times

    total = {}
    own = {}
    calls = {}
    rss = {}
    counts = {}
    coverage = []
    for op in traced:
        spans = op["spans"]
        selfs = self_times(spans)
        for span, self_s in zip(spans, selfs):
            total[span.name] = total.get(span.name, 0.0) + span.duration
            own[span.name] = own.get(span.name, 0.0) + self_s
            calls[span.name] = calls.get(span.name, 0) + 1
            rss[span.name] = max(rss.get(span.name, 0), span.rss_kb)
            for key, value in span.counts.items():
                counts.setdefault((span.name, key), []).append(value)
        in_process = sum(s.duration for s in spans if s.parent < 0)
        unnamed = sum(t for s, t in zip(spans, selfs) if s.name in FRAME_SPANS)
        if in_process > 0:
            coverage.append(1.0 - unnamed / in_process)

    values = {"cli.import_s": median([s.duration for op in traced for s in op["spans"]
                                      if s.name == "cli.import"])}
    for span, kinds in _SPANNED:
        for kind in kinds:
            values[f"{span}.{kind}"] = {
                "s": total.get(span, 0.0), "self_s": own.get(span, 0.0),
                "calls": calls.get(span, 0), "rss_mb": rss.get(span, 0) / 1024.0,
            }[kind]
    values["model.dim"] = max(counts.get(("model.build", "dim"), [0]))
    values["model.operator_nnz"] = max(counts.get(("model.build", "nnz"), [0]))
    values["dynamics.homodyne_spectrum.stored_bytes"] = max(
        counts.get(("dynamics.homodyne_spectrum", "stored_bytes"), [0]))
    values["dynamics.rho_bytes"] = max(counts.get(("dynamics.evolve_master", "rho_bytes"), [0]))
    sse_s = total.get("dynamics.sse_trajectory", 0.0)
    steps = sum(counts.get(("dynamics.sse_trajectory", "steps"), []))
    values["dynamics.sse_steps_per_s"] = steps / sse_s if sse_s > 0 else 0.0
    values["cli.bytes_written"] = sum(counts.get(("cli.write", "bytes"), []))
    for cmd in COMMANDS:
        mine = [s for s in samples if s.command == cmd]
        values[f"cli.{cmd}.s"] = median([s.wall_s for s in mine])
        values[f"cli.{cmd}.rss_mb"] = max((s.rss_kb for s in mine), default=0) / 1024.0
        values[f"cli.{cmd}.n"] = len(mine)
    traced_wall = sum(op["wall_s"] for op in traced)
    untraced_wall = sum(s.wall_s for s in samples)
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0 if untraced_wall else 0.0
    values["trace.coverage_frac"] = min(coverage) if coverage else 0.0
    return {n: {"value": values[n], "unit": u} for n, u, _b in PER_LAYER}
