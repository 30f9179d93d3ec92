"""Self-tests of the benchmark's own code (no spopo run needed).

    python3 -m pytest perfbench -q
"""

import hashlib
import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import metrics  # noqa: E402
import workloads  # noqa: E402
from run import OpSample  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402


def test_same_seed_same_configs_other_seed_other_r():
    for name in workloads.WORKLOAD_NAMES + workloads.HELD_WORKLOAD_NAMES:
        a = workloads.make_workload(name, 11)
        assert a == workloads.make_workload(name, 11)
        b = workloads.make_workload(name, 12)
        assert [(op.command, op.point[:1]) for op in a.ops] == \
            [(op.command, op.point[:1]) for op in b.ops]
    assert workloads.draw_points(11)[:2] != workloads.draw_points(12)[:2]


def test_draws_stay_on_the_reference_grid():
    grid = set(workloads.r_grid())
    for seed in range(200):
        r_lo, r_hi, sse_seed = workloads.draw_points(seed)
        assert r_lo in grid and r_hi in grid and sse_seed >= 1
        assert 0.55 <= r_lo <= 0.65 and 1.15 <= r_hi <= 1.25


def test_benchmark_json_matches_catalogue():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec["end_to_end"] == metrics.benchmark_spec()["end_to_end"]
    assert spec["per_layer"] == metrics.benchmark_spec()["per_layer"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOAD_NAMES)
    assert 1 <= len(spec["end_to_end"]) <= 16 and 1 <= len(spec["per_layer"]) <= 128
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert metrics.NAME_RE.fullmatch(name), name
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": max(m["bound"] for m in spec["end_to_end"])} in spec["end_to_end"]
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])


def test_spans_nest_and_self_times_sum_to_the_root():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    mod = types.SimpleNamespace(leaf=lambda x: x, mid=None, top=None)
    mod.mid = lambda x: mod.leaf(x) + mod.leaf(x)
    mod.top = lambda x: mod.mid(x) * 2
    for attr in ("leaf", "mid", "top"):
        tracer.wrap(mod, attr, f"mod.{attr}")
    assert tracer.call("root", mod.top, 3) == 12
    tracer.unwrap_all()
    names = [s.name for s in tracer.spans]
    assert names == ["root", "mod.top", "mod.mid", "mod.leaf", "mod.leaf"]
    assert [s.parent for s in tracer.spans] == [-1, 0, 1, 2, 2]
    for s in tracer.spans[1:]:
        parent = tracer.spans[s.parent]
        assert parent.start <= s.start <= s.end <= parent.end
    selfs = self_times(tracer.spans)
    assert all(v >= 0 for v in selfs)
    assert sum(selfs) == pytest.approx(tracer.spans[0].duration)
    assert mod.leaf(5) == 5  # unwrapped: no new span
    assert len(tracer.spans) == 5


def test_span_closes_when_the_call_raises():
    tracer = Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.call("boom", boom)
    assert tracer.spans[0].end >= tracer.spans[0].start and not tracer._stack


STEADY_POINT = "r0.60"
REFS = {"steady": {STEADY_POINT: {"n_1": 0.5, "n_2": 0.25, "n_3": 0.0, "n_total": 0.75,
                                  "purity": 0.9}}}


def _steady_artifacts(out: Path, n_total: float = 0.75):
    out.mkdir(parents=True)
    summary = {"photon_numbers": {"n_1": 0.5, "n_2": 0.25, "n_3": 0.0, "n_total": n_total},
               "purity": 0.9, "trace": 1.0, "min_eigenvalue": 0.0}
    (out / "steady_summary.json").write_text(json.dumps(summary))
    (out / "steady_diag.csv").write_text("index,population\n0,0.75\n1,0.25\n")
    artifacts = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                 for name in ("steady_summary.json", "steady_diag.csv")}
    (out / "manifest.json").write_text(json.dumps({"artifacts": artifacts}))


def _steady_op():
    return workloads.Op("steady@" + STEADY_POINT, "steady", {}, STEADY_POINT)


def test_good_steady_op_passes(tmp_path):
    _steady_artifacts(tmp_path / "ok")
    assert checks.check_op(_steady_op(), tmp_path / "ok", 0, REFS, {}) == []


def test_corrupted_artifact_is_a_failed_op(tmp_path):
    out = tmp_path / "bad"
    _steady_artifacts(out)
    with open(out / "steady_diag.csv", "a") as fh:
        fh.write("2,0.0\n")
    failures = checks.check_op(_steady_op(), out, 0, REFS, {})
    assert ("value", "steady_diag.csv does not match its sha256 in manifest.json") in failures


def test_wrong_photon_number_is_a_failed_op(tmp_path):
    out = tmp_path / "wrong"
    _steady_artifacts(out, n_total=0.76)
    failures = checks.check_op(_steady_op(), out, 0, REFS, {})
    assert failures and all(kind == "value" for kind, _ in failures)
    assert "<n_total>" in failures[0][1]


def test_nonzero_exit_is_a_failed_op_but_written_values_are_checked(tmp_path):
    out = tmp_path / "crashed"
    _steady_artifacts(out)
    (out / "manifest.json").unlink()
    assert checks.check_op(_steady_op(), out, 1, REFS, {}) == [("exit", "exit code 1")]


def test_cat_parity_and_purity_must_be_one(tmp_path):
    out = tmp_path / "cat"
    out.mkdir()
    summary = {"photon_numbers": {"n_1": 2.0, "n_total": 2.0}, "purity": 0.9939,
               "trace": 1.0, "min_eigenvalue": 0.0}
    (out / "steady_summary.json").write_text(json.dumps(summary))
    (out / "steady_diag.csv").write_text("index,population\n0,0.5\n1,0.003\n2,0.497\n")
    (out / "manifest.json").write_text(json.dumps({"artifacts": {}}))
    refs = {"steady": {"cw": {"n_1": 2.0, "n_total": 2.0, "purity": 1.0}}}
    op = workloads.Op("steady@cw", "steady", {}, "cw")
    (kind, message), = checks.check_op(op, out, 0, refs, {})
    assert kind == "value" and message.startswith("even-parity population = 0.99")


def _sample(command, wall, rss_kb=1024, failures=()):
    return OpSample(command, command, wall, rss_kb, 0, failures=list(failures))


def test_end_to_end_metrics_are_complete_and_nonzero():
    samples = [_sample("steady", 2.0, 2048), _sample("spectrum", 3.0, 4096, [("exit", "x")]),
               _sample("steady", 2.5), _sample("spectrum", 4.0, 1024, [("exit", "x")])]
    got = metrics.end_to_end({"a": [0.5, 0.7], "b": [0.9, 0.8], "c": [0.6]}, samples)
    assert list(got) == [n for n, *_ in metrics.END_TO_END]
    assert got["setup_s"]["value"] == 0.6 and got["run_s"]["value"] == 5.0
    assert got["peak_rss_mb"]["value"] == 4.0 and got["ops_passed_frac"]["value"] == 0.5
    assert all(m["value"] > 0 for m in got.values())


def test_per_layer_metrics_cover_the_catalogue():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    root = tracer.open("op")                                    # t=0
    tracer.call("cli.import", lambda: None)                     # t=1..2
    tracer.call("cli.main", tracer.call, "dynamics.steady_state", lambda: None)  # 3..6
    tracer.close(root)                                          # t=7
    traced = [{"spans": tracer.spans, "wall_s": 1.1}]
    got = metrics.per_layer(traced, [_sample("steady", 1.0)])
    assert list(got) == [n for n, *_ in metrics.PER_LAYER]
    assert got["dynamics.steady_state.calls"]["value"] == 1
    assert got["cli.import_s"]["value"] == 1.0
    # named: import 1 + steady_state 1 of 7; unnamed: op self 3 + cli.main self 2
    assert got["trace.coverage_frac"]["value"] == pytest.approx(2 / 7)
    assert got["trace.overhead_frac"]["value"] == pytest.approx(0.1)
    assert got["cli.steady.n"]["value"] == 1 and got["cli.evolve.n"]["value"] == 0


def test_refuses_to_run_without_the_program(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "sse-ensemble", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
    assert "no spopo sources" in proc.stderr
