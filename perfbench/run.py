"""Out-of-process benchmark of the ``spopo`` CLI.

Run from the repository root:

    python3 perfbench/run.py --workload steady-sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

A run writes each op's seeded config, then launches ``spopo <command>``
children one at a time (``python3 -m spopo.cli`` with ``src`` on the path),
timing each from launch to exit and reading its peak RSS from ``os.wait4``.
Every op's artifacts are checked (see ``checks.py``).  ``--trace 1`` adds a
replay of the same ops with spans around each module's public functions and
reports per-layer metrics instead of end-to-end ones.  The last line of
standard output is the result as one JSON object.
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import metrics  # noqa: E402
import workloads  # noqa: E402
from tracing import from_records  # noqa: E402

ROOT = Path.cwd()
RUN_LIMIT_S = 170.0        # a run ends within 180 s; a child is killed at this deadline
PROBES_PER_MODEL = 2       # set-up probes of each distinct model in every untraced pass
SECONDS_PER_PASS = 15      # passes = max(2, seconds / 15), fixed before any timing
STDERR_TAIL = 5


class BenchmarkError(Exception):
    """The benchmark cannot run here (no program to measure, missing references)."""


@dataclass
class OpSample:
    name: str
    command: str
    wall_s: float
    rss_kb: int
    exit_code: int
    traced: bool = False
    failures: list = field(default_factory=list)
    stderr_tail: list = field(default_factory=list)


BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> dict:
    """Environment of every child: ``src`` on the path, one BLAS thread unless set.

    With two OpenBLAS threads on two cores, one busy neighbour process slows
    the d=72 sparse LU in ``steady`` from 3 s to over 100 s, so children run
    single-threaded BLAS unless the caller sets the thread variables.
    """
    env = dict(os.environ)
    for var in BLAS_THREAD_VARS:
        env.setdefault(var, "1")
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str], stderr_path: Path, deadline: float) -> tuple[float, int, int]:
    """(wall seconds, peak RSS in KiB, exit code) of one child, killed at ``deadline``."""
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss, proc.returncode


def tail(path: Path) -> list[str]:
    lines = path.read_text(errors="replace").splitlines() if path.exists() else []
    return lines[-STDERR_TAIL:]


def git_sha() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(wl: workloads.Workload, seed: int) -> dict:
    r_lo, r_hi, sse_seed = workloads.draw_points(seed)
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "blas_threads": {k: child_env()[k] for k in BLAS_THREAD_VARS},
        "loadavg_start": list(os.getloadavg()),
        "workload": wl.name,
        "dim": wl.dim,
        "workload_seed": seed,
        "r": [r_lo, r_hi],
        "sse_seed": sse_seed,
    }


def model_key(op) -> str:
    """The part of an op's config that set-up builds: two ops with one key share a model."""
    return json.dumps({k: op.config.get(k) for k in ("dispersion", "supermode", "model")},
                      sort_keys=True)


class Run:
    """One run of one workload: untraced passes with set-up probes, optional traced pass."""

    def __init__(self, wl: workloads.Workload, seed: int, seconds: float, trace: bool):
        self.wl, self.seed, self.seconds, self.trace = wl, seed, seconds, trace
        self.start = time.monotonic()
        self.deadline = self.start + RUN_LIMIT_S
        self.work = ROOT / ".perfbench_work" / f"{wl.name}-seed{seed}-trace{int(trace)}"
        self.refs = json.loads((HERE / "refs" / "references.json").read_text())
        self.configs: dict[str, Path] = {}
        self.setup_walls: dict[str, list[float]] = {}

    def write_configs(self):
        shutil.rmtree(self.work, ignore_errors=True)
        (self.work / "configs").mkdir(parents=True)
        for op in self.wl.ops:
            path = self.work / "configs" / f"{op.name}.json"
            path.write_text(json.dumps(op.config, indent=1, sort_keys=True))
            self.configs[op.name] = path

    def setup_probe(self, op):
        """Time a child that only imports ``spopo`` and builds the op's model."""
        walls = self.setup_walls.setdefault(model_key(op), [])
        err = self.work / f"setup-{op.name}-{len(walls)}.stderr"
        wall, _rss, code = run_child(
            [sys.executable, str(HERE / "child.py"), "setup", str(self.configs[op.name])],
            err, self.deadline)
        if code != 0:
            raise BenchmarkError(f"set-up probe for {op.name} exited {code}: {tail(err)}")
        walls.append(wall)

    def run_op(self, op, label: str, traced: bool, shared: dict) -> tuple[OpSample, dict | None]:
        out = self.work / label / op.name
        err = self.work / label / f"{op.name}.stderr"
        spans_path = self.work / label / f"{op.name}.spans.json"
        out.mkdir(parents=True)
        cli_args = [op.command, "--config", str(self.configs[op.name]), "--out", str(out)]
        if op.seed is not None:
            cli_args += ["--seed", str(op.seed)]
        if traced:
            argv = [sys.executable, str(HERE / "child.py"), "trace", str(spans_path), *cli_args]
        else:
            argv = [sys.executable, "-m", "spopo.cli", *cli_args]
        wall, rss, code = run_child(argv, err, self.deadline)
        sample = OpSample(op.name, op.command, wall, rss, code, traced)
        sample.failures = checks.check_op(op, out, code, self.refs, shared)
        if sample.failures:
            sample.stderr_tail = tail(err)
        record = None
        if traced and spans_path.is_file():
            data = json.loads(spans_path.read_text())
            record = {"spans": from_records(data["spans"]), "wall_s": wall}
        return sample, record

    def one_pass(self, label: str, traced: bool,
                 probes: int = 0) -> tuple[float, list[OpSample], list[dict]]:
        """Every op once; with ``probes``, each model's probes go before the ops that use it."""
        shared: dict = {}
        samples, records, total = [], [], 0.0
        users = Counter(model_key(op) for op in self.wl.ops)
        for op in self.wl.ops:
            # probes spread over the whole run, so a slow phase of the host
            # seldom covers every probe of a model
            for _ in range(-(-probes // users[model_key(op)])):
                self.setup_probe(op)
            sample, record = self.run_op(op, label, traced, shared)
            samples.append(sample)
            total += sample.wall_s
            if record is not None:
                records.append(record)
        shutil.rmtree(self.work / label, ignore_errors=True)
        return total, samples, records

    def execute(self) -> dict:
        env = environment(self.wl, self.seed)
        self.write_configs()
        # the pass count never depends on measured speed, so every run uses the same
        # estimator; a child still running at the deadline is killed and fails its op
        passes = 1 if self.trace else max(2, round(self.seconds / SECONDS_PER_PASS))
        probes = 0 if self.trace else PROBES_PER_MODEL
        pass_walls, samples = [], []
        for i in range(passes):
            wall, got, _ = self.one_pass(f"pass{i}", traced=False, probes=probes)
            pass_walls.append(wall)
            samples += got
        traced_samples, records = [], []
        if self.trace:
            _, traced_samples, records = self.one_pass("traced", traced=True)
        env["loadavg_end"] = list(os.getloadavg())
        every = samples + traced_samples
        if self.trace:
            values = metrics.per_layer(records, samples)
        else:
            values = metrics.end_to_end(self.setup_walls, samples)
        return {
            "result": {
                "correct": not any(kind == "value" for s in every for kind, _ in s.failures),
                "attempted": len(every),
                "failed": sum(1 for s in every if s.failures),
                "metrics": values,
            },
            "env": env,
            "setup_walls_s": self.setup_walls,
            "pass_walls_s": pass_walls,
            "ops": [vars(s) for s in every],
        }


def preflight():
    if not (ROOT / "src" / "spopo" / "cli.py").is_file():
        raise BenchmarkError(f"no spopo sources under {ROOT / 'src'}; run from the repository root")
    if not (HERE / "refs" / "references.json").is_file():
        raise BenchmarkError("perfbench/refs/references.json is missing")


def describe(report: dict) -> list[str]:
    """Human-readable lines: environment, ops, metrics with units and sample counts."""
    res, env = report["result"], report["env"]
    lines = [f"# {env['workload']} d={env['dim']} seed={env['workload_seed']} "
             f"r={env['r']} sha={env['git_sha'][:12]} python={env['python']} "
             f"numpy={env['numpy']} scipy={env['scipy']} nproc={env['nproc']} "
             f"blas={env['blas_threads']} load={env['loadavg_start'][0]:.2f}->"
             f"{env['loadavg_end'][0]:.2f}"]
    for op in report["ops"]:
        status = "ok" if not op["failures"] else "FAILED " + "; ".join(m for _, m in op["failures"])
        lines.append(f"  {'traced ' if op['traced'] else ''}{op['name']:<20} "
                     f"{op['wall_s']:8.3f} s {op['rss_kb'] / 1024:8.1f} MB  {status}")
        lines += [f"      stderr: {line}" for line in op["stderr_tail"]]
    n_ops = len([op for op in report["ops"] if not op["traced"]])
    probes = sum(len(w) for w in report["setup_walls_s"].values())
    counts = {"setup_s": probes, "run_s": len(report["pass_walls_s"]),
              "peak_rss_mb": n_ops, "ops_passed_frac": n_ops}
    for name, m in res["metrics"].items():
        n = f"(n={counts[name]})" if name in counts else ""
        lines.append(f"  {name:<42} {m['value']:>14.6g} {m['unit']:<6} {n}")
    lines.append(f"  ops_failed_frac {res['failed']}/{res['attempted']}  correct={res['correct']}")
    return lines


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    report = Run(workloads.make_workload(name, seed), seed, seconds, trace).execute()
    results = ROOT / ".perfbench_work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(report, indent=1, default=str))
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark the spopo CLI on seeded workloads.")
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOAD_NAMES, *workloads.HELD_WORKLOAD_NAMES,
                                 "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        preflight()
        names = workloads.WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
        reports = {n: run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for report in reports.values():
        print("\n".join(describe(report)))
    if args.workload == "all":
        print(json.dumps({n: r["result"] for n, r in reports.items()}))
    else:
        print(json.dumps(reports[args.workload]["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
