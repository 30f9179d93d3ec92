"""The traced benchmark's layer list against the modules it wraps.

``perfbench/child.py`` wraps public functions of ``spopo`` by name; a name removed or renamed
in ``src`` fails only the benchmark's traced pass, so it is checked here first.
"""

import importlib.util
import sys
from pathlib import Path

from spopo import hilbert
from spopo.hilbert import FockSpace

CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"


def test_traced_benchmark_wraps_every_layer_and_restores_it(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # child.py puts perfbench/ on the path
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    tracer = child.Tracer()
    child.install_layers(tracer)  # AttributeError names a layer src no longer has
    patched = list(tracer._patched)
    try:
        assert patched
        assert all(getattr(owner, attr) is not original for owner, attr, original in patched)
        hilbert.vacuum_state(FockSpace((2,)))
        assert [span.name for span in tracer.spans] == ["hilbert.vacuum_state"]
    finally:
        tracer.unwrap_all()
    assert all(getattr(owner, attr) is original for owner, attr, original in patched)
