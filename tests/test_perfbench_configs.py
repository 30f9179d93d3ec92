"""The benchmark's generated op configs against the config schema.

``perfbench/workloads.py`` writes each op's config; a schema change that rejects one of them
fails only the benchmark's ops, so every op config of every workload is loaded here first.
"""

import importlib.util
import warnings
from pathlib import Path

import pytest

from spopo.config import validate_config

_SPEC = importlib.util.spec_from_file_location(
    "perfbench_workloads", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(workloads)


@pytest.mark.parametrize("name", workloads.WORKLOAD_NAMES + workloads.HELD_WORKLOAD_NAMES)
@pytest.mark.parametrize("seed", range(1, 6))
def test_every_benchmark_op_config_loads(name, seed):
    # the spectrum ops still send the deprecated `tau_max`, which loads with one warning
    for op in workloads.make_workload(name, seed).ops:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            validate_config(op.config)
        messages = [(type(w.message), str(w.message)) for w in caught]
        if op.command == "spectrum":
            assert len(messages) == 1 and messages[0][0] is FutureWarning, op.name
            assert "`dynamics.tau_max`" in messages[0][1], op.name
        else:
            assert messages == [], op.name
