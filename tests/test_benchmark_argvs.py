"""The benchmark's workloads (`perfbench/workloads.py`) still run and pass their own checks.

A change to what the CLI reads or refuses can break a workload's argv, and
only a benchmark run would show it.  This loads the workloads module
read-only and runs one tiny pass of each in-process: its inputs, its timed
calls and its output checks.
"""

import importlib.util
import sys
from pathlib import Path

import pytest


def _workloads():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


_MODULE = _workloads()


@pytest.mark.parametrize("name", list(_MODULE.WORKLOADS))
def test_a_tiny_pass_of_each_workload_exits_0_and_passes_its_checks(tmp_path, name):
    workload = _MODULE.WORKLOADS[name]
    inp = workload.inputs(1, 0, "tiny", tmp_path)
    out = workload.run(inp)
    codes = [out[key] for key in ("code", "hitting", "walk") if key in out]
    assert codes and codes == [0] * len(codes)
    outcome = workload.check(inp, out)
    assert outcome.ops and all(failures == [] for failures in outcome.ops.values()), outcome.ops
    assert _MODULE.tally_failures(outcome.tallies) == []
