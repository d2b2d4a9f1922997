"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py

Checks that every metric of BENCHMARK.json is printed with its unit, that
traced counts repeat exactly at a fixed seed, that the benchmark refuses to
run without the package sources, and that every output check fails on a
tampered output, so no check can pass vacuously.
"""

from __future__ import annotations

import csv
import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def bench_json(workload: str, trace: int, seed: int = 1) -> tuple[str, dict]:
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "0.5",
                 "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_its_unit(workload, trace):
    stdout, result = bench_json(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert f"{workload} {m['name']} " in stdout and stdout.count(f" {m['unit']}\n")
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_counts_repeat_at_a_fixed_seed():
    for workload in workloads.WORKLOADS:
        first = bench_json(workload, 1, seed=7)[1]["metrics"]
        second = bench_json(workload, 1, seed=7)[1]["metrics"]
        counts = {k for k, v in first.items() if v["unit"] in ("count", "bytes")}
        assert counts
        assert {k: first[k] for k in counts} == {k: second[k] for k in counts}


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "theory", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# -- every output check fails on a tampered output --------------------------------


def tiny_pass(name: str, tmp_path: Path):
    wl = workloads.WORKLOADS[name]
    inp = wl.inputs(5, 0, "tiny", tmp_path)
    out = wl.run(inp)
    outcome = wl.check(inp, out)
    assert not any(outcome.ops.values()) and not workloads.tally_failures(outcome.tallies)
    return wl, inp, out


def edit_csv(path, row: int | None, column: str | None = None, value=None) -> None:
    """Set one cell, or delete the row when column is None."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    fields = list(rows[0])
    if column is None:
        del rows[row]
    else:
        rows[row][column] = str(value(float(rows[row][column])) if callable(value) else value)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fields, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def failures_after(wl, inp, out, tamper) -> list[str]:
    tamper(inp, out)
    outcome = wl.check(inp, out)
    return [msg for msgs in outcome.ops.values() for msg in msgs] + workloads.tally_failures(outcome.tallies)


def _blank_t_eps(stdout: str) -> str:
    lines = stdout.splitlines()
    row = lines.index("T_eps,toc0,toc1,toc") + 1
    lines[row] = "," + lines[row].split(",", 1)[1]
    return "\n".join(lines)


SWEEP_TAMPERS = {
    "sweep-storm": {
        "[exit]": lambda i, o: o.update(code=2),
        "[rows]": lambda i, o: edit_csv(i["out"], 0),
        "[stopped]": lambda i, o: edit_csv(i["out"], 0, "mean_T", 1e9),
        "[bounds]": lambda i, o: edit_csv(i["out"], 0, "bound_highprob", lambda v: 2 * v),
        "[exceed]": lambda i, o: edit_csv(i["out"], 0, "exceed_frac", 1.0),
        "[expected]": lambda i, o: edit_csv(i["out"], 0, "mean_toc0", 1e300),
    },
    "sweep-corrupt": {
        "[exit]": lambda i, o: o.update(code=1),
        "[rows]": lambda i, o: edit_csv(i["out"], 0),
        "[stopped]": lambda i, o: edit_csv(i["out"], 0, "mean_T", 1e9),
        "[accounting]": lambda i, o: edit_csv(i["out"], 0, "mean_toc0", lambda v: v + 1),
    },
    "optimize-logistic": {
        "[exit]": lambda i, o: o.update(code=3),
        "[stopped]": lambda i, o: o.update(stdout=_blank_t_eps(o["stdout"])),
        "[rows]": lambda i, o: edit_csv(i["out"], -1),
        "[cost]": lambda i, o: edit_csv(i["out"], 1, "cost0", 3),
        "[alpha-grid]": lambda i, o: edit_csv(i["out"], 2, "alpha", lambda v: 1.5 * v),
    },
}


@pytest.mark.parametrize(
    "name,tag", [(n, t) for n, tampers in SWEEP_TAMPERS.items() for t in tampers]
)
def test_cli_workload_checks_fail_on_tampered_output(tmp_path, name, tag):
    wl, inp, out = tiny_pass(name, tmp_path)
    failures = failures_after(wl, inp, out, SWEEP_TAMPERS[name][tag])
    assert any(f.startswith(tag) for f in failures), failures


def _nan_grid_bound(inp, out):
    key, report = out["grid"][0]
    out["grid"][0] = (key, replace(report, expected=replace(report.expected, bound_value=math.nan)))


def _break_dominance(inp, out):
    y, z = out["coupling"][0]
    z = z.copy()
    k = int(len(y) // 2)
    z[k] = y[k] - 1
    out["coupling"][0] = (y, z)


THEORY_TAMPERS = {
    ("hitting", "[exit]"): lambda i, o: o.update(hitting=2),
    ("hitting", "[rows]"): lambda i, o: edit_csv(i["hitting_out"], -1),
    ("hitting", "[bound]"): lambda i, o: edit_csv(i["hitting_out"], -1, "exact", 1.0),
    ("hitting", "[mc]"): lambda i, o: edit_csv(i["hitting_out"], 5, "mc_estimate", 0.5),
    ("walk", "[exit]"): lambda i, o: o.update(walk=1),
    ("walk", "[rows]"): lambda i, o: edit_csv(i["walk_summary"], 0),
    ("walk", "[dips]"): lambda i, o: edit_csv(i["walk_summary"], 0, "dip_fraction", 0.5),
    ("coupling", "[dominance]"): _break_dominance,
    ("bound-grid", "[bound]"): _nan_grid_bound,
}


@pytest.mark.parametrize("op,tag", list(THEORY_TAMPERS))
def test_theory_checks_fail_on_tampered_output(tmp_path, op, tag):
    wl, inp, out = tiny_pass("theory", tmp_path)
    THEORY_TAMPERS[(op, tag)](inp, out)
    failures = wl.check(inp, out).ops[op]
    assert any(f.startswith(tag) for f in failures), failures
