"""One workload in its own process; started by run.py, not meant to be run by hand.

Prints one JSON object as its last stdout line.  With --setup-only it stops
right after the imports a workload needs and reports when it got there, so
run.py can time set-up (process start to first workload call).

Untraced (--trace 0): passes run back to back until --seconds have gone by
(at least MIN_PASSES), each timed on its own; the result holds the pass
times, the work counts and the check failures.  Events too rare to test in
one pass are pooled over the run and tested once more at the end.

Traced (--trace 1): a fixed number of passes, derived from --seconds and the
workload's nominal pass time only, so every count repeats exactly at a fixed
seed.  Each pass runs once untraced and once traced on the same inputs; the
difference of the two is the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

READY = time.monotonic()  # end of set-up: all imports done, no workload call made yet
MIN_PASSES = 3
TRACE_COST = 2.5  # one untraced plus one traced pass, in nominal pass times
OUT = ROOT / ".perfbench_out"


def one_pass(wl, seed: int, index: int, size: str, tr: tracer.Tracer | None = None):
    """Run and check pass `index`; returns (seconds, Outcome)."""
    tmp = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=OUT))
    try:
        inp = wl.inputs(seed, index, size, tmp)
        if tr is not None:
            tr.install()
        start = time.perf_counter()
        try:
            out = wl.run(inp)
        except Exception:
            traceback.print_exc()
            out = None
        finally:
            elapsed = time.perf_counter() - start
            if tr is not None:
                tr.uninstall()
        if out is None:
            return elapsed, workloads.Outcome({"run": ["[raised] the timed calls raised"]})
        try:
            return elapsed, wl.check(inp, out)
        except Exception:
            traceback.print_exc()
            return elapsed, workloads.Outcome({"check": ["[raised] reading the outputs raised"]})
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    if args.setup_only:
        print(json.dumps({"ready": READY}))
        return 0

    wl = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    result = {"ready": READY, "numpy": np.__version__, "python": sys.version.split()[0]}
    times, traced_times, outcomes = [], [], []  # outcomes: (pass index, Outcome)
    if args.trace:
        tr = tracer.Tracer()
        passes = max(1, int(args.seconds / (TRACE_COST * wl.nominal_pass_s)))
        for index in range(passes):
            elapsed, outcome = one_pass(wl, args.seed, index, args.size)
            times.append(elapsed)
            outcome.tallies = {}  # the traced pass tallies the same events
            outcomes.append((index, outcome))
            elapsed, outcome = one_pass(wl, args.seed, index, args.size, tr)
            traced_times.append(elapsed)
            outcomes.append((index, outcome))
        traced_wall = sum(traced_times)
        metrics = tr.layer_metrics(traced_wall)
        metrics["trace.wall_s"] = (traced_wall, "s")
        metrics["trace.untraced_wall_s"] = (sum(times), "s")
        metrics["trace.overhead_s"] = (traced_wall - sum(times), "s")
        metrics["trace.passes"] = (passes, "count")
        spans = OUT / f"spans-{wl.name}.npz"
        tr.save(spans)
        result["spans_file"] = str(spans.relative_to(ROOT))
        result["layer_metrics"] = metrics
    else:
        deadline = time.monotonic() + args.seconds
        index = 0
        while index < MIN_PASSES or time.monotonic() < deadline:
            elapsed, outcome = one_pass(wl, args.seed, index, args.size)
            times.append(elapsed)
            outcomes.append((index, outcome))
            index += 1
    tallies = {}
    for _, o in outcomes:
        for key, (events, trials, p) in o.tallies.items():
            e, t, q = tallies.get(key, (0, 0, 0.0))
            tallies[key] = (e + events, t + trials, max(p, q))
    if tallies:
        outcomes.append(("all", workloads.Outcome({"pooled": workloads.tally_failures(tallies)})))
    result.update(
        pass_times=times,
        iterations=sum(o.iterations for _, o in outcomes),
        samples=sum(o.samples for _, o in outcomes),
        walk_steps=sum(o.walk_steps for _, o in outcomes),
        attempted=sum(len(o.ops) for _, o in outcomes),
        failures=[f"pass {i}: {op}: {msg}" for i, o in outcomes
                  for op, msgs in o.ops.items() for msg in msgs],
        failed=sum(bool(msgs) for _, o in outcomes for msgs in o.ops.values()),
        notes=sorted(set().union(*(o.notes for _, o in outcomes))),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
