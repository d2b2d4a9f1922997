"""adastoc benchmark: end-to-end metrics per workload, or per-layer metrics traced.

    python3 perfbench/run.py --workload sweep-storm --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Run from the repository root; the package is imported from ./src, nothing
needs installing beyond numpy.  The workload runs in its own single-threaded
process (worker.py, BLAS threads pinned to 1, no worker pool), fed only the
inputs made from --seed.  Every CSV goes to a temporary directory under
.perfbench_out/, which is also where traced runs leave their spans.

--trace 0 prints the end-to-end metrics:
  wall_s       median seconds of one pass (the workload's fixed set of calls)
  setup_s      median of several process starts up to the first workload call
  peak_rss_mb  ru_maxrss of the workload process
  iters_per_s  step-size-process iterations per second of pass time:
               adaptive-loop iterations, or simulated walk steps on `theory`
--trace 1 prints the per-layer metrics of a fixed number of traced passes.

The last stdout line is one JSON object with keys correct, attempted,
failed and metrics.  Exit code 0 unless the benchmark itself could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("sweep-storm", "sweep-corrupt", "optimize-logistic", "theory")
SETUP_PROBES = 10  # timed set-up probes per run, after one untimed warm-up
DEADLINE_S = 170.0  # the whole run must end within 180 s

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "iters_per_s": "1/s"}


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"  # same dict/set layout in every process
    env.pop("ADASTOC_OUTDIR", None)
    return env


def run_worker(args: list[str], timeout: float) -> tuple[float, dict]:
    """Start worker.py, wait for it, return (spawn time, its JSON result)."""
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *args],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=max(1.0, timeout),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out after {exc.timeout:.0f} s") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited {proc.returncode}")
    return spawned, json.loads(lines[-1])


def setup_seconds(workload: str, seed: int, deadline: float) -> list[float]:
    samples = []
    for i in range(SETUP_PROBES + 1):
        spawned, res = run_worker(
            ["--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", "0", "--setup-only"],
            deadline - time.monotonic(),
        )
        if i:  # the first start warms the page and bytecode caches
            samples.append(res["ready"] - spawned)
    return samples


def provenance(seed: int, worker: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": worker["python"],
        "numpy": worker["numpy"],
        "platform": platform.platform(),
        "commit": git_commit(),
        "seed": seed,
        "blas_threads": 1,
    }


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run_one(workload: str, seed: int, seconds: float, trace: int, size: str, deadline: float) -> dict:
    setup = setup_seconds(workload, seed, deadline) if not trace else []
    spawned, res = run_worker(
        ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace), "--size", size],
        deadline - time.monotonic(),
    )
    setup.append(res["ready"] - spawned)
    times = res["pass_times"]
    busy = sum(times)
    if trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in res["layer_metrics"].items()}
    else:
        values = {
            "wall_s": statistics.median(times),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": res["peak_rss_mb"],
            "iters_per_s": res["iterations"] / busy,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    print(f"# workload {workload}: provenance {json.dumps(provenance(seed, res))}")
    print(f"# {workload}: {len(times)} passes, pass seconds min {min(times):.4f} "
          f"median {statistics.median(times):.4f} max {max(times):.4f}; "
          f"set-up samples {len(setup)}")
    if not trace:
        print(f"# {workload}: samples_per_s {res['samples'] / busy:.6g} 1/s, "
              f"walk_steps_per_s {res['walk_steps'] / busy:.6g} 1/s, "
              f"failed_frac {res['failed'] / max(1, res['attempted']):.6g}")
    else:
        print(f"# {workload}: spans written to {res['spans_file']}")
    for note in res["notes"]:
        print(f"# note: {note}")
    for failure in res["failures"]:
        print(f"# FAILED {workload}: {failure}")
    for name, m in metrics.items():
        print(f"{workload} {name} {m['value']:.6g} {m['unit']}")
    return {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: minimal inputs, for the benchmark's own smoke test")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be a nonnegative integer")
    if not (ROOT / "src" / "adastoc" / "__init__.py").is_file():
        print(f"error: no adastoc sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + DEADLINE_S * len(names)
    try:
        results = {w: run_one(w, args.seed, args.seconds, args.trace, args.size, deadline) for w in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
