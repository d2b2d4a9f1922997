"""The benchmark's workloads: inputs made from a seed, the timed calls, output checks.

Every workload drives the `adastoc` CLI in-process through `cli.main(argv)`
or calls the public library directly.  A *pass* is one fixed set of calls;
its inputs derive from (benchmark seed, pass index).  `run()` is the timed
part.  `check()` reads the outputs afterwards and returns, per checked
operation, a list of failures (empty when the operation is correct),
together with the work counts the end-to-end rates divide by.

The checks are statistical or structural, never byte comparisons, so they
keep holding when a later change alters the random stream on purpose.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from adastoc import cli, complexity, framework, oracles, problems, walk

# Family-wise false-alarm level of each statistical check.  Small, because a
# benchmark session runs thousands of them and one false alarm fails a run.
ALPHA = 1e-6


@dataclass
class Outcome:
    ops: dict[str, list[str]]
    iterations: int = 0  # adaptive-loop iterations, or simulated walk steps on `theory`
    samples: int = 0  # oracle samples charged
    walk_steps: int = 0
    notes: set[str] = field(default_factory=set)
    # events too few per pass to test: key -> (events, trials, bound on the event
    # probability); summed over a run's passes and tested once by tally_failures()
    tallies: dict[str, tuple[int, int, float]] = field(default_factory=dict)


def tally_failures(tallies: dict[str, tuple[int, int, float]]) -> list[str]:
    """One-sided exact binomial test of each pooled tally, Bonferroni over the keys."""
    failures = []
    for key, (events, trials, p) in sorted(tallies.items()):
        tail = binom_upper_tail(events, trials, p)
        if tail < ALPHA / len(tallies):
            failures.append(f"{key}: {events}/{trials} events at probability <= {p} (P={tail:.2e})")
    return failures


def pass_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def flags(options: dict) -> list[str]:
    argv = []
    for key, value in options.items():
        if isinstance(value, (list, tuple)):
            value = ",".join(str(v) for v in value)
        argv += ["--" + key.replace("_", "-"), str(value)]
    return argv


def run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def read_csv(path: Path) -> list[dict[str, float]]:
    with open(path, newline="") as fh:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]


@functools.lru_cache(maxsize=4)
def _log_factorials(trials: int) -> np.ndarray:
    lg = np.array([math.lgamma(i + 1) for i in range(trials + 1)])
    lg.flags.writeable = False
    return lg


def binom_upper_tail(count: int, trials: int, p: float) -> float:
    """P(X >= count) for X ~ Binomial(trials, p)."""
    if count <= 0:
        return 1.0
    if count > trials or p <= 0.0:
        return 0.0
    if p >= 1.0:
        return 1.0
    k = np.arange(count, trials + 1)
    lg = _log_factorials(trials)
    logpmf = lg[trials] - lg[k] - lg[trials - k] + k * math.log(p) + (trials - k) * math.log1p(-p)
    return float(min(1.0, np.exp(logpmf).sum()))


def binom_two_sided(count: int, trials: int, p: float) -> float:
    """Two-sided tail probability of observing `count` successes under p."""
    lower = 1.0 - binom_upper_tail(count + 1, trials, p)
    upper = binom_upper_tail(count, trials, p)
    return min(1.0, 2.0 * min(lower, upper))


def _rel_close(a: float, b: float, tol: float = 1e-9) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= tol * max(abs(a), abs(b))


def _sweep_common(rows, epsilons, reps, max_iterations) -> list[str]:
    """Failures shared by both sweeps: row set and every replication stopping."""
    got = [row["epsilon"] for row in rows]
    if got != [float(e) for e in epsilons]:
        return [f"[rows] epsilons {got} != {list(epsilons)}"]
    failures = []
    for row in rows:
        # a replication that never stops contributes max_iterations to mean_T
        if row["mean_T"] * reps >= max_iterations:
            failures.append(f"[stopped] eps={row['epsilon']}: mean_T={row['mean_T']} allows a cap hit")
    return failures


def _count(value: float, what: str) -> int:
    n = round(value)
    if abs(n - value) > 1e-6 * max(1.0, abs(value)):
        raise ValueError(f"{what}={value} is not a whole count")
    return n


class _Sweep:
    """One `adastoc sweep` call per pass, writing its CSV into the pass directory."""

    options: dict
    sizes: dict

    def inputs(self, seed: int, index: int, size: str, outdir: Path) -> dict:
        inp = dict(self.options, **self.sizes[size], seed=pass_seed(seed, index))
        inp["out"] = str(outdir / "sweep.csv")
        return inp

    def run(self, inp: dict) -> dict:
        return {"code": run_cli(["sweep"] + flags(inp))[0]}

    @staticmethod
    def work(rows, reps: int) -> dict:
        return dict(
            iterations=_count(sum(r["mean_T"] for r in rows) * reps, "iterations"),
            samples=_count(sum(r["mean_toc0"] + r["mean_toc1"] for r in rows) * reps, "samples"),
        )


# -- sweep-storm -----------------------------------------------------------------


class SweepStorm(_Sweep):
    name = "sweep-storm"
    why = ("trust-region sweep with Chebyshev minibatches growing as alpha^-4: "
           "oracle sampling dominates; loop and trace changes leave it alone")
    nominal_pass_s = 1.0
    options = dict(
        method="storm", oracle="minibatch", problem="quadratic", dim=2, noise="gaussian",
        sigma_f=1e-3, m_c=1e-2, gamma=0.8, delta0=0.1, delta1=0.1, kappa_ef=1.0, kappa_eg=1.0,
        zeta=10.0, omega=1.0, horizon_c1=2.0, horizon_c2=10.0, max_iterations=100_000,
    )
    sizes = {"full": dict(epsilons=(0.2, 0.1, 0.05), reps=2), "tiny": dict(epsilons=(0.2,), reps=8)}

    def check(self, inp: dict, out: dict) -> Outcome:
        if out["code"] != 0:
            return Outcome({"sweep": [f"[exit] code {out['code']}"]})
        rows = read_csv(Path(inp["out"]))
        reps = inp["reps"]
        failures = _sweep_common(rows, inp["epsilons"], reps, inp["max_iterations"])
        spec = oracles.StormOracleSpec(
            kappa_ef=inp["kappa_ef"], delta0=inp["delta0"], kappa_eg=inp["kappa_eg"],
            delta1=inp["delta1"], sigma_f=inp["sigma_f"], sigma_g=math.sqrt(inp["m_c"]),
        )
        tallies = {}
        for row in rows:
            eps = row["epsilon"]
            n = max(2, math.ceil(inp["horizon_c2"] * inp["horizon_c1"] / eps**2))
            report = complexity.storm_complexity_report(
                spec, eps, inp["zeta"], n, inp["gamma"], inp["omega"],
                prob_t_exceeds_n=min(1.0, 1.0 / inp["horizon_c2"]),
            )
            for col, bound in (("bound_expected", report.expected), ("bound_highprob", report.high_probability)):
                if not _rel_close(row[col], bound.bound_value):
                    failures.append(f"[bounds] eps={eps}: {col}={row[col]} != recomputed {bound.bound_value}")
            tallies[f"[exceed] eps={eps}"] = (
                _count(row["exceed_frac"] * reps, "exceedances"), reps,
                report.high_probability.failure_prob,
            )
            mean_toc = row["mean_toc0"] + row["mean_toc1"]
            if not mean_toc <= row["bound_expected"]:
                failures.append(f"[expected] eps={eps}: mean cost {mean_toc} > bound_expected {row['bound_expected']}")
        return Outcome({"sweep": failures}, **self.work(rows, reps), tallies=tallies)


# -- sweep-corrupt ------------------------------------------------------------------


class SweepCorrupt(_Sweep):
    name = "sweep-corrupt"
    why = ("step-search sweep on corruption oracles, one coin per call: the loop, "
           "step/accept and harness bookkeeping dominate; sampling changes leave it alone")
    nominal_pass_s = 1.2
    options = dict(
        method="sass", oracle="corruption", problem="quadratic", dim=4, conditioning=100.0,
        noise="none", gamma=0.6, delta0=0.1, delta1=0.1, max_iterations=100_000,
    )
    sizes = {"full": dict(epsilons=(0.1, 0.03, 0.01), reps=20), "tiny": dict(epsilons=(0.1,), reps=2)}

    def check(self, inp: dict, out: dict) -> Outcome:
        if out["code"] != 0:
            return Outcome({"sweep": [f"[exit] code {out['code']}"]})
        rows = read_csv(Path(inp["out"]))
        reps = inp["reps"]
        failures = _sweep_common(rows, inp["epsilons"], reps, inp["max_iterations"])
        notes = set()
        for row in rows:
            # two exact values and one exact gradient per iteration, one sample each
            if row["mean_toc0"] != 2.0 * row["mean_T"] or row["mean_toc1"] != row["mean_T"]:
                failures.append(
                    f"[accounting] eps={row['epsilon']}: toc0={row['mean_toc0']} toc1={row['mean_toc1']} "
                    f"for mean_T={row['mean_T']}"
                )
            if math.isinf(row["bound_expected"]):
                notes.add("sweep-corrupt: bound_expected is inf (vacuous) at gamma="
                          f"{inp['gamma']}: the quartic tail ratio is applied to the alpha-independent sass cost")
        return Outcome({"sweep": failures}, **self.work(rows, reps), notes=notes)


# -- optimize-logistic ----------------------------------------------------------------


class OptimizeLogistic:
    name = "optimize-logistic"
    why = ("one long single run on logistic regression writing the full trace: exact "
           "logistic evaluations dominate; shows costs to single runs and trace memory")
    nominal_pass_s = 1.8
    options = dict(
        problem="logistic", dim=50, conditioning=1000.0, method="sass", oracle="corruption",
        noise="none", gamma=0.6, delta0=0.1, delta1=0.1, max_iterations=1_000_000,
    )
    sizes = {"full": dict(epsilon=1e-2), "tiny": dict(epsilon=1e-1, dim=5, conditioning=10.0)}

    def inputs(self, seed: int, index: int, size: str, outdir: Path) -> dict:
        inp = dict(self.options, **self.sizes[size], seed=pass_seed(seed, index))
        inp["out"] = str(outdir / "trace.csv")
        return inp

    def run(self, inp: dict) -> dict:
        code, stdout = run_cli(["optimize"] + flags(inp))
        return {"code": code, "stdout": stdout}

    def check(self, inp: dict, out: dict) -> Outcome:
        if out["code"] != 0:
            return Outcome({"optimize": [f"[exit] code {out['code']}"]})
        lines = out["stdout"].splitlines()
        head = lines.index("T_eps,toc0,toc1,toc")
        t_eps, toc0, toc1, toc = lines[head + 1].split(",")
        rows = read_csv(Path(inp["out"]))
        failures = []
        if t_eps == "":
            failures.append("[stopped] T_eps is empty: the run hit max_iterations")
        elif int(t_eps) != len(rows):
            failures.append(f"[rows] T_eps={t_eps} but the trace has {len(rows)} rows")
        if [int(r["k"]) for r in rows] != list(range(len(rows))):
            failures.append("[rows] k is not 0..T-1")
        bad_cost = sum(r["cost0"] != 2.0 or r["cost1"] != 1.0 for r in rows)
        if bad_cost or (int(toc0), int(toc1), int(toc)) != (2 * len(rows), len(rows), 3 * len(rows)):
            failures.append(f"[cost] {bad_cost} rows without cost0=2, cost1=1; totals {toc0},{toc1},{toc}")
        failures += _alpha_grid_failures(rows, inp["gamma"])
        return Outcome({"optimize": failures}, iterations=len(rows), samples=int(toc))


def _alpha_grid_failures(rows, gamma: float) -> list[str]:
    """Every alpha is alpha0 * gamma**j, j moves -1/+1 per success/failure, capped at alpha_max.

    The CLI sets alpha0 = alpha_max when neither is given, so the cap is j >= 0.
    """
    if not rows:
        return []
    alpha0 = rows[0]["alpha"]
    j = 0
    for r in rows:
        expected = alpha0 * gamma**j
        if not _rel_close(r["alpha"], expected, 1e-12) or r["alpha"] > alpha0:
            return [f"[alpha-grid] k={int(r['k'])}: alpha={r['alpha']} != alpha0*gamma^{j}={expected}"]
        j = max(j - 1, 0) if r["success"] else j + 1
    return []


# -- theory ------------------------------------------------------------------------------


class Theory:
    name = "theory"
    why = ("walk and hitting CLIs at a long horizon, pathwise coupling and a grid of "
           "bound reports: no adaptive runs, the walk and complexity modules do all the work")
    nominal_pass_s = 1.5
    options = dict(p=0.8, p_prime=0.85, alpha_bar=1.0, omega=1.0,
                   gammas=(0.5, 0.6, 0.7, 0.8, 0.9), grid_epsilons=(0.2, 0.1, 0.05))
    sizes = {
        "full": dict(n=2000, reps=2000, l_max=40, paths=10),
        "tiny": dict(n=200, reps=500, l_max=10, paths=2),
    }

    def inputs(self, seed: int, index: int, size: str, outdir: Path) -> dict:
        inp = dict(self.options, **self.sizes[size])
        s = pass_seed(seed, index)
        common = dict(p=inp["p"], n=inp["n"], reps=inp["reps"], seed=s)
        inp["hitting_argv"] = ["hitting"] + flags(dict(common, l_max=inp["l_max"], out=outdir / "hitting.csv"))
        inp["walk_argv"] = ["walk"] + flags(dict(
            common, gamma=inp["gammas"], alpha_bar=inp["alpha_bar"], omega=inp["omega"],
            out=outdir / "walk.csv", summary_out=outdir / "walk_summary.csv",
        ))
        inp["hitting_out"] = outdir / "hitting.csv"
        inp["walk_summary"] = outdir / "walk_summary.csv"
        rng = np.random.default_rng(np.random.SeedSequence([s, 1]))
        inp["traces"] = [
            synthetic_trace(inp["n"], 0.8, inp["alpha_bar"], inp["p_prime"], rng)
            for _ in range(inp["paths"])
        ]
        inp["coupling_seed"] = [s, 2]
        return inp

    def run(self, inp: dict) -> dict:
        out = {"hitting": run_cli(inp["hitting_argv"])[0], "walk": run_cli(inp["walk_argv"])[0]}
        rng = np.random.default_rng(np.random.SeedSequence(inp["coupling_seed"]))
        ys = [walk.trace_exponents(tr, inp["alpha_bar"]) for tr in inp["traces"]]
        out["coupling"] = [(y, walk.couple_with_trace(y, inp["p"], rng, inp["p_prime"]).states) for y in ys]
        out["grid"] = bound_grid(inp)
        return out

    def check(self, inp: dict, out: dict) -> Outcome:
        n, reps = inp["n"], inp["reps"]
        ops = {
            "hitting": self._check_hitting(inp, out["hitting"]),
            "walk": self._check_walk(inp, out["walk"]),
            "coupling": [],
            "bound-grid": [],
        }
        for i, (y, z) in enumerate(out["coupling"]):
            violations = int(np.sum(z < y))
            if violations or z[0] != 0:
                ops["coupling"].append(f"[dominance] path {i}: {violations} indices with Z < Y")
        notes = set()
        for key, report in out["grid"]:
            for bound in (report.expected, report.high_probability):
                v = bound.bound_value
                if math.isnan(v) or v <= 0.0 or not (0.0 <= bound.failure_prob <= 1.0):
                    ops["bound-grid"].append(f"[bound] {key} {bound.kind}: value {v}, failure {bound.failure_prob}")
            if math.isinf(report.high_probability.bound_value):
                ops["bound-grid"].append(f"[bound] {key}: high-probability bound overflows")
            if math.isinf(report.expected.bound_value):
                notes.add(f"theory: expected bound is inf (vacuous) for {key[0]} at gamma={key[1]}")
        coupled = sum(len(y) - 1 for y, _ in out["coupling"])
        steps = reps * n + len(inp["gammas"]) * (reps * n + n) + coupled
        return Outcome(ops, iterations=steps, walk_steps=steps, notes=notes)

    def _check_hitting(self, inp, code) -> list[str]:
        if code != 0:
            return [f"[exit] hitting exited {code}: an exact probability exceeds its bound"]
        rows = read_csv(inp["hitting_out"])
        if [int(r["l"]) for r in rows] != list(range(inp["l_max"] + 1)):
            return ["[rows] levels are not 0..l_max"]
        failures = []
        reps = inp["reps"]
        for r in rows:
            level, exact = int(r["l"]), r["exact"]
            if exact > min(1.0, r["bound"]) + 1e-12:
                failures.append(f"[bound] l={level}: exact {exact} > bound {r['bound']}")
            # exact binomial confidence interval, Bonferroni over the levels
            hits = _count(r["mc_estimate"] * reps, "hits")
            p_value = binom_two_sided(hits, reps, exact)
            if p_value < ALPHA / len(rows):
                failures.append(f"[mc] l={level}: {hits}/{reps} hits vs exact {exact} (P={p_value:.2e})")
        return failures

    def _check_walk(self, inp, code) -> list[str]:
        if code != 0:
            return [f"[exit] walk exited {code}"]
        rows = read_csv(inp["walk_summary"])
        if [r["gamma"] for r in rows] != list(inp["gammas"]):
            return ["[rows] gammas differ from the input"]
        failures = []
        for r in rows:
            # one-sided exact binomial interval: dips are at most failure_bound likely
            dips = _count(r["dip_fraction"] * r["reps"], "dips")
            tail = binom_upper_tail(dips, int(r["reps"]), r["failure_bound"])
            if tail < ALPHA / len(rows):
                failures.append(
                    f"[dips] gamma={r['gamma']}: {dips} dips, failure_bound {r['failure_bound']} (P={tail:.2e})"
                )
        return failures


def synthetic_trace(n: int, gamma: float, alpha_bar: float, p_prime: float, rng) -> framework.RunTrace:
    """A RunTrace following the two-outcome step-size law with success probability p_prime.

    alpha0 = alpha_max = alpha_bar, so every step size sits on the grid
    anchored at alpha_bar; no problem or oracle is involved.
    """
    config = framework.AlgoConfig(theta=0.1, gamma=gamma, alpha0=alpha_bar, alpha_max=alpha_bar)
    successes = rng.random(n) < p_prime
    records = []
    exp = 0
    for k, success in enumerate(successes.tolist()):
        records.append(framework.IterationRecord(
            k=k, alpha=alpha_bar * gamma**exp, success=success, cost0=2, cost1=1,
            true_grad_norm=1.0, true_gap=math.nan, alpha_base=alpha_bar, alpha_exp=exp,
        ))
        exp = max(exp - 1, 0) if success else exp + 1
    return framework.RunTrace(
        records=records, stopping_iteration=None, config=config, epsilon=1e-3,
        mode="nonconvex", final_grad_norm=1.0, final_gap=math.nan, final_x=np.zeros(1),
    )


def bound_grid(inp: dict) -> list:
    """storm_/sass_complexity_report over gammas x tolerances, horizons as in `sweep`."""
    storm_spec = oracles.StormOracleSpec(sigma_f=1e-3, sigma_g=0.1)
    sass_spec = oracles.SassOracleSpec()
    noise = problems.NoiseSpec.gaussian(sigma_f=1e-3, m_c=1e-2, m_v=1e-3)
    reports = []
    for gamma in inp["gammas"]:
        for eps in inp["grid_epsilons"]:
            n = math.ceil(20.0 / eps**2)
            reports.append((("storm", gamma, eps), complexity.storm_complexity_report(
                storm_spec, eps, 10.0, n, gamma, inp["omega"], prob_t_exceeds_n=0.1)))
            reports.append((("sass", gamma, eps), complexity.sass_complexity_report(
                sass_spec, noise, eps, n, gamma, inp["omega"], "nonconvex", p=inp["p"],
                alpha_bar=0.45, prob_t_exceeds_n=0.1)))
    return reports


WORKLOADS = {w.name: w for w in (SweepStorm(), SweepCorrupt(), OptimizeLogistic(), Theory())}
