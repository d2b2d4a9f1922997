"""Span tracing of adastoc from outside the package.

`Tracer.install()` replaces the public functions of each module, and the
methods of the plug-in objects that `run_adaptive` calls (problem, oracle
suite, method), with wrappers that record one span per call: a name id,
start, end and the index of the enclosing span.  `uninstall()` puts the
originals back, so untraced passes run the unmodified code.  Spans stay in
memory (compact arrays) until `save()`; `layer_metrics()` turns them into the
per-layer metrics.

A layer's self time is the duration of its spans minus the durations of
their direct child spans.  Wrapper overhead lands in the caller's self time,
so traced seconds are shares of a slower run, not absolute times.
"""

from __future__ import annotations

import collections
import functools
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("cli", "framework", "methods", "oracles", "problems", "complexity", "walk")

# Suite classes whose gradient()/values() calls are oracle calls.
_SUITES = ("ExactOracles", "StormMinibatchOracles", "SassMinibatchOracles", "PairCorruptionOracles")
_GROUND_TRUTH = ("Problem.value", "Problem.grad", "Problem.gap")
_SAMPLERS = ("Problem.sample_loss_batch", "Problem.sample_grad_batch")
_CLOSED_FORM = ("hitting_prob_bound", "feller_transition_prob", "stepsize_lower_bound", "gamma_threshold")
_BOUNDS = ("storm_complexity_report", "sass_complexity_report")


# -- counting hooks: (tracer, args, kwargs, result) ----------------------------


def _on_gradient(tr, args, kwargs, out):
    tr.oracle_call(out[1], out[1])


def _on_values(tr, args, kwargs, out):
    tr.oracle_call(out[2], out[2] // 2)


def _on_accepts(tr, args, kwargs, out):
    c = tr.counts
    c["methods.accepts"] += 1
    if out:
        c["methods.accepted"] += 1
    else:
        c["oracles.wasted_samples"] += tr.pending_samples
    tr.pending_samples = 0


def _on_sample(tr, args, kwargs, out):
    c = tr.counts
    c["problems.sample_bytes"] += out.nbytes
    c["problems.max_sample_bytes"] = max(c["problems.max_sample_bytes"], out.nbytes)


def _on_run(tr, args, kwargs, out):
    c = tr.counts
    c["framework.runs"] += 1
    c["framework.iterations"] += len(out.records)
    c["framework.stopped"] += out.stopping_iteration is not None


def _on_mc(tr, args, kwargs, out):
    tr.counts["complexity.replications"] += out.replications


def _on_write_csv(tr, args, kwargs, out):
    rows = _bound(tr, "tableio.write_csv", args, kwargs)["rows"]
    tr.counts["cli.csv_rows"] += len(rows)


def _on_trace_write(tr, args, kwargs, out):
    tr.counts["cli.csv_rows"] += len(args[0].records)


def _on_ensemble(tr, args, kwargs, out):
    bound = _bound(tr, "walk.walk_ensemble_stats", args, kwargs)
    tr.counts["walk.ensemble_steps"] += bound["n"] * bound["reps"]


def _on_simulate(tr, args, kwargs, out):
    tr.counts["walk.ensemble_steps"] += len(out) - 1


def _on_couple(tr, args, kwargs, out):
    tr.counts["walk.coupling_steps"] += len(out) - 1


def _on_exact(tr, args, kwargs, out):
    tr.counts["walk.exact_calls"] += 1


def _bound(tr, name, args, kwargs):
    return tr.signatures[name].bind(*args, **kwargs).arguments


# (layer, module, attribute path, hook); span names are "<module>.<attribute>".
def _targets():
    t = [
        ("cli", "cli", "main", None),
        ("cli", "tableio", "write_csv", _on_write_csv),
        ("cli", "framework", "RunTrace.write_csv", _on_trace_write),
        ("framework", "framework", "run_adaptive", _on_run),
        ("methods", "methods", "SassMethod.propose", None),
        ("methods", "methods", "SassMethod.accepts", _on_accepts),
        ("methods", "methods", "StormMethod.propose", None),
        ("methods", "methods", "StormMethod.accepts", _on_accepts),
        ("oracles", "oracles", "minibatch_value", None),
        ("oracles", "oracles", "minibatch_grad", None),
        ("problems", "problems", "make_problem", None),
        ("problems", "problems", "Problem.sample_loss_batch", _on_sample),
        ("problems", "problems", "Problem.sample_grad_batch", _on_sample),
        ("complexity", "complexity", "monte_carlo_toc", _on_mc),
        ("complexity", "complexity", "storm_complexity_report", None),
        ("complexity", "complexity", "sass_complexity_report", None),
        ("walk", "walk", "walk_ensemble_stats", _on_ensemble),
        ("walk", "walk", "simulate_walk", _on_simulate),
        ("walk", "walk", "hitting_prob_exact", _on_exact),
        ("walk", "walk", "couple_with_trace", _on_couple),
        ("walk", "walk", "trace_exponents", None),
    ]
    t += [("problems", "problems", name, None) for name in _GROUND_TRUTH]
    t += [("walk", "walk", name, None) for name in _CLOSED_FORM]
    for suite in _SUITES:
        t.append(("oracles", "oracles", f"{suite}.gradient", _on_gradient))
        t.append(("oracles", "oracles", f"{suite}.values", _on_values))
    return t


class Tracer:
    """Records spans around adastoc calls while installed."""

    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[int] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.counts = collections.Counter()
        self.pending_samples = 0
        self.signatures: dict[str, inspect.Signature] = {}
        self._saved: list[tuple[object, str, object]] = []

    def oracle_call(self, samples: int, batch: int) -> None:
        c = self.counts
        c["oracles.calls"] += 1
        c["oracles.samples"] += samples
        c["oracles.max_batch"] = max(c["oracles.max_batch"], batch)
        self.pending_samples += samples

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sys.modules.items() if n == "adastoc" or n.startswith("adastoc.")]
        for layer, module, path, hook in _targets():
            name = f"{module}.{path}"
            owner = sys.modules[f"adastoc.{module}"]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            self.signatures[name] = inspect.signature(original)
            wrapper = self._wrap(original, name, layer, hook)
            if outer:  # a method: patch the class attribute
                self._patch(owner, attr, wrapper)
                continue
            # a function: patch every adastoc namespace that imported it
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, fn, name, layer, hook):
        nid = len(self.names)
        self.names.append(name)
        self.layer_of.append(LAYERS.index(layer))
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self.stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(tracer, args, kwargs, out)
            return out

        return traced

    # -- results ---------------------------------------------------------------

    def arrays(self):
        return (
            np.frombuffer(self.span_name, dtype=np.int32),
            np.frombuffer(self.span_parent, dtype=np.int32),
            np.frombuffer(self.span_start, dtype=np.float64),
            np.frombuffer(self.span_end, dtype=np.float64),
        )

    def save(self, path) -> None:
        name, parent, start, end = self.arrays()
        np.savez_compressed(
            path, names=np.array(self.names), name=name, parent=parent, start=start, end=end
        )

    def layer_metrics(self, traced_wall_s: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as {name: (value, unit)} over every span recorded."""
        name, parent, start, end = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_t = dur - child
        span_layer = np.asarray(self.layer_of, dtype=np.int64)[name]
        parent_layer = np.where(has_parent, span_layer[np.maximum(parent, 0)], -1)
        layer_self = np.bincount(span_layer, weights=self_t, minlength=len(LAYERS))

        def pick(names):
            ids = [i for i, n in enumerate(self.names) if n.split(".", 1)[1] in names]
            return np.isin(name, ids)

        def total(mask):
            return float(dur[mask].sum())

        c = self.counts
        L = {layer: float(layer_self[i]) for i, layer in enumerate(LAYERS)}
        suites = pick([f"{s}.{m}" for s in _SUITES for m in ("gradient", "values")])
        ground = pick(_GROUND_TRUTH) & (parent_layer == LAYERS.index("framework"))
        sampler = pick(_SAMPLERS)
        mc = pick(["monte_carlo_toc"])
        runs_in_mc = pick(["run_adaptive"]) & np.isin(parent, np.flatnonzero(mc))
        ensemble = pick(["walk_ensemble_stats", "simulate_walk"])
        writes = pick(["write_csv", "RunTrace.write_csv"])
        iterations = c["framework.iterations"]
        out = {
            "oracles.calls": (c["oracles.calls"], "count"),
            "oracles.self_s": (L["oracles"], "s"),
            "oracles.samples": (c["oracles.samples"], "count"),
            "oracles.ns_per_sample": (_ratio(1e9 * total(suites), c["oracles.samples"]), "ns"),
            "oracles.max_batch": (c["oracles.max_batch"], "count"),
            "oracles.wasted_sample_frac": (
                _ratio(c["oracles.wasted_samples"], c["oracles.samples"]),
                "ratio",
            ),
            "problems.make_s": (total(pick(["make_problem"])), "s"),
            "problems.ground_truth_calls": (int(ground.sum()), "count"),
            "problems.ground_truth_s": (total(ground), "s"),
            "problems.sample_calls": (int(sampler.sum()), "count"),
            "problems.sample_s": (total(sampler), "s"),
            "problems.sample_bytes": (c["problems.sample_bytes"], "bytes"),
            "problems.max_sample_bytes": (c["problems.max_sample_bytes"], "bytes"),
            "framework.runs": (c["framework.runs"], "count"),
            "framework.iterations": (iterations, "count"),
            "framework.self_s": (L["framework"], "s"),
            "framework.self_us_per_iter": (_ratio(1e6 * L["framework"], iterations), "us"),
            "framework.stopped_frac": (_ratio(c["framework.stopped"], c["framework.runs"]), "ratio"),
            "methods.propose_s": (total(pick(["SassMethod.propose", "StormMethod.propose"])), "s"),
            "methods.accepts_s": (total(pick(["SassMethod.accepts", "StormMethod.accepts"])), "s"),
            "methods.accept_ratio": (_ratio(c["methods.accepted"], c["methods.accepts"]), "ratio"),
            "complexity.replications": (c["complexity.replications"], "count"),
            "complexity.harness_self_s": (total(mc) - total(runs_in_mc), "s"),
            "complexity.bound_calls": (int(pick(_BOUNDS).sum()), "count"),
            "complexity.bound_s": (total(pick(_BOUNDS)), "s"),
            "walk.ensemble_steps": (c["walk.ensemble_steps"], "count"),
            "walk.ensemble_s": (total(ensemble), "s"),
            "walk.ns_per_step": (_ratio(1e9 * total(ensemble), c["walk.ensemble_steps"]), "ns"),
            "walk.exact_calls": (c["walk.exact_calls"], "count"),
            "walk.exact_s": (total(pick(["hitting_prob_exact"])), "s"),
            "walk.closed_form_s": (total(pick(_CLOSED_FORM)), "s"),
            "walk.coupling_steps": (c["walk.coupling_steps"], "count"),
            "walk.coupling_s": (total(pick(["couple_with_trace"])), "s"),
            "walk.trace_exponents_s": (total(pick(["trace_exponents"])), "s"),
            "cli.self_s": (L["cli"], "s"),
            "cli.csv_rows": (c["cli.csv_rows"], "count"),
            "cli.csv_write_s": (total(writes), "s"),
        }
        for layer in LAYERS:
            out[f"{layer}.self_share"] = (_ratio(L[layer], traced_wall_s), "ratio")
        out["trace.spans"] = (len(name), "count")
        return out


def _ratio(num, den) -> float:
    return float(num) / den if den else 0.0
