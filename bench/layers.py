"""Spans and counters around divot's layers, installed from outside the package.

`from module import name` binds a function once per importing module, so a
layer is traced by replacing the name in every module that calls it, not only
in the module that defines it. `SITES` lists each such binding on the paths
the benchmark drives. Spans stay in memory until `fold` turns them into
per-layer totals at the end of a traced phase.
"""
from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

# (module whose global is replaced, global name, span name)
SITES = (
    # called by the benchmark itself
    ("divot.synth", "generate", "synth.generate"),
    ("divot.pairdata", "preprocess", "pairdata.preprocess"),
    ("divot.cli", "main", "cli.infer"),
    ("divot.decide", "divot", "decide.divot"),
    ("divot.multivar", "orient_skeleton", "multivar.orient_skeleton"),
    # called inside divot
    ("divot.cli", "load_pairs", "pairdata.load_pairs"),
    ("divot.cli", "preprocess", "pairdata.preprocess"),
    ("divot.cli", "divot", "decide.divot"),
    ("divot.decide", "bootstrap_test", "decide.bootstrap"),
    ("divot.decide", "score_direction", "decide.score_direction"),
    ("divot.decide", "make_batches", "pairdata.make_batches"),
    ("divot.pairdata", "nearest_batches", "pairdata.nearest_batches"),
    ("divot.multivar", "nearest_batches", "pairdata.nearest_batches"),
    ("divot.decide", "workspace_from_batches", "divergence.workspace_from_batches"),
    ("divot.divergence", "build_workspace", "divergence.build_workspace"),
    ("divot.multivar", "build_workspace", "divergence.build_workspace"),
    ("divot.divergence", "draw_source_batches", "noise.draw"),
    ("divot.decide", "fit_joint", "optimize.fit"),
    ("divot.multivar", "fit_theta", "optimize.fit"),
    ("divot.optimize", "measure_value", "divergence.measure"),
    ("divot.optimize", "measure_with_grad", "divergence.measure"),
    ("divot.divergence", "measure_value", "divergence.measure"),
    ("divot.multivar", "measure_value", "divergence.measure"),
    ("divot.multivar", "multivariate_measure", "multivar.multivariate_measure"),
    ("divot.multivar", "variable_term", "multivar.variable_term"),
)

UNITS = {
    "pairdata.make_batches.self_s": "s",
    "pairdata.nearest_batches.self_s": "s",
    "pairdata.make_batches.calls": "count",
    "pairdata.rows_batched": "count",
    "pairdata.load_pairs.self_s": "s",
    "pairdata.preprocess.self_s": "s",
    "divergence.workspace.self_s": "s",
    "divergence.workspace.calls": "count",
    "noise.draw.self_s": "s",
    "divergence.measure_evals": "count",
    "divergence.measure.self_s": "s",
    "optimize.fit.self_s": "s",
    "optimize.fit.calls": "count",
    "optimize.fit.iterations": "count",
    "optimize.fit.converged_ratio": "ratio",
    "decide.bootstrap.self_s": "s",
    "decide.bootstrap.replicates": "count",
    "decide.score_direction.calls": "count",
    "multivar.variable_term.self_s": "s",
    "multivar.variable_term.calls": "count",
    "multivar.families.distinct": "count",
    "multivar.family_reuse": "ratio",
    "multivar.orientations_scored": "count",
    "cli.infer.self_s": "s",
    "synth.generate.self_s": "s",
    "trace.overhead_frac": "ratio",
}


@dataclass
class Totals:
    """Self time and call count per span name, plus counters read from results."""

    self_s: defaultdict = field(default_factory=lambda: defaultdict(float))
    calls: Counter = field(default_factory=Counter)
    counts: Counter = field(default_factory=Counter)

    def add(self, other: "Totals", scale: float = 1.0):
        for name, value in other.self_s.items():
            self.self_s[name] += value * scale
        for name, value in other.calls.items():
            self.calls[name] += value * scale
        for name, value in other.counts.items():
            self.counts[name] += value * scale


class Tracer:
    """Records one span per wrapped call and folds spans into `Totals`.

    Single-threaded: the span stack gives each span its parent, and a span's
    self time is its duration minus the durations of its direct children,
    which lie inside it.
    """

    def __init__(self):
        self.verdict = None  # id of the verdict being traced; None in set-up
        self._spans = []  # (name, start, end, parent index, verdict)
        self._stack = []
        self._saved = []
        self._counts = Counter()
        self._families = defaultdict(set)  # verdict -> {(variable, parents)}

    def __enter__(self):
        for module_name, attr, span in SITES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(span, original))
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        return False

    def _wrap(self, span, fn):
        spans, stack = self._spans, self._stack
        observe = _OBSERVERS.get(span)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (span, start, end, parent, self.verdict)
            if observe is not None:
                observe(self, args, out)
            return out

        return traced

    def fold(self) -> tuple[Totals, dict]:
        """Turn the recorded spans into totals and clear them.

        Also returns, per verdict id, the call count of each span name plus
        the number of distinct multivar families under "families".
        """
        totals = Totals(counts=self._counts)
        per_verdict = defaultdict(Counter)
        covered = [0.0] * len(self._spans)
        for _, start, end, parent, _ in self._spans:
            if parent >= 0:
                covered[parent] += end - start
        for (name, start, end, _, verdict), child in zip(self._spans, covered):
            totals.self_s[name] += (end - start) - child
            totals.calls[name] += 1
            if verdict is not None:
                per_verdict[verdict][name] += 1
        for verdict, families in self._families.items():
            per_verdict[verdict]["families"] = len(families)
            totals.counts["families_distinct"] += len(families)
        self._spans.clear()
        self._families.clear()
        self._counts = Counter()
        return totals, dict(per_verdict)


def layer_metrics(t: Totals, overhead_frac: float) -> dict:
    """The per-layer metrics (name -> value) from folded totals."""
    s, c, n = t.self_s, t.calls, t.counts
    fits = c["optimize.fit"]
    var_calls = c["multivar.variable_term"]
    values = {
        "pairdata.make_batches.self_s": s["pairdata.make_batches"],
        "pairdata.nearest_batches.self_s": s["pairdata.nearest_batches"],
        "pairdata.make_batches.calls": c["pairdata.make_batches"],
        "pairdata.rows_batched": n["rows_batched"],
        "pairdata.load_pairs.self_s": s["pairdata.load_pairs"],
        "pairdata.preprocess.self_s": s["pairdata.preprocess"],
        "divergence.workspace.self_s": (s["divergence.build_workspace"]
                                        + s["divergence.workspace_from_batches"]),
        "divergence.workspace.calls": c["divergence.build_workspace"],
        "noise.draw.self_s": s["noise.draw"],
        "divergence.measure_evals": c["divergence.measure"],
        "divergence.measure.self_s": s["divergence.measure"],
        "optimize.fit.self_s": s["optimize.fit"],
        "optimize.fit.calls": fits,
        "optimize.fit.iterations": n["fit_iterations"],
        # a ratio with no fits or no variable terms behind it reads 0
        "optimize.fit.converged_ratio": n["fit_converged"] / fits if fits else 0.0,
        "decide.bootstrap.self_s": s["decide.bootstrap"],
        "decide.bootstrap.replicates": n["bootstrap_replicates"],
        "decide.score_direction.calls": c["decide.score_direction"],
        "multivar.variable_term.self_s": s["multivar.variable_term"],
        "multivar.variable_term.calls": var_calls,
        "multivar.families.distinct": n["families_distinct"],
        "multivar.family_reuse": n["families_distinct"] / var_calls if var_calls else 0.0,
        "multivar.orientations_scored": c["multivar.multivariate_measure"],
        "cli.infer.self_s": s["cli.infer"],
        "synth.generate.self_s": s["synth.generate"],
        "trace.overhead_frac": overhead_frac,
    }
    assert values.keys() == UNITS.keys()
    return values


def _observe_batches(tracer, args, out):
    tracer._counts["rows_batched"] += sum(len(b) for b in out)


def _observe_fit(tracer, args, out):
    # multivar's fit_theta returns only theta: a closed-form fit, so it
    # counts as one converged fit with no iterations, as fit_joint reports it
    tracer._counts["fit_iterations"] += getattr(out, "iterations", 0)
    tracer._counts["fit_converged"] += int(getattr(out, "converged", True))


def _observe_bootstrap(tracer, args, out):
    tracer._counts["bootstrap_replicates"] += out.b


def _observe_variable_term(tracer, args, out):
    _data, i, parents = args[:3]
    tracer._families[tracer.verdict].add((i, tuple(parents)))


_OBSERVERS = {
    "pairdata.nearest_batches": _observe_batches,
    "optimize.fit": _observe_fit,
    "decide.bootstrap": _observe_bootstrap,
    "multivar.variable_term": _observe_variable_term,
}
