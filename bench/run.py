"""divot pipeline benchmark: one closed-loop caller, one verdict at a time.

    python3 bench/run.py --workload sweep-anm --seed 1 --seconds 20 --trace 0

Run from anywhere; divot is imported from `src/` beside this directory and
nowhere else. The inputs are generated from `--seed`, set-up is repeated
SETUP_REPEATS times, and then the workload's items are replayed in order for
at least `--seconds` and at least one full pass. Every output is checked, and
a replayed item must reproduce its first output exactly.

`--trace 0` reports the end-to-end metrics. `--trace 1` runs every item
untraced and then traced, pass after pass, and reports the per-layer metrics
of one traced set-up plus one pass; see README.md. The last line of standard
output is the JSON result.
"""
from __future__ import annotations

import os

# one thread per process in every BLAS/OpenMP runtime, set before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import time

_T_START = time.perf_counter()

import argparse
import contextlib
import hashlib
import io
import json
import math
import platform
import resource
import statistics
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np

import layers

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
DECISIONS = ("x->y", "y->x", "independent")


class CheckError(Exception):
    """An output failed the benchmark's validity check."""


def _finite(name, value):
    if value is None or not math.isfinite(value):
        raise CheckError(f"{name} is not finite: {value!r}")


def _check_bivariate(decision, fields, p_value, bootstrapped):
    if decision not in DECISIONS:
        raise CheckError(f"unknown decision {decision!r}")
    for name, value in fields.items():
        _finite(name, value)
    if bootstrapped and not (p_value is not None and 0.0 <= p_value <= 1.0):
        raise CheckError(f"p_value outside [0, 1]: {p_value!r}")


# ------------------------------------------------------------------ workloads
#
# A workload generates items from the seed (`prepare`), runs one verdict on an
# item (`run`), and turns an output into its digest text plus one bool per
# ground-truth unit, true where the output matches it (`check`, which raises
# CheckError on an invalid output). `expected_calls` gives exact span counts per verdict that
# the traced run asserts.


class BootN1000:
    """`divot infer` in-process on n=1000 pair files, with a B=50 bootstrap.

    Why: pairdata.make_batches takes about 69% of a verdict, workspaces about
    19% and the fit about 5%; each verdict calls make_batches 102 times
    (2 + 2*50). This is where sorted-window batching and stacked bootstrap
    replicates must show. It also times load_pairs and the JSON record.
    """

    def __init__(self, smoke):
        self.items_n, self.n, self.b = (2, 200, 4) if smoke else (24, 1000, 50)

    def prepare(self, seed, work):
        from divot import synth
        from divot.synth import MECHANISMS, GeneratorSpec

        rng = np.random.default_rng(seed)
        items = []
        for k in range(self.items_n):
            mech = MECHANISMS[k % len(MECHANISMS)]
            swap = (k // len(MECHANISMS)) % 2 == 1
            pairs = synth.generate(GeneratorSpec(mechanism=mech, n=self.n, seed=_draw(rng)))
            xs, ys = (pairs.ys, pairs.xs) if swap else (pairs.xs, pairs.ys)
            path = os.path.join(work, f"pair{k:02d}.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.writelines(f"{x!r} {y!r}\n" for x, y in zip(xs.tolist(), ys.tolist()))
            argv = ["infer", path, "--bootstrap", str(self.b), "--max-n", str(self.n),
                    "--seed", str(_draw(rng))]
            items.append((argv, "y->x" if swap else "x->y"))
        return items

    def run(self, item):
        from divot import cli

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(item[0])
        return code, out.getvalue(), err.getvalue()

    def check(self, item, out):
        code, text, err = out
        if code != 0:
            raise CheckError(f"infer exited {code}: {err.strip()}")
        record = json.loads(text)
        _check_bivariate(record["decision"],
                         {k: record[k] for k in ("loss_xy", "loss_yx", "raw_xy", "raw_yx",
                                                 "theta_xy", "theta_yx")},
                         record["p_value"], bootstrapped=True)
        # the digest keeps the record's bytes, minus the run's work directory
        record["file"] = os.path.basename(record["file"])
        return json.dumps(record, indent=2, sort_keys=True), [record["decision"] == item[1]]

    def expected_calls(self, item):
        return {"pairdata.make_batches": 2 + 2 * self.b, "decide.bootstrap": 1}


class _DivotWorkload:
    """Shared run and check for workloads that call divot() on SamplePairs."""

    mode = "anm"

    def run(self, item):
        from divot import decide

        pairs, seed, _truth = item
        return decide.divot(pairs, decide.ScoreConfig(mode=self.mode), seed=seed)

    def check(self, item, verdict):
        fields = {}
        for tag, score in (("xy", verdict.score_xy), ("yx", verdict.score_yx)):
            fields[f"loss_{tag}"] = score.loss
            fields[f"raw_{tag}"] = score.measure.raw
            fields[f"theta_{tag}"] = score.theta
            for j, v in enumerate(score.omega or ()):
                fields[f"omega{j}_{tag}"] = v
        _check_bivariate(verdict.decision, fields, verdict.p_value, bootstrapped=False)
        text = verdict.decision + " " + " ".join(f"{k}={v!r}" for k, v in fields.items())
        return text, [verdict.decision == item[2]]

    def expected_calls(self, item):
        return {"pairdata.make_batches": 2, "optimize.fit": 2}


class PnlN500(_DivotWorkload):
    """divot(mode="pnl"), no bootstrap, on n=500 pairs.

    Why: optimize.fit_joint takes about 95% of a verdict and batching under
    2%; many fits hit max_iters=500 without converging. This is the optimiser
    workload and the bypass for batching changes. It uses divergence the
    opposite way to boot-n1000: 2 workspaces with ~700 evaluations each,
    against 102 workspaces with ~2 evaluations each.
    """

    mode = "pnl"

    def __init__(self, smoke):
        self.items_n, self.n = (4, 100) if smoke else (96, 500)

    def prepare(self, seed, work):
        from divot import pairdata, synth
        from divot.synth import MECHANISMS, GeneratorSpec

        rng = np.random.default_rng(seed)
        items = []
        for k in range(self.items_n):
            mech = MECHANISMS[k % len(MECHANISMS)]
            swap = (k // len(MECHANISMS)) % 2 == 1
            pairs = synth.generate(GeneratorSpec(mechanism=mech, n=self.n, seed=_draw(rng)))
            vseed = _draw(rng)
            pre = pairdata.preprocess(pairs.swapped() if swap else pairs, self.n, seed=vseed)
            items.append((pre, vseed, "y->x" if swap else "x->y"))
        return items


class SweepAnm(_DivotWorkload):
    """The default `bench --suite synthetic` grid through divot(), anm mode.

    Why: 4 mechanisms x n in {100, 200, 500} x 100 reps = 1200 verdicts, no
    bootstrap: the default `infer` path. Short verdicts, overhead-bound:
    batching about 50%, workspace plus noise draws about 35%, fit about 8%.
    Its runs have the most verdicts, so its p90 is the best sampled, and
    n=100 accuracy (acceptance criterion 5) lives here.
    """

    def __init__(self, smoke):
        self.sizes, self.reps = ((100,), 2) if smoke else ((100, 200, 500), 100)

    def prepare(self, seed, work):
        from divot import pairdata, synth
        from divot.synth import MECHANISMS, GeneratorSpec

        rng = np.random.default_rng(seed)
        items = []
        for mech in MECHANISMS:
            for n in self.sizes:
                for _ in range(self.reps):
                    pairs = synth.generate(GeneratorSpec(mechanism=mech, n=n, seed=_draw(rng)))
                    vseed = _draw(rng)
                    items.append((pairdata.preprocess(pairs, 500, seed=vseed), vseed, "x->y"))
        return items


class OrientChain6:
    """orient_skeleton on a 6-variable chain x_{j+1} = sin(2 x_j) + 0.5 U(0,1), n=500.

    Why: the only workload that reaches multivar. Each call makes 192
    variable_term calls for 20 distinct families, so a family cache shows here
    and nowhere else. Columns are shuffled so the true edge directions do not
    follow the column order that orient_skeleton breaks ties by.
    """

    m = 6

    def __init__(self, smoke):
        self.items_n, self.n = (1, 100) if smoke else (28, 500)

    def prepare(self, seed, work):
        from divot.multivar import Skeleton

        rng = np.random.default_rng(seed)
        items = []
        for _ in range(self.items_n):
            chain = np.empty((self.n, self.m))
            chain[:, 0] = rng.uniform(-1.0, 1.0, self.n)
            for j in range(self.m - 1):
                chain[:, j + 1] = np.sin(2.0 * chain[:, j]) + 0.5 * rng.random(self.n)
            col = rng.permutation(self.m)  # chain variable j is data column col[j]
            data = np.empty_like(chain)
            data[:, col] = (chain - chain.mean(axis=0)) / chain.std(axis=0, ddof=1)
            truth = {(int(col[j]), int(col[j + 1])) for j in range(self.m - 1)}
            skeleton = Skeleton(self.m, tuple(truth))
            items.append((data, skeleton, _draw(rng), truth))
        return items

    def run(self, item):
        from divot import multivar

        data, skeleton, seed, _truth = item
        return multivar.orient_skeleton(data, skeleton, seed=seed)

    def check(self, item, result):
        _data, skeleton, _seed, truth = item
        edges = result.dag.edges
        if sorted(tuple(sorted(e)) for e in edges) != list(skeleton.edges):
            raise CheckError(f"orientation {edges} does not cover skeleton {skeleton.edges}")
        if not _acyclic(self.m, edges):
            raise CheckError(f"orientation {edges} has a cycle")
        _finite("score", result.score)
        scores = [score for _, score in result.ranking]
        if len(scores) != 2 ** len(skeleton.edges) or scores[0] != result.score:
            raise CheckError("ranking does not list every orientation with the best first")
        for score in scores:
            _finite("ranked score", score)
        text = f"{sorted(edges)} score={result.score!r}"
        return text, [e in truth for e in edges]

    def expected_calls(self, item):
        skeleton = item[1]
        degree = Counter(v for e in skeleton.edges for v in e)
        # a tree: every orientation is acyclic, every neighbour subset a family
        return {"multivar.variable_term": self.m * 2 ** len(skeleton.edges),
                "families": sum(2 ** degree[v] for v in range(self.m))}


WORKLOADS = {
    "boot-n1000": BootN1000,
    "pnl-n500": PnlN500,
    "sweep-anm": SweepAnm,
    "orient-chain6": OrientChain6,
}


def _draw(rng):
    return int(rng.integers(0, 2**31 - 1))


def _acyclic(m, edges):
    indeg = Counter(v for _, v in edges)
    ready = [v for v in range(m) if indeg[v] == 0]
    seen = 0
    while ready:
        u = ready.pop()
        seen += 1
        for a, b in edges:
            if a == u:
                indeg[b] -= 1
                if indeg[b] == 0:
                    ready.append(b)
    return seen == m


# ------------------------------------------------------------------ running

# Calibration. The host's speed drifts by 20% and more over minutes, with
# other tenants' load, and no estimator over the workload's own times removes
# that. A fixed kernel of numpy and Python work that does not use divot runs
# between verdicts, and every reported time is scaled by
# CALIBRATION_REF_S / (the kernel's mean time in this run): it reads as time
# on a host where the kernel takes CALIBRATION_REF_S, which is its typical
# time on the 2-CPU Intel Xeon VM the bounds were set on. Raw times are
# printed beside the scaled ones.
CALIBRATION_REF_S = 0.003
CALIBRATE_EVERY_S = 0.25
CALIBRATION_CALLS = 4


class Calibration:
    """The fixed kernel: k-nearest selection by argsort and row sorts."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._x = rng.standard_normal(500)
        self._positions = np.linspace(-2.0, 2.0, 50)
        self._stack = rng.standard_normal((50, 25))
        self.seconds = 0.0
        self.calls = 0

    def _kernel(self):
        acc = 0.0
        for p in self._positions:
            nearest = np.argsort(np.abs(self._x - p), kind="stable")
            acc += sum(sorted(nearest[:25].tolist()))
            rows = np.sort(self._stack + p, axis=1)
            acc += float((rows - rows.mean(axis=1, keepdims=True)).sum())
        return acc

    def run(self):
        """Time CALIBRATION_CALLS kernel calls; return the seconds they took."""
        t0 = time.perf_counter()
        for _ in range(CALIBRATION_CALLS):
            self._kernel()
        elapsed = time.perf_counter() - t0
        self.seconds += elapsed
        self.calls += CALIBRATION_CALLS
        return elapsed

    @property
    def scale(self):
        """Multiplier from this host's seconds to reference seconds."""
        return CALIBRATION_REF_S / (self.seconds / self.calls)


class Pass:
    """Outcome of replaying items: per-verdict wall times and checked outputs."""

    def __init__(self):
        self.durations = []
        self.texts = []  # digest text per verdict, None when it failed
        self.hits = []  # per verdict: list of bools against ground truth
        self.errors = []
        self.wall = 0.0

    @property
    def failed(self):
        return sum(t is None for t in self.texts)


def replay(workload, items, seconds, on_verdict=None, calibration=None):
    """Run items in order, cycling, until `seconds` passed and one pass ended.

    Outputs are checked after the timed phase, so checking is not timed. With
    a `calibration`, its kernel runs between verdicts every CALIBRATE_EVERY_S
    and its time is left out of the pass's wall time.
    """
    outputs = []
    durations = []
    start = time.perf_counter()
    calibrated = 0.0
    next_calibration = start
    i = 0
    while i < len(items) or time.perf_counter() - start < seconds:
        if calibration is not None and time.perf_counter() >= next_calibration:
            calibrated += calibration.run()
            next_calibration = time.perf_counter() + CALIBRATE_EVERY_S
        if on_verdict is not None:
            on_verdict(i)
        t0 = time.perf_counter()
        try:
            out = workload.run(items[i % len(items)])
        except Exception as exc:  # a raising verdict is a failed one, not a crash
            out = exc
        durations.append(time.perf_counter() - t0)
        outputs.append(out)
        i += 1
    result = Pass()
    result.wall = time.perf_counter() - start - calibrated
    result.durations = durations
    for i, out in enumerate(outputs):
        text, hits = None, []
        try:
            if isinstance(out, Exception):
                raise CheckError(f"{type(out).__name__}: {out}")
            text, hits = workload.check(items[i % len(items)], out)
        except (CheckError, KeyError, TypeError, ValueError) as exc:
            result.errors.append(f"item {i % len(items)}: {exc}")
        result.texts.append(text)
        result.hits.append(hits)
    return result


def digest(texts):
    h = hashlib.sha256()
    for text in texts:
        h.update(b"\0" if text is None else text.encode() + b"\n")
    return h.hexdigest()[:16]


def setup(workload, seed, work):
    """Generate the inputs, then run one untimed warm-up verdict."""
    items = workload.prepare(seed, work)
    warm = replay(workload, items[:1], 0.0)
    return items, warm


def first_pass_stats(p, n_items):
    """Accuracy and digest of the first pass; later passes must repeat it."""
    texts = p.texts[:n_items]
    hits = [h for verdict in p.hits[:n_items] for h in verdict]
    mismatched = sum(
        1 for i, text in enumerate(p.texts[n_items:], start=n_items)
        if text is not None and text != texts[i % n_items]
    )
    if mismatched:
        p.errors.append(f"{mismatched} replayed verdict(s) differ from the first pass")
    return sum(hits) / len(hits), digest(texts), mismatched


def run_untraced(workload, items, seconds, calibration, raw_setup_s):
    p = replay(workload, items, seconds, calibration=calibration)
    accuracy, dig, mismatched = first_pass_stats(p, len(items))
    attempted = len(p.durations)
    failed = p.failed + mismatched
    raw = {
        "verdicts_per_s": (attempted - failed) / p.wall,
        "verdict_s.p50": statistics.median(p.durations),
        "setup_s": raw_setup_s,
    }
    scale = calibration.scale
    metrics = {
        "verdicts_per_s": raw["verdicts_per_s"] / scale,
        "verdict_s.p50": raw["verdict_s.p50"] * scale,
        "setup_s": raw_setup_s * scale,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "accuracy": accuracy,
    }
    notes = {"samples": (attempted, "count"), "passes": (attempted / len(items), "count"),
             "digest": (dig, ""), "failed_frac": (failed / attempted, "ratio"),
             "calibration.scale": (scale, "")}
    if attempted >= 100:  # at least ten samples beyond the 90th percentile
        notes["verdict_s.p90"] = (statistics.quantiles(p.durations, n=10)[-1] * scale, "s")
    notes.update({f"{name}.raw": (value, END_TO_END_UNITS[name]) for name, value in raw.items()})
    return metrics, attempted, failed, p.errors, notes


def run_traced(workload, seed, items, work, seconds):
    """Run each item untraced, then traced, in passes; check one against the other.

    Interleaving by verdict gives both runs of an item the same host speed,
    so the overhead ratio does not follow the host's drift.
    """
    tracer = layers.Tracer()
    errors = []
    with tracer:
        workload.prepare(seed, work)
    setup_totals, _ = tracer.fold()
    loop_totals = layers.Totals()
    walls = {"untraced": 0.0, "traced": 0.0}
    attempted = failed = passes = 0
    first_counts = None
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < seconds:
        bad = set()
        texts = []
        for i, item in enumerate(items):
            plain = replay(workload, [item], 0.0)
            with tracer:
                tracer.verdict = i
                traced = replay(workload, [item], 0.0)
                tracer.verdict = None
            walls["untraced"] += plain.wall
            walls["traced"] += traced.wall
            errors += plain.errors + traced.errors
            texts.append(plain.texts[0])
            if plain.texts[0] is None or traced.texts[0] is None:
                bad.add(i)
            elif traced.texts[0] != plain.texts[0]:
                errors.append(f"item {i}: traced output differs from untraced")
                bad.add(i)
        totals, per_verdict = tracer.fold()
        for i, item in enumerate(items):
            for span, want in workload.expected_calls(item).items():
                got = per_verdict.get(i, Counter())[span]
                if got != want:
                    errors.append(f"item {i}: {span} ran {got} times, expected {want}")
                    bad.add(i)
        counts = (dict(totals.calls), dict(totals.counts))
        if first_counts is None:
            first_counts = counts
        elif counts != first_counts:
            errors.append(f"pass {passes}: span counts differ from the first traced pass")
            bad.update(range(len(items)))
        attempted += 2 * len(items)
        failed += len(bad)
        loop_totals.add(totals)
        passes += 1
    one = layers.Totals()
    one.add(setup_totals)
    one.add(loop_totals, 1.0 / passes)
    metrics = layers.layer_metrics(one, walls["traced"] / walls["untraced"] - 1.0)
    notes = {"passes": (passes, "count"), "verdicts_per_pass": (len(items), "count"),
             "digest": (digest(texts), "")}
    return metrics, attempted, failed, errors, notes


def environment():
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    src = hashlib.sha256()
    for path in sorted((SRC / "divot").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_revision": _git_revision(),
        "src_sha256": src.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def _git_revision():
    """HEAD of the checkout's own .git, or None outside a git checkout."""
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
    return None


END_TO_END_UNITS = {
    "verdicts_per_s": "1/s",
    "verdict_s.p50": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "accuracy": "ratio",
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (SRC / "divot" / "__init__.py").is_file():
        print(f"error: no divot sources at {SRC / 'divot'}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import divot

    if Path(divot.__file__).resolve().parent != SRC / "divot":
        print(f"error: divot imported from {divot.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _T_START

    workload = WORKLOADS[args.workload](args.smoke)
    with tempfile.TemporaryDirectory(prefix=".run-", dir=BENCH_DIR) as work:
        calibration = Calibration()
        setup_times = []
        warm_failed = 0
        warm_errors = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            items, warm = setup(workload, args.seed, work)
            setup_times.append(time.perf_counter() - t0)
            warm_failed += warm.failed
            warm_errors += warm.errors
            calibration.run()
        raw_setup_s = import_s + statistics.median(setup_times)
        if args.trace:
            metrics, attempted, failed, errors, notes = run_traced(
                workload, args.seed, items, work, args.seconds)
            units = layers.UNITS
        else:
            metrics, attempted, failed, errors, notes = run_untraced(
                workload, items, args.seconds, calibration, raw_setup_s)
            units = END_TO_END_UNITS
    attempted += SETUP_REPEATS
    failed += warm_failed
    errors = warm_errors + errors

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"items={len(items)} attempted={attempted} failed={failed}")
    print("env " + json.dumps(environment(), sort_keys=True))
    print(f"  setup_s (import {import_s:.4f} s + median of {SETUP_REPEATS} set-ups "
          f"{', '.join(f'{t:.4f}' for t in setup_times)})")
    for key, (value, unit) in notes.items():
        print(f"  {key} = {value} {unit}".rstrip())
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    for line in errors[:20]:
        print(f"  check failed: {line}")
    result = {
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
