"""Time `nearest_batches` per call on fixed pair and discrete inputs.

    python3 scripts/bench_batching.py [--src PARENT/src] [--rounds 151] [--calls 20]
                                      [--out BENCH_batching.json]

Each input is a preprocessed column (z-scored, trimmed at 2 sd) with the
positions and batch size `make_batches` would use on it: continuous sine
pairs at n = 100, 200, 500 and 1000 with a bootstrap replicate of the last
(rows repeat), and n = 1000 columns on discrete grids (integers 0..20 and
0..200, a normal rounded to one and to two decimals), where distances tie.
A round times `--calls` back-to-back calls; the median and quartiles are
over `--rounds` rounds. With `--src`, the divot package in that directory
(another checkout's `src`) is timed as the before side, in the same process,
alternating with this checkout's in every round, and `after_over_before` is
the median over rounds of the two sides' ratio in that round: many short
rounds let a drift of the host fall on both sides alike. Batches must be
equal on both sides. The result, in microseconds a call, goes to `--out`
(BENCH_batching.json at the root of this repository by default), with the
host and this checkout's revision as `bench/run.py` reports them and the git
HEAD of the `--src` checkout.
"""
from __future__ import annotations

import argparse
import importlib
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from bench_pairs import git_revision, summary

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
from run import environment  # noqa: E402  (bench/run.py, beside its `layers`)


def load_divot(src: Path):
    """Import divot from `src`, dropping any divot imported before."""
    for name in [m for m in sys.modules if m == "divot" or m.startswith("divot.")]:
        del sys.modules[name]
    sys.path.insert(0, str(src))
    try:
        return importlib.import_module("divot")
    finally:
        sys.path.remove(str(src))


def make_inputs(divot) -> dict[str, tuple]:
    """(x, positions, k, stable order of x) per input name."""
    rng = np.random.default_rng(20)
    inputs = {}
    for n in (100, 200, 500, 1000):
        raw = divot.generate(divot.GeneratorSpec(mechanism="sine", n=n, seed=n + 3))
        inputs[f"pair-n{n}"] = divot.preprocess(raw, max_n=n, seed=1)
    pair = inputs["pair-n1000"]
    counts = np.bincount(rng.integers(0, pair.n, pair.n), minlength=pair.n)
    inputs["bootstrap-n1000"] = pair.resample(counts)
    normal = rng.normal(size=1000)
    grids = {
        "grid-0..20": rng.integers(0, 21, 1000).astype(float),
        "grid-0..200": rng.integers(0, 201, 1000).astype(float),
        "normal-1dp": np.round(normal, 1),
        "normal-2dp": np.round(normal, 2),
    }
    ys = rng.normal(size=1000)
    for name, xs in grids.items():
        inputs[name] = divot.preprocess(divot.SamplePair(xs, ys), max_n=1000, seed=1)
    out = {}
    for name, p in inputs.items():
        k = divot.pairdata.rows_per_batch(p.n, None)
        out[name] = (p.xs, divot.select_positions(p), k, p.by_x)
    return out


def time_calls(fn, args, calls: int) -> float:
    """Mean seconds per call over `calls` back-to-back calls."""
    t0 = time.perf_counter()
    for _ in range(calls):
        fn(*args)
    return (time.perf_counter() - t0) / calls


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=None,
                        help="directory holding the divot package to time as the before side")
    parser.add_argument("--rounds", type=int, default=151)
    parser.add_argument("--calls", type=int, default=20)
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_batching.json",
                        help="where the JSON report goes")
    args = parser.parse_args(argv)
    if args.rounds < 2 or args.calls < 1:
        parser.error("need --rounds >= 2 and --calls >= 1")

    sides = {"after": (ROOT / "src").resolve()}
    if args.src is not None:
        sides = {"before": args.src.resolve(), **sides}
    inputs = make_inputs(load_divot(sides["after"]))
    batchers = {side: load_divot(src).pairdata.nearest_batches for side, src in sides.items()}
    results = {}
    for name, (x, positions, k, order) in inputs.items():
        call = (x, positions, k, order)
        outs = {side: fn(*call) for side, fn in batchers.items()}
        if len({o.tobytes() for o in outs.values()}) != 1:
            raise SystemExit(f"{name}: the two sides' batches differ")
        times = {side: [] for side in sides}
        for r in range(args.rounds):
            for side in (list(sides) if r % 2 == 0 else list(sides)[::-1]):
                times[side].append(time_calls(batchers[side], call, args.calls))
        entry = {"n": len(x), "k": k, "positions": len(positions)}
        for side, ts in times.items():  # the quartiles, without every round's time
            entry[side] = {key: v for key, v in summary([t * 1e6 for t in ts]).items()
                           if key != "runs"}
        if "before" in entry:
            entry["after_over_before"] = statistics.median(
                a / b for a, b in zip(times["after"], times["before"]))
        results[name] = entry
        print(f"{name}: " + ", ".join(f"{side} {entry[side]['median']:.1f} us"
                                      for side in sides), file=sys.stderr)
    report = {"environment": environment(), "rounds": args.rounds, "calls": args.calls,
              "unit": "us", "inputs": results}
    if args.src is not None:
        report["before_git_revision"] = git_revision(sides["before"].parent)
    args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
