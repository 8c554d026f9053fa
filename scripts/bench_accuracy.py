"""Accuracy of divot's pnl verdicts on held-out synthetic cells, with Wilson 95% intervals.

    python3 scripts/bench_accuracy.py [--src DIR] [--label NAME] [--out PATH]

Every cell has n = 500 and truth x->y, and is scored by `divot()` in `pnl`
mode without a bootstrap:
- `pnl/<f2>/<f1>`: the post-nonlinear family y = f2(f1(x) + e), e uniform,
  for f1 in linear, cubic, sine and f2 in cuberoot, exp, tanh, sigmoid;
- `anm/<f1>`: the four mechanisms with no post-nonlinearity.
Each cell has REPS reps, 100-199. Rep r draws its pair from seed
1000 * r + n, preprocesses it with seed r and scores it with seed r, as
acceptance criterion 5 does; no cell reads the criterion's reps 0-99.

The pairs always come from this checkout's `synth`, loaded under a name of
its own, so a checkout whose `GeneratorSpec` has no `post` is scored on the
same pairs; the verdicts come from the divot package in `--src` (default:
this checkout's). Per cell the run records the count, the rate, the Wilson
95% interval and the seeds; per run, the git revision and source hash of
`--src`'s checkout. The run is merged into `--out` (BENCH_accuracy.json at
the root of this repository by default) under `--label`, beside the runs of
other labels.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import math
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
N = 500
FIRST_REP = 100
REPS = 100
F1 = ("linear", "cubic", "sine")
F2 = ("cuberoot", "exp", "tanh", "sigmoid")
MECHANISMS = ("linear", "cubic", "sine", "piecewise")
Z95 = 1.959963984540054


def wilson(correct: int, count: int) -> list[float]:
    """The Wilson score 95% interval of a rate correct / count."""
    p = correct / count
    scale = 1.0 + Z95 * Z95 / count
    centre = (p + Z95 * Z95 / (2 * count)) / scale
    half = Z95 / scale * math.sqrt(p * (1.0 - p) / count + Z95 * Z95 / (4 * count * count))
    return [max(0.0, centre - half), min(1.0, centre + half)]


def local_synth():
    """This checkout's `divot.synth`, imported as the package `divot_data`."""
    pkg = ROOT / "src" / "divot"
    spec = importlib.util.spec_from_file_location(
        "divot_data", pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules["divot_data"] = module
    spec.loader.exec_module(module)
    return module.synth


def cells():
    """(cell name, mechanism f1, post-nonlinearity f2) of every cell."""
    for f2 in F2:
        for f1 in F1:
            yield f"pnl/{f2}/{f1}", f1, f2
    for f1 in MECHANISMS:
        yield f"anm/{f1}", f1, "identity"


def revision(src: Path) -> dict:
    """The git revision of the checkout holding `src` (with "-dirty" when its
    `src` has uncommitted changes; None outside git) and the sha256 of its
    divot sources, as `bench/run.py` computes it."""
    checkout = src.resolve().parent
    git = None
    if (checkout / ".git").exists():
        head = subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False).stdout.strip()
        dirty = subprocess.run(["git", "-C", str(checkout), "status", "--porcelain", "--",
                                "src"], capture_output=True, text=True, check=False).stdout
        git = (head + "-dirty" if dirty.strip() else head) or None
    digest = hashlib.sha256()
    for path in sorted((src / "divot").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_revision": git, "src_sha256": digest.hexdigest()[:16]}


def run(divot, synth) -> dict:
    config = divot.ScoreConfig(mode="pnl")
    out = {}
    for name, f1, f2 in cells():
        seeds, correct = [], 0
        for rep in range(FIRST_REP, FIRST_REP + REPS):
            seed = 1000 * rep + N
            pairs = synth.generate(synth.GeneratorSpec(mechanism=f1, post=f2, n=N, seed=seed))
            pre = divot.preprocess(divot.SamplePair(pairs.xs, pairs.ys), seed=rep)
            correct += divot.divot(pre, config, seed=rep).decision == divot.X_TO_Y
            seeds.append(seed)
        out[name] = {"f1": f1, "f2": f2, "count": REPS, "correct": correct,
                     "rate": correct / REPS, "wilson95": wilson(correct, REPS),
                     "seeds": seeds}
        print(f"{name}: {correct}/{REPS}", file=sys.stderr)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the divot package that scores the cells")
    parser.add_argument("--label", default="change", help="the run's key in --out")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_accuracy.json")
    args = parser.parse_args(argv)

    synth = local_synth()
    sys.path.insert(0, str(args.src.resolve()))
    import divot

    start = time.perf_counter()
    entry = {
        **revision(args.src),
        "n": N,
        "mode": "pnl",
        "reps": [FIRST_REP, FIRST_REP + REPS - 1],
        "cells": run(divot, synth),
    }
    entry["seconds"] = round(time.perf_counter() - start, 1)
    report = json.loads(args.out.read_text()) if args.out.exists() else {}
    report.setdefault("runs", {})[args.label] = entry
    args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(json.dumps({name: cell["correct"] for name, cell in entry["cells"].items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
