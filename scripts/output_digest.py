"""Print one sha256 per divot output over a fixed set of inputs, 76 lines.

    python3 scripts/output_digest.py [--src DIR | --against DIR]

The outputs are `divot infer` JSON records (four configurations on one pair
file with tied values, one without, and one whose x lies on an integer grid,
so batches tie at their k-th distance on both sides), the record and summary
CSVs of small synthetic, confounder, significance and tuebingen `bench` runs
(with the timing columns removed; the tuebingen corpus is three generated pair
files),
`divot()` verdict reprs and `orient_skeleton` result reprs on a chain, a tree,
a 4-cycle, the 4-cycle rounded to one decimal (repeated parent rows), a
star of 8 leaves (families of up to 8 parents), the star again with 5
positions (its family stacks pass the max_positions * n element bound and
split) and again with the beta source (a rejection sampler: each variable's
one draw is sliced for roots and families of different shapes), and the
chain in raw units with one column scaled by 10, and the bits of the measure
kernel (`measure_with_grad` and `sorted_effects`) on a grid of debias and
transform settings over workspaces built from both pair files, and the
`generate` arrays of one spec under each built-in noise law (a law the
imported divot rejects prints its error in place of a digest).
`--src` imports divot from another checkout's `src` directory, so running the
script once per checkout and diffing the two listings shows whether a change
kept every output byte-identical. `--against DIR` does both in one command: it
builds the listing for this checkout's `src` and for DIR (a checkout, or its
`src` directory), each in its own process, prints each line whose digest
differs and exits 1 on any difference.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

INFER_CONFIGS = {
    "anm-b20": ["--bootstrap", "20"],
    "pnl": ["--mode", "pnl"],
    "normal": ["--noise", "normal"],
    "beta-frac0.3": ["--noise", "beta", "--batch-frac", "0.3"],
}
TIMING_COLUMNS = {"elapsed_s", "mean_elapsed_s"}
NOISE_LAWS = ("normal", "uniform", "beta", "laplace")


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def quiet(fn, *args):
    """Call fn with stdout and stderr captured and dropped."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return fn(*args)


def write_pairs(path: Path, xs, ys, fmt: str) -> Path:
    with open(path, "w", encoding="utf-8") as fh:
        for x, y in zip(xs, ys):
            fh.write(f"{x:{fmt}} {y:{fmt}}\n")
    return path


def csv_without_timing(path: Path) -> bytes:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    keep = [i for i, name in enumerate(rows[0]) if name not in TIMING_COLUMNS]
    return "\n".join(",".join(row[i] for i in keep) for row in rows).encode()


def pair_files(divot) -> dict[str, Path]:
    """One sine pair written twice, to ten decimals and to one."""
    pairs = divot.generate(divot.GeneratorSpec(mechanism="sine", n=300, seed=5))
    return {
        "distinct": write_pairs(Path("distinct.txt"), pairs.xs, pairs.ys, ".10f"),
        # one decimal: many rows share x and y values, so batches and sorts tie
        "ties": write_pairs(Path("ties.txt"), pairs.xs, pairs.ys, ".1f"),
    }


def grid_file(divot) -> Path:
    """The sine pair with x scaled by 10 and rounded to whole units (21 values):
    `infer` z-scores it, and positions on the grid tie at p - d and p + d."""
    pairs = divot.generate(divot.GeneratorSpec(mechanism="sine", n=300, seed=5))
    return write_pairs(Path("grid.txt"), (pairs.xs * 10).round(), pairs.ys, ".10f")


def infer_digests(divot):
    """Run in the scratch directory: a record holds its pair file's path as given."""
    from divot.cli import main

    for file_name, path in {**pair_files(divot), "grid": grid_file(divot)}.items():
        for config_name, flags in INFER_CONFIGS.items():
            out = Path(f"{file_name}-{config_name}.json")
            code = quiet(main, ["infer", str(path), "--seed", "3", "--out", str(out)] + flags)
            yield f"infer/{file_name}/{config_name}", (
                sha(out.read_bytes()) if code == 0 else f"exit {code}")


def write_corpus(divot) -> list[str]:
    """Three pair files, the middle one swapped, and their metadata CSV."""
    Path("corpus").mkdir()
    rows = ["file,direction"]
    for i, mech in enumerate(("linear", "sine", "cubic")):
        pairs = divot.generate(divot.GeneratorSpec(mechanism=mech, n=200, seed=40 + i))
        swap = i == 1
        xs, ys = (pairs.ys, pairs.xs) if swap else (pairs.xs, pairs.ys)
        write_pairs(Path(f"corpus/p{i}.txt"), xs, ys, ".10f")
        rows.append(f"p{i}.txt,{'y->x' if swap else 'x->y'}")
    Path("meta.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    return ["--data-dir", "corpus", "--meta", "meta.csv"]


def bench_digests(divot):
    from divot.cli import main

    runs = {
        "synthetic": ["--suite", "synthetic", "--sizes", "100,200",
                      "--mechanisms", "linear,sine", "--reps", "3"],
        "confounder": ["--suite", "confounder", "--seeds", "0", "--bootstrap", "4"],
        "significance": ["--suite", "significance", "--mechanisms", "linear,sine",
                         "--weights", "0.02,0.1", "--seeds", "0,1", "--bootstrap", "4"],
        "tuebingen": ["--suite", "tuebingen", "--seeds", "0,1"] + write_corpus(divot),
    }
    for name, flags in runs.items():
        out = Path(f"{name}.csv")
        code = quiet(main, ["bench", "--out", str(out)] + flags)
        if code != 0:
            yield f"bench/{name}", f"exit {code}"
            continue
        yield f"bench/{name}", sha(csv_without_timing(out))
        yield f"bench/{name}_summary", sha(csv_without_timing(Path(f"{name}_summary.csv")))


def verdict_digests(divot):
    from divot import cli

    configs = {
        "anm": divot.ScoreConfig(),
        "pnl": cli.RunConfig(mode="pnl", max_iters=60).score_config(),
        "laplace": divot.ScoreConfig(source="laplace", batch_frac=0.2),
    }
    for mech in divot.MECHANISMS:
        for n in (100, 250):
            pre = divot.preprocess(divot.generate(divot.GeneratorSpec(mechanism=mech, n=n,
                                                                      seed=n + 7)), seed=1)
            for name, config in configs.items():
                verdict = divot.divot(pre, config, seed=2)
                yield f"divot/{mech}/{n}/{name}", sha(repr(verdict).encode())
            verdict = divot.divot(pre, configs["anm"], seed=2, bootstrap_b=8)
            yield f"divot/{mech}/{n}/anm-b8", sha(repr(verdict).encode())


def orient_digests(divot):
    import numpy as np

    rng = np.random.default_rng(17)
    n = 300
    x0 = rng.uniform(-1, 1, n)
    x1 = np.sin(2 * x0) + 0.3 * rng.uniform(-1, 1, n)
    x2 = x1 ** 3 + 0.3 * rng.uniform(-1, 1, n)
    x3 = np.tanh(x2) + 0.3 * rng.uniform(-1, 1, n)
    x4 = x1 + 0.5 * rng.uniform(-1, 1, n)
    raw = np.column_stack([x0, x1, x2, x3, x4])
    data = (raw - raw.mean(axis=0)) / raw.std(axis=0, ddof=1)
    skeletons = {
        "chain": (4, ((0, 1), (1, 2), (2, 3))),
        "tree": (5, ((0, 1), (1, 2), (1, 4), (2, 3))),
        "cycle4": (4, ((0, 1), (1, 2), (2, 3), (0, 3))),
    }
    inputs = {name: (data[:, :m], m, edges) for name, (m, edges) in skeletons.items()}
    # one decimal: parent rows repeat, so anchors dedupe and distances tie
    inputs["cycle4-ties"] = (np.round(data[:, :4], 1), 4, skeletons["cycle4"][1])
    # centre 0 with 8 leaves: families of up to 8 parents
    leaves = rng.uniform(-1, 1, (n, 8))
    centre = np.sin(2 * leaves).sum(axis=1) + 0.3 * rng.uniform(-1, 1, n)
    star = np.column_stack([centre, leaves])
    star = (star - star.mean(axis=0)) / star.std(axis=0, ddof=1)
    inputs["star8"] = (star, 9, tuple((0, j) for j in range(1, 9)))
    # the chain in raw units, one column x10: orient_skeleton z-scores it itself
    inputs["chain-raw"] = (raw[:, :4] * [1.0, 10.0, 1.0, 1.0], 4, skeletons["chain"][1])
    for name, (columns, m, edges) in inputs.items():
        result = divot.orient_skeleton(columns, divot.Skeleton(m, edges), seed=4)
        yield f"orient/{name}", sha(repr(result).encode())
        if name == "star8":
            # 272 families against a bound of 5 * 300 elements: the stacks split
            result = divot.orient_skeleton(columns, divot.Skeleton(m, edges), max_positions=5,
                                           seed=4)
            yield "orient/star8-positions5", sha(repr(result).encode())
            result = divot.orient_skeleton(columns, divot.Skeleton(m, edges), source="beta",
                                           seed=4)
            yield "orient/star8-beta", sha(repr(result).encode())


def kernel_digests(divot):
    """Value, gradient and sorted-effect bits for each debias and transform setting.

    On both pairs the invertible transform alone keeps every batch's sorted
    order, so the kernel skips its sort; the non-invertible transform and the
    per-row debias make it sort.
    """
    import numpy as np
    from divot.divergence import sorted_effects

    debiases = {"none": None, "per-row": divot.DebiasFn(0.4, per_row=True)}
    transforms = {"none": None, "invertible": divot.PnlTransform(0.8, 1.2, 0.1),
                  "non-invertible": divot.PnlTransform(-3.0, 2.0, 0.0)}
    grad_names = ("theta", "w", "omega_a", "omega_b", "omega_c")
    for file_name, path in pair_files(divot).items():
        pre = divot.preprocess(divot.load_pairs(str(path)), seed=1)
        batches = divot.make_batches(pre, divot.select_positions(pre),
                                     divot.default_batch_frac(pre.n))
        ws = divot.build_workspace("uniform", batches.positions, pre.ys[batches.batches],
                                   pre.xs[batches.batches], seed=3)
        for debias_name, debias in debiases.items():
            for pnl_name, pnl in transforms.items():
                value, grads = divot.measure_with_grad(ws, 0.7, debias, pnl)
                bits = np.array([value] + [grads[g] for g in grad_names]).tobytes()
                bits += sorted_effects(ws, debias, pnl).tobytes()
                yield f"kernel/{file_name}/{debias_name}/{pnl_name}", sha(bits)


def synth_digests(divot):
    """The x and y bits of one confounded spec, whose noise enters both columns."""
    for law in NOISE_LAWS:
        try:
            pairs = divot.generate(divot.GeneratorSpec(mechanism="cubic", noise=law,
                                                       confounder=(0.3, 0.7, 3), n=200, seed=6))
        except ValueError as exc:
            yield f"synth/{law}", f"{type(exc).__name__}: {exc}"
            continue
        yield f"synth/{law}", sha(pairs.xs.tobytes() + pairs.ys.tobytes())


def listing(src: Path) -> dict[str, str]:
    """This script's listing for the divot package in `src`, run in a new
    process, as {name: digest}."""
    proc = subprocess.run([sys.executable, __file__, "--src", str(src)],
                          capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"listing for {src} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return {name: digest for digest, name in
            (line.split("  ", 1) for line in proc.stdout.splitlines())}


def against(other: Path) -> int:
    """Print each line whose digest differs between this checkout's listing
    and `other`'s; 1 if any does."""
    src = other / "src" if (other / "src" / "divot").is_dir() else other
    theirs, ours = listing(src), listing(ROOT / "src")
    differ = [name for name in {**theirs, **ours}
              if theirs.get(name) != ours.get(name)]
    for name in differ:
        print(f"{name}: {theirs.get(name, '(missing)')} in {other}, "
              f"{ours.get(name, '(missing)')} here")
    print(f"{len(differ)} of {len({**theirs, **ours})} lines differ")
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    where = parser.add_mutually_exclusive_group()
    where.add_argument("--src", type=Path, default=ROOT / "src",
                       help="directory holding the divot package (default: this checkout's)")
    where.add_argument("--against", type=Path, metavar="DIR",
                       help="compare this checkout's listing with DIR's and exit 1 on any "
                            "difference")
    args = parser.parse_args(argv)
    if args.against is not None:
        return against(args.against)
    sys.path.insert(0, str(args.src.resolve()))
    import divot

    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, digest in (*infer_digests(divot), *bench_digests(divot),
                                 *verdict_digests(divot), *orient_digests(divot),
                                 *kernel_digests(divot), *synth_digests(divot)):
                print(f"{digest}  {name}")
        finally:
            os.chdir(cwd)
    return 0


if __name__ == "__main__":
    sys.exit(main())
