"""Compare two checkouts of divot on one benchmark workload, in alternating pairs.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload sweep-anm --pairs 10 \
                                   [--out BENCH_pipeline.json]

Each pair runs `bench/run.py` once in each checkout, with the same seed and
the run length that BENCHMARK.json sets; the order inside a pair alternates, so a slow drift of the host
falls on both sides alike. The end-to-end metrics and their "better"
directions come from CHANGE_DIR's BENCHMARK.json. For every metric the
script records the median and quartiles on each side, how many pairs the
change won, whether a claimed gain holds (`claim_met`) and whether the change
stays within the metric's bound (`within_bound`), then merges the workload's
entry into `--out` (BENCH_pipeline.json at the root of this repository by
default), beside the entries of other workloads.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One `bench/run.py` run: its JSON result plus the env and digest lines."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: bench/run.py exited {proc.returncode}: {proc.stderr[-2000:]}")
    out = json.loads(lines[-1])
    for line in lines:
        if line.startswith("env "):
            out["env"] = json.loads(line[4:])
        elif line.strip().startswith("digest = "):
            out["digest"] = line.split("=", 1)[1].strip()
    return out


def git_revision(checkout: Path) -> str | None:
    """HEAD of the checkout's own git repository; None for an exported tree."""
    if not (checkout / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return proc.stdout.strip() or None


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def compare(parent_runs: list[dict], change_runs: list[dict], metrics: list[dict]) -> dict:
    """Per metric: each side's median and quartiles, pairs won, whether the
    medians differ by more than the parent's quartile spread, and the two
    acceptance rules.

    `claim_met`: the change won at least 9 in 10 of the pairs and its median
    gain exceeds the parent's quartile spread. `within_bound`: the change's
    median is no worse than the parent's by more than the metric's relative
    `bound`.
    """
    out = {}
    for spec in metrics:
        name, higher = spec["name"], spec["better"] == "higher"
        before = [r["metrics"][name]["value"] for r in parent_runs]
        after = [r["metrics"][name]["value"] for r in change_runs]
        p, c = summary(before), summary(after)
        gain = (c["median"] - p["median"]) if higher else (p["median"] - c["median"])
        pairs_won = sum((a > b) if higher else (a < b) for b, a in zip(before, after))
        exceeds_iqr = gain > p["q3"] - p["q1"]
        out[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            "parent": p,
            "change": c,
            "change_over_parent": c["median"] / p["median"] if p["median"] else None,
            "pairs_won": pairs_won,
            "gain_exceeds_parent_iqr": exceeds_iqr,
            "claim_met": pairs_won >= 0.9 * len(before) and exceeds_iqr,
            "within_bound": -gain <= spec["bound"] * abs(p["median"]),
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent revision")
    parser.add_argument("change", type=Path, help="checkout of the changed revision")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_pipeline.json",
                        help="the JSON report the workload's entry is merged into")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_bench(getattr(args, side), args.workload, args.seed,
                                        seconds))
        print(f"pair {i + 1}/{args.pairs}: " + ", ".join(
            f"{side} {runs[side][-1]['metrics']['verdicts_per_s']['value']:.4g}/s"
            for side in ("parent", "change")), file=sys.stderr)

    env = runs["change"][0].get("env", {})
    entry = {
        "pairs": args.pairs,
        "seed": args.seed,
        "seconds": seconds,
        "nproc": env.get("nproc", os.cpu_count()),
        "cpu_model": env.get("cpu_model"),
        "python": env.get("python"),
        "numpy": env.get("numpy"),
        "revisions": {
            side: {"git": git_revision(getattr(args, side)),
                   "src_sha256": runs[side][0].get("env", {}).get("src_sha256")}
            for side in runs
        },
        "all_correct": all(r["correct"] for side in runs.values() for r in side),
        "digests": {side: sorted({r.get("digest") for r in runs[side]}) for side in runs},
        "metrics": compare(runs["parent"], runs["change"], spec["end_to_end"]),
    }
    report = json.loads(args.out.read_text()) if args.out.exists() else {}
    report.setdefault("workloads", {})[args.workload] = entry
    args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(json.dumps({name: {"parent": m["parent"]["median"], "change": m["change"]["median"],
                             "pairs_won": m["pairs_won"], "claim_met": m["claim_met"],
                             "within_bound": m["within_bound"]}
                      for name, m in entry["metrics"].items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
