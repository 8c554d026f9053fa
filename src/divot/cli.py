"""Command-line surface: single-pair inference and benchmark suites.

Subcommands:
  infer  PAIR_FILE   score one pair file, print and write a JSON verdict record
  bench              run a suite (synthetic | tuebingen | confounder | significance)
                     and write per-record plus summary CSVs

All randomness flows from --seed/--seeds; records carry a digest of the
resolved configuration so reports are reproducible and self-describing.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
import time
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from .decide import INDEPENDENT, ScoreConfig, Verdict, divot
from .divergence import PnlTransform
from .errors import DivotError, ParseError
from .noise import canonical_source
from .optimize import FitConfig
from .pairdata import load_pairs, preprocess
from .synth import MECHANISMS, GeneratorSpec, generate

DEFAULT_SIZES = (100, 200, 500)
DEFAULT_WEIGHTS = (0.01, 0.02, 0.03, 0.04, 0.05)
FCM2_GRID = (0.1, 1.0, 10.0)
FCM3_GRID = (0.1, 1.0, 10.0, 100.0)


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved pipeline configuration for a CLI run."""

    mode: str = "anm"
    noise: str = "uniform"
    batch_frac: float | None = None  # None = auto schedule
    positions: int = 50
    max_n: int = 500
    k_std: float = 2.0
    bootstrap: int = 0  # 0 disables the bootstrap
    alpha: float = 0.05
    debias: bool = False
    debias_per_row: bool = False
    step_size: float = 1.0
    max_iters: int = 500
    seed: int = 0
    seeds: tuple[int, ...] = (0, 1, 2)
    workers: int = 1
    suite: str = "synthetic"
    sizes: tuple[int, ...] = DEFAULT_SIZES
    reps: int = 100
    mechanisms: tuple[str, ...] = MECHANISMS
    weights: tuple[float, ...] = DEFAULT_WEIGHTS
    data_dir: str | None = None
    meta: str | None = None
    out: str | None = None

    def __post_init__(self):
        # the bench suites average over reps and seeds
        if self.reps < 1:
            raise ValueError(f"reps must be >= 1, got {self.reps}")
        if not self.seeds:
            raise ValueError("seeds must name at least one seed")

    def score_config(self) -> ScoreConfig:
        return ScoreConfig(
            mode=self.mode,
            source=self.noise,
            batch_frac=self.batch_frac,
            max_positions=self.positions,
            use_debias=self.debias,
            debias_per_row=self.debias_per_row,
            fit=FitConfig(step_size=self.step_size, max_iters=self.max_iters),
        )

    def digest(self) -> str:
        # identifies the pipeline configuration; I/O and scheduling knobs
        # (paths, worker count) deliberately excluded
        payload = asdict(self)
        for key in ("out", "data_dir", "meta", "workers"):
            payload.pop(key, None)
        return hashlib.sha256(
            json.dumps(payload, sort_keys=True, default=str).encode()
        ).hexdigest()[:12]


def _parse_config_file(path: str) -> dict:
    """RunConfig values from `key=value` lines; a bad line raises ParseError."""
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ParseError(path, line_no, "expected key=value")
            key, value = stripped.split("=", 1)
            key = key.strip().replace("-", "_")
            if key not in RunConfig.__dataclass_fields__:
                raise ParseError(path, line_no, f"unknown key {key!r}")
            try:
                out[key] = _coerce(key, value.strip())
            except ValueError as exc:
                raise ParseError(path, line_no, f"{key}: {exc}") from None
    return out


_LIST_FIELDS = {"seeds": int, "sizes": int, "mechanisms": str, "weights": float}
_BOOL_FIELDS = {"debias", "debias_per_row"}
_TRUE_WORDS = ("1", "true", "yes", "on")
_FALSE_WORDS = ("0", "false", "no", "off")
_INT_FIELDS = {"positions", "max_n", "bootstrap", "max_iters", "seed", "workers", "reps"}
_FLOAT_FIELDS = {"alpha", "k_std", "step_size"}


def _coerce(key: str, value):
    if value is None or not isinstance(value, str):
        return value
    if key in _LIST_FIELDS:
        cast = _LIST_FIELDS[key]
        return tuple(cast(tok) for tok in value.replace(",", " ").split())
    if key in _BOOL_FIELDS:
        word = value.lower()
        if word not in _TRUE_WORDS + _FALSE_WORDS:
            known = ", ".join(_TRUE_WORDS + _FALSE_WORDS)
            raise ValueError(f"expected one of {known}, got {value!r}")
        return word in _TRUE_WORDS
    if key in _INT_FIELDS:
        return int(value)
    if key in _FLOAT_FIELDS:
        return float(value)
    if key == "batch_frac":
        return None if value.lower() == "auto" else float(value)
    return value


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge CLI flags over config-file values over defaults."""
    values: dict = {}
    if getattr(args, "config", None):
        values.update(_parse_config_file(args.config))
    for key in RunConfig.__dataclass_fields__:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = _coerce(key, flag) if isinstance(flag, str) else flag
    if "noise" in values:
        values["noise"] = canonical_source(values["noise"])
    return RunConfig(**values)


def _verdict_record(verdict: Verdict, config: RunConfig, seed: int, source_file: str | None):
    def omega_fields(score):
        if score.omega is None:
            return None, None
        return list(score.omega), PnlTransform(*score.omega).invertible

    om_xy, inv_xy = omega_fields(verdict.score_xy)
    om_yx, inv_yx = omega_fields(verdict.score_yx)
    return {
        "file": source_file,
        "decision": verdict.decision,
        "loss_xy": verdict.score_xy.loss,
        "loss_yx": verdict.score_yx.loss,
        "raw_xy": verdict.score_xy.measure.raw,
        "raw_yx": verdict.score_yx.measure.raw,
        "theta_xy": verdict.score_xy.theta,
        "theta_yx": verdict.score_yx.theta,
        "w_xy": verdict.score_xy.w,
        "w_yx": verdict.score_yx.w,
        "omega_xy": om_xy,
        "omega_yx": om_yx,
        "pnl_invertible_xy": inv_xy,
        "pnl_invertible_yx": inv_yx,
        "p_value": verdict.p_value,
        "alpha": verdict.alpha,
        "bootstrap_b": config.bootstrap or None,
        "mode": config.mode,
        "noise": config.noise,
        "seed": seed,
        "config_digest": config.digest(),
    }


def cmd_infer(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    pairs = load_pairs(args.pair_file, tuple(args.columns))
    pre = preprocess(pairs, config.max_n, config.k_std, config.seed)
    t0 = time.perf_counter()
    verdict = divot(
        pre,
        config.score_config(),
        seed=config.seed,
        bootstrap_b=config.bootstrap or None,
        alpha=config.alpha,
    )
    elapsed = time.perf_counter() - t0
    record = _verdict_record(verdict, config, config.seed, args.pair_file)
    text = json.dumps(record, indent=2, sort_keys=True)
    print(text)
    print(f"# scored in {elapsed:.3f}s", file=sys.stderr)
    if config.out:
        with open(config.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return 0


# ---------------------------------------------------------------- bench suites


def _write_csv(path: str, rows: list[dict]):
    if not rows:
        raise DivotError("no records to write")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)


def _summary_path(out: str) -> str:
    stem, dot, ext = out.rpartition(".")
    return f"{stem}_summary.{ext}" if dot else f"{out}_summary"


def _group(records, *fields) -> dict:
    """Records grouped by their values of `fields`, in order of first appearance.

    Looking up a key with no records gives an empty list.
    """
    cells = defaultdict(list)
    for r in records:
        cells[tuple(r[f] for f in fields)].append(r)
    return cells


def _majority(votes: list[str]) -> str:
    """The most frequent vote; a tie goes to the vote that appears first."""
    return max(dict.fromkeys(votes), key=votes.count)


def _synthetic_task(item):
    config, mech, n, rep = item
    spec = GeneratorSpec(mechanism=mech, n=n, seed=1000 * rep + n)
    pre = preprocess(generate(spec), config.max_n, config.k_std, seed=rep)
    t0 = time.perf_counter()
    verdict = divot(pre, config.score_config(), seed=rep,
                    bootstrap_b=config.bootstrap or None, alpha=config.alpha)
    return {
        "suite": "synthetic",
        "mechanism": mech,
        "n": n,
        "rep": rep,
        "seed": 1000 * rep + n,
        "decision": verdict.decision,
        "correct": int(verdict.decision == "x->y"),
        "loss_xy": verdict.score_xy.loss,
        "loss_yx": verdict.score_yx.loss,
        "p_value": verdict.p_value,
        "elapsed_s": round(time.perf_counter() - t0, 6),
        "config_digest": config.digest(),
    }


def _map_tasks(fn, items, workers: int):
    if workers <= 1:
        return [fn(item) for item in items]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items, chunksize=4))


def bench_synthetic(config: RunConfig):
    items = [
        (config, mech, n, rep)
        for mech in config.mechanisms
        for n in config.sizes
        for rep in range(config.reps)
    ]
    records = _map_tasks(_synthetic_task, items, config.workers)
    cells = _group(records, "mechanism", "n")
    summary = []
    for mech in config.mechanisms:
        for n in config.sizes:
            cell = cells[mech, n]
            summary.append({
                "suite": "synthetic",
                "mechanism": mech,
                "n": n,
                "reps": len(cell),
                "accuracy": sum(r["correct"] for r in cell) / len(cell),
                "mean_elapsed_s": round(float(np.mean([r["elapsed_s"] for r in cell])), 6),
                "config_digest": config.digest(),
            })
    return records, summary


def load_truth_table(meta_path: str) -> dict:
    """Metadata CSV mapping pair file name -> ground truth ('x->y' | 'y->x')."""
    truth = {}
    with open(meta_path, "r", encoding="utf-8", newline="") as fh:
        for row in csv.reader(fh):
            if not row or row[0].strip().startswith("#"):
                continue
            if row[0].strip().lower() in ("file", "filename", "pair"):
                continue
            truth[row[0].strip()] = row[1].strip()
    return truth


def _tuebingen_task(item):
    config, path, name, truth, seed = item
    pairs = load_pairs(path)
    pre = preprocess(pairs, config.max_n, config.k_std, seed)
    t0 = time.perf_counter()
    verdict = divot(pre, config.score_config(), seed=seed,
                    bootstrap_b=config.bootstrap or None, alpha=config.alpha)
    return {
        "suite": "tuebingen",
        "file": name,
        "seed": seed,
        "decision": verdict.decision,
        "truth": truth,
        "correct": int(verdict.decision == truth),
        "loss_xy": verdict.score_xy.loss,
        "loss_yx": verdict.score_yx.loss,
        "p_value": verdict.p_value,
        "n_used": pre.n,
        "elapsed_s": round(time.perf_counter() - t0, 6),
        "config_digest": config.digest(),
    }


def bench_tuebingen(config: RunConfig):
    if not config.data_dir or not config.meta:
        raise DivotError("tuebingen suite needs --data-dir and --meta")
    truth = load_truth_table(config.meta)
    if not truth:
        raise DivotError(f"no ground-truth entries in {config.meta}")
    items = []
    for name in sorted(truth):
        path = os.path.join(config.data_dir, name)
        if not os.path.exists(path):
            raise DivotError(f"pair file missing from corpus: {path}")
        for seed in config.seeds:
            items.append((config, path, name, truth[name], seed))
    records = _map_tasks(_tuebingen_task, items, config.workers)
    cells = _group(records, "seed")
    summary = []
    per_seed = []
    for seed in config.seeds:
        rows = cells[(seed,)]
        acc = sum(r["correct"] for r in rows) / len(rows)
        per_seed.append(acc)
        summary.append({
            "suite": "tuebingen", "scope": f"seed={seed}", "pairs": len(rows),
            "accuracy": acc, "accuracy_std": "",
            "config_digest": config.digest(),
        })
    summary.append({
        "suite": "tuebingen", "scope": "overall", "pairs": len(truth),
        "accuracy": float(np.mean(per_seed)),
        "accuracy_std": float(np.std(per_seed)),
        "config_digest": config.digest(),
    })
    return records, summary


def _confounder_task(item):
    config, fcm, mech, wx, wy, trial = item
    seed = 3571 * trial + 17
    spec = GeneratorSpec(mechanism=mech, confounder=(wx, wy, fcm), n=1000, seed=seed)
    pre = preprocess(generate(spec), max_n=1000, k_std=config.k_std, seed=trial)
    t0 = time.perf_counter()
    verdict = divot(pre, config.score_config(), seed=trial,
                    bootstrap_b=config.bootstrap or 50, alpha=config.alpha)
    return {
        "suite": "confounder",
        "fcm": fcm,
        "mechanism": mech if fcm == 3 else "",
        "w_x": wx,
        "w_y": wy,
        "trial": trial,
        "seed": seed,
        "p_value": verdict.p_value,
        "decision": verdict.decision,
        "elapsed_s": round(time.perf_counter() - t0, 6),
        "config_digest": config.digest(),
    }


def bench_confounder(config: RunConfig):
    trials = range(len(config.seeds))
    items = [(config, 1, "linear", 0.0, 0.0, t) for t in trials]
    for wx in FCM2_GRID:
        for wy in FCM2_GRID:
            items += [(config, 2, "linear", wx, wy, t) for t in trials]
    for mech in ("linear", "sine"):
        for wx in FCM3_GRID:
            for wy in FCM3_GRID:
                items += [(config, 3, mech, wx, wy, t) for t in trials]
    records = _map_tasks(_confounder_task, items, config.workers)
    summary = []
    for key, cell in _group(records, "fcm", "mechanism", "w_x", "w_y").items():
        summary.append({
            "suite": "confounder", "fcm": key[0], "mechanism": key[1],
            "w_x": key[2], "w_y": key[3], "trials": len(cell),
            "majority_decision": _majority([q["decision"] for q in cell]),
            "median_p": float(np.median([q["p_value"] for q in cell])),
            "config_digest": config.digest(),
        })
    return records, summary


def _significance_task(item):
    config, mech, weight, trial = item
    seed = 1009 * trial + 13
    spec = GeneratorSpec(mechanism=mech, weight=weight, n=1000, seed=seed)
    pre = preprocess(generate(spec), max_n=1000, k_std=config.k_std, seed=trial)
    t0 = time.perf_counter()
    verdict = divot(pre, config.score_config(), seed=trial,
                    bootstrap_b=config.bootstrap or 50, alpha=config.alpha)
    return {
        "suite": "significance",
        "mechanism": mech,
        "weight": weight,
        "trial": trial,
        "seed": seed,
        "p_value": verdict.p_value,
        "decision": verdict.decision,
        "elapsed_s": round(time.perf_counter() - t0, 6),
        "config_digest": config.digest(),
    }


def bench_significance(config: RunConfig):
    trials = range(len(config.seeds))
    items = [
        (config, mech, w, t)
        for mech in config.mechanisms
        for w in config.weights
        for t in trials
    ]
    records = _map_tasks(_significance_task, items, config.workers)
    cells = _group(records, "mechanism", "weight")
    summary = []
    for mech in config.mechanisms:
        for w in config.weights:
            cell = cells[mech, w]
            summary.append({
                "suite": "significance", "mechanism": mech, "weight": w,
                "trials": len(cell),
                "median_p": float(np.median([r["p_value"] for r in cell])),
                "frac_independent": sum(r["decision"] == INDEPENDENT for r in cell) / len(cell),
                "config_digest": config.digest(),
            })
    return records, summary


_SUITES = {
    "synthetic": bench_synthetic,
    "tuebingen": bench_tuebingen,
    "confounder": bench_confounder,
    "significance": bench_significance,
}


def cmd_bench(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    if config.suite not in _SUITES:
        raise DivotError(f"unknown suite {config.suite!r}")
    if not config.out:
        raise DivotError("bench requires --out for the CSV report")
    t0 = time.perf_counter()
    records, summary = _SUITES[config.suite](config)
    _write_csv(config.out, records)
    _write_csv(_summary_path(config.out), summary)
    print(f"suite={config.suite} records={len(records)} "
          f"elapsed={time.perf_counter()-t0:.1f}s -> {config.out}")
    for row in summary:
        print("  " + " ".join(f"{k}={v}" for k, v in row.items() if k != "config_digest"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="divot",
        description="Causal direction inference via one-dimensional optimal transport",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="key=value config file; flags override it")
        p.add_argument("--mode", choices=("anm", "pnl"))
        p.add_argument("--noise", help="uniform | normal | beta | laplace")
        p.add_argument("--batch-frac", dest="batch_frac",
                       help="batch size as a fraction of n, or 'auto'")
        p.add_argument("--positions", type=int, help="max anchor positions")
        p.add_argument("--max-n", dest="max_n", type=int, help="subsample cap")
        p.add_argument("--k-std", dest="k_std", type=float, help="outlier trim threshold")
        p.add_argument("--bootstrap", type=int, help="bootstrap replicates (0 = off)")
        p.add_argument("--alpha", type=float, help="significance level")
        p.add_argument("--debias", action="store_const", const=True, default=None)
        p.add_argument("--debias-per-row", dest="debias_per_row",
                       action="store_const", const=True, default=None)
        p.add_argument("--max-iters", dest="max_iters", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--out", help="output path (JSON for infer, CSV for bench)")

    p_infer = sub.add_parser("infer", help="score one pair file")
    add_common(p_infer)
    p_infer.add_argument("pair_file")
    p_infer.add_argument("--columns", type=int, nargs=2, default=(0, 1),
                         metavar=("CX", "CY"), help="column indices for x and y")
    p_infer.set_defaults(fn=cmd_infer)

    p_bench = sub.add_parser("bench", help="run a benchmark suite")
    add_common(p_bench)
    p_bench.add_argument("--suite", choices=tuple(_SUITES))
    p_bench.add_argument("--seeds", help="comma-separated seed list")
    p_bench.add_argument("--sizes", help="comma-separated sample sizes")
    p_bench.add_argument("--reps", type=int, help="repetitions per cell")
    p_bench.add_argument("--mechanisms", help="comma-separated mechanism names")
    p_bench.add_argument("--weights", help="comma-separated mechanism weights")
    p_bench.add_argument("--data-dir", dest="data_dir", help="pair-file corpus directory")
    p_bench.add_argument("--meta", help="ground-truth metadata CSV")
    p_bench.add_argument("--workers", type=int, help="worker processes (default 1)")
    p_bench.set_defaults(fn=cmd_bench)
    return parser


def main(argv=None) -> int:
    """Run one subcommand; a bad input or a failed run prints one `error:` line and returns 1."""
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (DivotError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
