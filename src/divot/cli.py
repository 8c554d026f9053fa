"""Command-line surface: single-pair inference and benchmark suites.

Subcommands:
  infer  PAIR_FILE   score one pair file, print and write a JSON verdict record
  bench              run a suite (synthetic | tuebingen | confounder | significance)
                     and write per-record plus summary CSVs

Both score a pair the same way: `_score` preprocesses it and times one
`divot()` call, and `_verdict_record` maps the verdict to its fields. infer
writes all of them; each bench suite is one `_SUITES` entry (its items, its
record columns and its summary rows), and one item runner loads or generates
every item's pairs and scores them.

All randomness flows from --seed/--seeds. synthetic scores reps 0..reps-1,
tuebingen scores every pair once per seed, and confounder and significance
use each seed as a trial index that also seeds the trial's generated data.
A repeated value in --seeds, --sizes, --mechanisms or --weights is an error,
and so are a --sizes or --max-n value whose batches would hold fewer than 2
rows, a pair left with that few rows once its outliers are trimmed (named
with its row count), a --workers below 1, a weight that is not finite and a
metadata row without an `x->y`/`y->x` direction. Records carry a
digest of the resolved configuration so reports are reproducible and
self-describing.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
import time
from collections.abc import Callable, Iterable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from .decide import INDEPENDENT, X_TO_Y, Y_TO_X, ScoreConfig, Verdict, divot
from .divergence import PnlTransform
from .errors import DivotError, ParseError
from .noise import canonical_source
from .pairdata import load_pairs, preprocess, rows_per_batch
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
        # built here, once, so that a bad value fails before any input is read
        object.__setattr__(self, "_score_config", ScoreConfig(
            mode=self.mode, source=self.noise, batch_frac=self.batch_frac,
            max_positions=self.positions, max_iters=self.max_iters))
        # the bench suites average over reps and seeds, each value once
        if self.reps < 1:
            raise ValueError(f"reps must be >= 1, got {self.reps}")
        if self.seed < 0:  # numpy seeds only from non-negative integers
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if any(s < 0 for s in self.seeds):
            raise ValueError(f"seeds must be >= 0, got {min(self.seeds)}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        # checked here too, not only where they are used, so that a bad
        # config-file value names its file and line
        if self.bootstrap and self.bootstrap < 2:  # 0 disables the bootstrap
            raise ValueError(f"need at least 2 bootstrap replicates, got {self.bootstrap}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.suite not in _SUITES:
            raise ValueError(f"unknown suite {self.suite!r}")
        if not self.k_std > 0:  # nan fails too; inf keeps every row
            raise ValueError(f"k_std must be > 0, got {self.k_std}")
        if _SUITES[self.suite].max_n is None:  # the other suites ignore --max-n
            _check_batchable("max_n", self.max_n, self.batch_frac)
        bad = [w for w in self.weights if not np.isfinite(w)]
        if bad:  # a nan weight would otherwise surface as a nan in a generated column
            raise ValueError(f"weights must be finite, got {bad[0]}")
        if not self.seeds:
            raise ValueError("seeds must name at least one seed")
        for name in ("seeds", "sizes", "mechanisms", "weights"):
            values = getattr(self, name)
            if len(set(values)) < len(values):
                listed = ",".join(map(str, values))
                raise ValueError(f"{name} must not repeat a value, got {listed}")

    def score_config(self) -> ScoreConfig:
        return self._score_config

    def digest(self) -> str:
        # identifies the pipeline configuration; I/O and scheduling knobs
        # (paths, worker count) deliberately excluded
        payload = asdict(self)
        for key in ("out", "data_dir", "meta", "workers"):
            payload.pop(key, None)
        return hashlib.sha256(
            json.dumps(payload, sort_keys=True, default=str).encode()
        ).hexdigest()[:12]


def _check_batchable(name: str, n: int, batch_frac: float | None) -> None:
    """Raise ValueError, naming `name`, if `rows_per_batch` gives n rows
    batches of fewer than the 2 rows make_batches needs.

    The message gives the least n that batches, as every larger n does: 3 on
    the sample-size schedule, else the least n with batch_frac * n > 1
    (exact for batch_frac above 2 ** -52).
    """
    if rows_per_batch(n, batch_frac) >= 2:
        return
    least = 2 if batch_frac is None else max(2, int(min(1 / batch_frac, 2.0 ** 53)) - 1)
    while least < 2 ** 53 and rows_per_batch(least, batch_frac) < 2:
        least += 1
    raise ValueError(f"{name} must be >= {least}, got {n}, "
                     f"for batches of 2 rows at batch_frac {batch_frac or 'auto'}")


def _parse_config_file(path: str) -> dict:
    """RunConfig values from `key=value` lines; a bad line raises ParseError.

    Each value is checked on its line, by a RunConfig that holds it alone, so
    a value it (or the ScoreConfig it builds) rejects names the file and line.
    max_n is checked there at batch_frac 1, where only a max_n that no
    batch_frac batches fails: whether it batches at the batch_frac the run
    resolves to is checked once every value is merged.
    """
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
                RunConfig(**{"batch_frac": 1.0, key: out[key]})
            except ValueError as exc:
                raise ParseError(path, line_no, f"{key}: {exc}") from None
    return out


_LIST_FIELDS = {"seeds": int, "sizes": int, "mechanisms": str, "weights": float}
_INT_FIELDS = {"positions", "max_n", "bootstrap", "max_iters", "seed", "workers", "reps"}
_FLOAT_FIELDS = {"alpha", "k_std"}


def _coerce(key: str, value):
    if value is None or not isinstance(value, str):
        return value
    if key in _LIST_FIELDS:
        cast = _LIST_FIELDS[key]
        return tuple(cast(tok) for tok in value.replace(",", " ").split())
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


def _score(pairs, label: str, config: RunConfig, seed: int, max_n: int | None = None,
           default_b: int | None = None):
    """Preprocess `pairs`, then time one divot() call: (verdict, rows used, seconds).

    `max_n` replaces config.max_n, and `default_b` is the bootstrap size when
    config.bootstrap is 0. Rows too few to batch once outliers are trimmed
    raise ValueError naming the pairs by `label` (a pair file's path).
    """
    pre = preprocess(pairs, max_n or config.max_n, config.k_std, seed)
    _check_batchable(f"rows of {label}", pre.n, config.batch_frac)
    t0 = time.perf_counter()
    verdict = divot(pre, config.score_config(), seed=seed,
                    bootstrap_b=config.bootstrap or default_b, alpha=config.alpha)
    return verdict, pre.n, time.perf_counter() - t0


def _verdict_record(verdict: Verdict, config: RunConfig, seed: int, source_file: str | None):
    """Every field of a verdict: infer writes all of them, a suite picks its columns."""
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
        "omega_xy": om_xy,
        "omega_yx": om_yx,
        "pnl_invertible_xy": inv_xy,
        "pnl_invertible_yx": inv_yx,
        "p_value": verdict.p_value,
        "alpha": verdict.alpha,
        "bootstrap_b": verdict.bootstrap.b if verdict.bootstrap else None,
        "mode": config.mode,
        "noise": config.noise,
        "seed": seed,
        "config_digest": config.digest(),
    }


def cmd_infer(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    pairs = load_pairs(args.pair_file, tuple(args.columns))
    verdict, _, elapsed = _score(pairs, args.pair_file, config, config.seed)
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
    """`out` with `_summary` put before the file name's extension, if it has one."""
    stem, ext = os.path.splitext(out)
    return f"{stem}_summary{ext}"


def _group(records, *fields) -> dict:
    """Records grouped by their values of `fields`, in order of first appearance."""
    cells: dict = {}
    for r in records:
        cells.setdefault(tuple(r[f] for f in fields), []).append(r)
    return cells


def _cells(key: tuple[str, ...], stats):
    """A summary with one row per cell of records that agree on `key`.

    A row holds the cell's `key` values, then the fields of `stats(cell)`.
    """
    return lambda records: [{**dict(zip(key, values)), **stats(cell)}
                            for values, cell in _group(records, *key).items()]


def _majority(votes: list[str]) -> str:
    """The most frequent vote; a tie goes to the vote that appears first."""
    return max(dict.fromkeys(votes), key=votes.count)


def _accuracy(cell) -> float:
    return sum(r["correct"] for r in cell) / len(cell)


def _median_p(cell) -> float:
    return float(np.median([r["p_value"] for r in cell]))


def load_truth_table(meta_path: str) -> dict:
    """Metadata CSV mapping pair file name -> ground truth ('x->y' | 'y->x').

    A row without a direction, or with any other direction, or a file name
    already given on an earlier row, raises ParseError naming the file and line.
    """
    truth = {}
    with open(meta_path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if not row or row[0].strip().startswith("#"):
                continue
            if row[0].strip().lower() in ("file", "filename", "pair"):
                continue
            if len(row) < 2:
                raise ParseError(meta_path, reader.line_num, "expected file,direction")
            direction = row[1].strip()
            if direction not in (X_TO_Y, Y_TO_X):
                raise ParseError(meta_path, reader.line_num,
                                 f"direction must be {X_TO_Y} or {Y_TO_X}, got {direction!r}")
            name = row[0].strip()
            if name in truth:
                raise ParseError(meta_path, reader.line_num, f"pair file {name!r} listed twice")
            truth[name] = direction
    return truth


# Each suite's items are (data, seed, fields): `data` is a pair file path or a
# GeneratorSpec, `seed` seeds preprocess and divot, and `fields` are the
# item's own record fields (they override the verdict's; `truth` sets `correct`).


def _synthetic_items(config: RunConfig):
    for n in config.sizes:  # checked here, as only this suite reads them
        _check_batchable("sizes", n, config.batch_frac)
    for mech in config.mechanisms:
        for n in config.sizes:
            for rep in range(config.reps):
                seed = 1000 * rep + n
                yield (GeneratorSpec(mechanism=mech, n=n, seed=seed), rep,
                       {"mechanism": mech, "n": n, "rep": rep, "seed": seed, "truth": X_TO_Y})


def _tuebingen_items(config: RunConfig):
    if not config.data_dir or not config.meta:
        raise DivotError("tuebingen suite needs --data-dir and --meta")
    truth = load_truth_table(config.meta)
    if not truth:
        raise DivotError(f"no ground-truth entries in {config.meta}")
    for name in sorted(truth):
        path = os.path.join(config.data_dir, name)
        if not os.path.exists(path):
            raise DivotError(f"pair file missing from corpus: {path}")
        for seed in config.seeds:
            yield path, seed, {"file": name, "truth": truth[name]}


def _confounder_items(config: RunConfig):
    cells = [(1, "linear", 0.0, 0.0)]
    cells += [(2, "linear", wx, wy) for wx in FCM2_GRID for wy in FCM2_GRID]
    cells += [(3, mech, wx, wy) for mech in ("linear", "sine")
              for wx in FCM3_GRID for wy in FCM3_GRID]
    for fcm, mech, wx, wy in cells:
        for trial in config.seeds:
            seed = 3571 * trial + 17
            spec = GeneratorSpec(mechanism=mech, confounder=(wx, wy, fcm), n=1000, seed=seed)
            yield spec, trial, {"fcm": fcm, "mechanism": mech if fcm == 3 else "",
                                "w_x": wx, "w_y": wy, "trial": trial, "seed": seed}


def _significance_items(config: RunConfig):
    for mech in config.mechanisms:
        for weight in config.weights:
            for trial in config.seeds:
                seed = 1009 * trial + 13
                yield (GeneratorSpec(mechanism=mech, weight=weight, n=1000, seed=seed), trial,
                       {"mechanism": mech, "weight": weight, "trial": trial, "seed": seed})


def _tuebingen_summary(records):
    rows = [{"scope": f"seed={seed}", "pairs": len(cell), "accuracy": _accuracy(cell),
             "accuracy_std": ""} for (seed,), cell in _group(records, "seed").items()]
    per_seed = [row["accuracy"] for row in rows]
    rows.append({"scope": "overall", "pairs": len(_group(records, "file")),
                 "accuracy": float(np.mean(per_seed)), "accuracy_std": float(np.std(per_seed))})
    return rows


@dataclass(frozen=True)
class _Suite:
    """A bench suite. Every record and summary row starts with `suite` and
    ends with `config_digest`; `columns` are the record columns between them."""

    items: Callable[[RunConfig], Iterable[tuple]]
    columns: tuple[str, ...]
    summary: Callable[[list[dict]], list[dict]]
    max_n: int | None = None  # a fixed subsample cap in place of --max-n
    default_b: int | None = None  # bootstrap replicates when --bootstrap is 0


_SUITES = {
    "synthetic": _Suite(
        _synthetic_items,
        ("mechanism", "n", "rep", "seed", "decision", "correct", "loss_xy", "loss_yx",
         "p_value", "elapsed_s"),
        _cells(("mechanism", "n"), lambda cell: {
            "reps": len(cell), "accuracy": _accuracy(cell),
            "mean_elapsed_s": round(float(np.mean([r["elapsed_s"] for r in cell])), 6)})),
    "tuebingen": _Suite(
        _tuebingen_items,
        ("file", "seed", "decision", "truth", "correct", "loss_xy", "loss_yx", "p_value",
         "n_used", "elapsed_s"),
        _tuebingen_summary),
    "confounder": _Suite(
        _confounder_items,
        ("fcm", "mechanism", "w_x", "w_y", "trial", "seed", "p_value", "decision", "elapsed_s"),
        _cells(("fcm", "mechanism", "w_x", "w_y"), lambda cell: {
            "trials": len(cell),
            "majority_decision": _majority([r["decision"] for r in cell]),
            "median_p": _median_p(cell)}),
        max_n=1000, default_b=50),
    "significance": _Suite(
        _significance_items,
        ("mechanism", "weight", "trial", "seed", "p_value", "decision", "elapsed_s"),
        _cells(("mechanism", "weight"), lambda cell: {
            "trials": len(cell), "median_p": _median_p(cell),
            "frac_independent": sum(r["decision"] == INDEPENDENT for r in cell) / len(cell)}),
        max_n=1000, default_b=50),
}


def _row(config: RunConfig, fields: dict) -> dict:
    return {"suite": config.suite, **fields, "config_digest": config.digest()}


def _run_item(item) -> dict:
    """One suite record: load or generate the pairs, then score them."""
    config, data, seed, fields = item
    suite = _SUITES[config.suite]
    if isinstance(data, str):
        pairs, label = load_pairs(data), data
    else:
        pairs, label = generate(data), f"the {data.mechanism} pair of seed {data.seed}"
    verdict, n_used, elapsed = _score(pairs, label, config, seed, suite.max_n, suite.default_b)
    record = {**_verdict_record(verdict, config, seed, None),
              "correct": int(verdict.decision == fields.get("truth")),
              "n_used": n_used, "elapsed_s": round(elapsed, 6), **fields}
    return _row(config, {name: record[name] for name in suite.columns})


CHUNK = 4  # items a worker process takes at a time


def _map_tasks(fn, items: list, workers: int):
    """fn over items, in order, on at most one worker process per chunk of
    items: a pool starts all its processes at once, needed or not."""
    workers = min(workers, -(-len(items) // CHUNK))
    if workers <= 1:
        return [fn(item) for item in items]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items, chunksize=CHUNK))


def cmd_bench(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    if not config.out:
        raise DivotError("bench requires --out for the CSV report")
    t0 = time.perf_counter()
    suite = _SUITES[config.suite]
    items = [(config, *item) for item in suite.items(config)]
    records = _map_tasks(_run_item, items, config.workers)
    summary = [_row(config, row) for row in suite.summary(records)]
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
