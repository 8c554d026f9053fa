"""Orient a causal skeleton by scoring every acyclic orientation.

Each variable contributes the raw transport-mismatch of its conditional given
its parents (k-nearest-neighbor batches in standardized parent space, scale
fitted per variable); roots contribute a single whole-sample noise fit. The
DAG score is the sum over variables, and the orientation with the minimum
score wins.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .divergence import build_workspace, measure_value
from .errors import (
    DegenerateDataError,
    InsufficientDataError,
    SkeletonParseError,
    SkeletonTooLargeError,
)
from .optimize import FitConfig, fit_theta
from .pairdata import (
    check_column,
    default_batch_frac,
    k_nearest_rows,
    nearest_batches,
    select_position_values,
)

MAX_EDGES = 12


def variable_seed(seed: int, i: int) -> int:
    """Per-variable noise stream seed (decorrelates the variable fits)."""
    return seed ^ (0x9E3779B1 * (i + 1))


@dataclass(frozen=True)
class Skeleton:
    """Undirected adjacency structure over m variables."""

    m: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        seen = set()
        for u, v in self.edges:
            _add_edge(self.m, u, v, seen)
        object.__setattr__(self, "edges", tuple(sorted(seen)))


def _add_edge(m: int, u: int, v: int, seen: set) -> None:
    """Add undirected edge (u, v) to `seen` as (min, max).

    Raises ValueError for a self-loop, an index outside [0, m) or an edge
    already in `seen`.
    """
    if u == v:
        raise ValueError(f"self-loop at variable {u}")
    if not (0 <= u < m and 0 <= v < m):
        raise ValueError(f"edge ({u}, {v}) out of range for m={m}")
    key = (min(u, v), max(u, v))
    if key in seen:
        raise ValueError(f"duplicate edge {key}")
    seen.add(key)


def load_skeleton(path: str, m: int) -> Skeleton:
    """Edge-list file: one 'i j' pair per line, 0-based indices; '#' comments."""
    edges = []
    seen = set()
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            fields = stripped.split()
            if len(fields) < 2:
                raise SkeletonParseError(path, line_no, f"expected 2 fields, got {len(fields)}")
            try:
                u, v = int(fields[0]), int(fields[1])
            except ValueError as exc:
                raise SkeletonParseError(path, line_no, f"non-integer field: {exc}") from None
            try:
                _add_edge(m, u, v, seen)
            except ValueError as exc:
                raise SkeletonParseError(path, line_no, str(exc)) from None
            edges.append((u, v))
    return Skeleton(m, tuple(edges))


@dataclass(frozen=True)
class DagOrientation:
    """A directed acyclic orientation; edges are (parent, child) pairs."""

    m: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple((int(u), int(v)) for u, v in self.edges))
        if not _is_acyclic_edges(self.m, self.edges):
            raise ValueError("orientation contains a cycle")

    def parents(self, i: int) -> tuple[int, ...]:
        return tuple(sorted(u for u, v in self.edges if v == i))


def _is_acyclic_edges(m: int, edges) -> bool:
    indeg = [0] * m
    out = {i: [] for i in range(m)}
    for u, v in edges:
        indeg[v] += 1
        out[u].append(v)
    queue = [i for i in range(m) if indeg[i] == 0]
    seen = 0
    while queue:
        node = queue.pop()
        seen += 1
        for nxt in out[node]:
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                queue.append(nxt)
    return seen == m


def _standardize(col: np.ndarray, what: str) -> np.ndarray:
    sd = col.std(ddof=1)
    if sd == 0.0 or not np.isfinite(sd):
        raise DegenerateDataError(f"{what} has zero standard deviation")
    return (col - col.mean()) / sd


def _parent_batches(data: np.ndarray, parents: tuple[int, ...], max_positions: int,
                    batch_frac: float):
    """Anchor rows and k-NN batches in standardized Euclidean parent space.

    Each parent's data column is z-scored; a constant one raises
    DegenerateDataError naming that data column. One parent reduces to the
    axis batching of the bivariate path (grid positions snapped to values).
    More parents anchor on rows evenly spaced in lexicographic parent order,
    taken from the first row of each run of equal rows in that order. The
    distance from an anchor to a row is the square root of its d squared
    parent differences summed in the grouping numpy's `.sum(axis=-1)` uses
    (see `_column_sum`), one parent column at a time over all anchors and
    rows. The batches are a (positions, min(k, n)) row-index matrix.
    """
    n = data.shape[0]
    cols = [_standardize(data[:, p], f"data column {p}") for p in parents]
    k = math.ceil(batch_frac * n)
    if len(cols) == 1:
        order = np.argsort(cols[0], kind="stable")
        positions = select_position_values(cols[0], max_positions, order)
        batches = nearest_batches(cols[0], positions, k, order)
        return positions.reshape(-1, 1), batches
    if max_positions < 1:  # one parent: select_position_values checks it
        raise ValueError(f"max_positions must be >= 1, got {max_positions}")
    order = np.lexsort(cols[::-1])
    run_start = np.zeros(n, dtype=bool)
    run_start[0] = True
    for col in cols:
        in_order = col[order]
        run_start[1:] |= in_order[1:] != in_order[:-1]
    anchor_rows = order[run_start]
    if len(anchor_rows) > max_positions:
        pick = np.unique(np.round(np.linspace(0, len(anchor_rows) - 1, max_positions)).astype(int))
        anchor_rows = anchor_rows[pick]
    anchors = np.column_stack([col[anchor_rows] for col in cols])

    def squared_gap(j, out=None):
        gap = np.subtract(cols[j], anchors[:, j, None], out=out)
        return np.multiply(gap, gap, out=gap)

    dist = _column_sum(squared_gap, 0, len(cols))
    np.sqrt(dist, out=dist)
    rows = np.broadcast_to(np.arange(n), dist.shape)
    return anchors, k_nearest_rows(rows, dist, min(k, n))[0]


def _column_sum(term, lo: int, hi: int) -> np.ndarray:
    """The sum of the arrays term(j), lo <= j < hi, grouped as numpy's pairwise
    summation groups a length hi - lo axis, so it equals `.sum(axis=-1)` of
    their stack bit for bit. term(j) returns a new array; term(j, out)
    writes into `out` and returns it.

    Fewer than 8 terms are added in order. Up to 128 terms go to 8 partial
    sums (term j to partial j % 8, for all but the last (hi - lo) % 8
    terms), which are added as ((0+1)+(2+3))+((4+5)+(6+7)) before the
    leftover terms are added in order. More terms split at half the count,
    rounded down to a multiple of 8, and each half is summed this way.
    """
    count = hi - lo
    if count > 128:
        half = count // 2
        half -= half % 8
        total = _column_sum(term, lo, lo + half)
        total += _column_sum(term, lo + half, hi)
        return total
    if count < 8:
        total, full = term(lo), lo + 1
    else:
        part = [term(lo + j) for j in range(8)]
        full = lo + count - count % 8
        buf = np.empty_like(part[0])
        for j in range(lo + 8, full):
            part[(j - lo) % 8] += term(j, buf)
        for a, b in ((0, 1), (2, 3), (4, 5), (6, 7), (0, 2), (4, 6), (0, 4)):
            part[a] += part[b]
        total = part[0]
    if hi > full:
        buf = np.empty_like(total)
        for j in range(full, hi):
            total += term(j, buf)
    return total


def variable_term(data: np.ndarray, i: int, parents: tuple[int, ...],
                  source: str = "uniform",
                  batch_frac: float | None = None,
                  max_positions: int = 50,
                  fit: FitConfig | None = None,
                  seed: int = 0,
                  *, memo: dict | None = None) -> float:
    """Raw measure of variable i's conditional given its parents.

    Roots are fitted as pure noise over a single whole-sample batch. The term
    is a pure function of the family (i, parents) once the data and the other
    arguments are fixed; `memo`, when given, maps families to terms computed
    with the same data and arguments, and gains this family's term.

    Without `memo` the columns it reads are checked first: a nan or infinite
    cell, or a constant column i, raises DegenerateDataError naming the data
    column (and the row); a constant parent column raises one when it is
    z-scored. A caller passing `memo` has checked every column.
    """
    if memo is None:
        check_column(data[:, i], f"data column {i}")
        for p in parents:
            check_column(data[:, p], f"data column {p}", constant_ok=True)
        return _variable_term(data, i, parents, source, batch_frac, max_positions, fit, seed)
    key = (i, tuple(parents))
    if key not in memo:
        memo[key] = _variable_term(data, i, parents, source, batch_frac, max_positions, fit, seed)
    return memo[key]


def _check_columns(data: np.ndarray) -> None:
    """`check_column` on every data column, labelled by its index."""
    for j in range(data.shape[1]):
        check_column(data[:, j], f"data column {j}")


def _variable_term(data, i, parents, source, batch_frac, max_positions, fit, seed) -> float:
    n = data.shape[0]
    x_i = np.asarray(data[:, i], dtype=float)
    frac = batch_frac if batch_frac is not None else default_batch_frac(n)
    vseed = variable_seed(seed, i)
    if not parents:
        ws = build_workspace(source, np.zeros(1), [x_i], None, vseed)
        theta = fit_theta(ws, config=fit)
        return measure_value(ws, theta)
    if min(math.ceil(frac * n), n) < 2:
        raise InsufficientDataError(f"variable {i}: every parent-space batch has < 2 members")
    anchors, idx = _parent_batches(data, parents, max_positions, frac)
    if len(parents) == 1:
        anchor_vals = anchors[:, 0]
        xs_per_batch = data[idx, parents[0]]
    else:
        anchor_vals = np.zeros(len(idx))
        xs_per_batch = None
    ws = build_workspace(source, anchor_vals, x_i[idx], xs_per_batch, vseed)
    theta = fit_theta(ws, config=fit)
    return measure_value(ws, theta)


def multivariate_measure(data: np.ndarray, dag: DagOrientation,
                         sources=None,
                         batch_frac: float | None = None,
                         max_positions: int = 50,
                         fit: FitConfig | None = None,
                         seed: int = 0,
                         *, memo: dict | None = None) -> float:
    """Sum of per-variable conditional measures under the orientation.

    `sources` may be a single source name or one per variable. `memo` is
    handed to every `variable_term`. Without `memo` every data column is
    checked once, as `variable_term` checks its own, and the terms share a
    fresh memo so that none checks again.
    """
    data = np.asarray(data, dtype=float)
    m = data.shape[1]
    if dag.m != m:
        raise ValueError(f"orientation is over {dag.m} variables, data has {m} columns")
    if memo is None:
        _check_columns(data)
        memo = {}
    if sources is None:
        sources = ["uniform"] * m
    elif isinstance(sources, str):
        sources = [sources] * m
    elif len(sources) != m:
        raise ValueError(f"{len(sources)} sources given for {m} variables")
    return sum(
        variable_term(data, i, dag.parents(i), sources[i], batch_frac, max_positions, fit, seed,
                      memo=memo)
        for i in range(m)
    )


@dataclass(frozen=True)
class OrientationResult:
    """The best orientation and every acyclic orientation ranked by score.

    The ranking is held as two byte strings, `flags` (one byte per sorted
    skeleton edge and orientation; 0 keeps (u, v) as u->v, 1 reverses it)
    and `scores` (float64), both best first; `ranking` rebuilds the tuples.
    """

    dag: DagOrientation
    score: float
    flags: bytes
    scores: bytes

    @property
    def ranking(self) -> tuple[tuple[tuple[int, ...], float], ...]:
        """(direction flags, score) for every acyclic orientation, best first."""
        e = len(self.dag.edges)
        return tuple(
            (tuple(self.flags[r * e:(r + 1) * e]), score)
            for r, score in enumerate(np.frombuffer(self.scores).tolist())
        )


def orient_skeleton(data: np.ndarray, skeleton: Skeleton,
                    sources=None,
                    batch_frac: float | None = None,
                    max_positions: int = 50,
                    fit: FitConfig | None = None,
                    seed: int = 0,
                    max_edges: int = MAX_EDGES) -> OrientationResult:
    """Score every acyclic orientation of the skeleton and keep the minimum.

    Ties break toward the lexicographically smallest direction-flag vector.
    Each family term is computed once and reused by every orientation that
    contains the family. A nan or infinite cell, or a constant column,
    raises DegenerateDataError naming the data column (and the row).
    """
    edges = skeleton.edges
    if len(edges) > max_edges:
        raise SkeletonTooLargeError(
            f"{len(edges)} edges exceed the enumeration limit of {max_edges}; "
            "orient edges pairwise with the bivariate tool instead"
        )
    data = np.asarray(data, dtype=float)
    _check_columns(data)
    memo = {}
    scored = []
    for flags in itertools.product((0, 1), repeat=len(edges)):
        directed = tuple(
            (v, u) if flip else (u, v) for (u, v), flip in zip(edges, flags)
        )
        try:
            dag = DagOrientation(skeleton.m, directed)
        except ValueError:  # the orientation has a cycle
            continue
        score = multivariate_measure(data, dag, sources, batch_frac, max_positions, fit, seed,
                                     memo=memo)
        scored.append((flags, score, dag))
    if not scored:
        raise InsufficientDataError("skeleton admits no acyclic orientation")
    scored.sort(key=lambda t: (t[1], t[0]))
    _, best_score, best_dag = scored[0]
    return OrientationResult(
        dag=best_dag, score=best_score,
        flags=bytes(f for flags, _, _ in scored for f in flags),
        scores=np.array([score for _, score, _ in scored]).tobytes(),
    )
