"""Orient a causal skeleton by scoring every acyclic orientation.

The data columns are z-scored once per call. Each variable contributes the
raw transport-mismatch of its conditional given its parents (k-nearest-neighbor
batches in parent space, scale fitted per variable; a root is one whole-sample
batch). The DAG score, the sum over variables, does not depend on column
units, and the orientation with the minimum score wins.

Family terms are scored in stacked passes (`_score_families`): each parent
set is batched once, the families of one batch shape (g, k) are stacked as
the row blocks of one workspace, and the workspace's scales and measures come
from one call each, every block summed on its own. The stacks pending at once
hold at most max_positions * n elements, the size of one multi-parent
distance matrix, so memory stays O(max_positions * n) however many families a
skeleton has. When they are scored, each child's source values come from one
stream per child: one draw, whose prefixes serve all the child's stacks.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .divergence import build_workspace, measure_value
from .noise import draw_source_batches
from .errors import (
    InsufficientDataError,
    ShapeError,
    SkeletonParseError,
    SkeletonTooLargeError,
)
from .optimize import fit_theta
from .pairdata import (
    check_batch_frac,
    check_column,
    k_nearest_rows,
    nearest_batches,
    rows_per_batch,
    select_position_values,
    standardize,
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


def _data_matrix(data) -> np.ndarray:
    """`data` as floats, checked to be a (rows, variables) array of >= 2 rows."""
    data = np.asarray(data, dtype=float)
    if data.ndim != 2:
        raise ShapeError(f"data must be a 2-d (rows, variables) array, got shape {data.shape}")
    if len(data) < 2:
        raise InsufficientDataError(f"data needs at least 2 rows, got shape {data.shape}")
    return data


def _standardized(data: np.ndarray, batch_frac: float | None) -> np.ndarray:
    """`check_batch_frac`, `_data_matrix`, then `check_column` and
    `standardize` on each data column (labelled "data column j"), into one
    Fortran-order matrix whose columns are contiguous."""
    check_batch_frac(batch_frac)
    data = _data_matrix(data)
    z = np.empty(data.shape, order="F")
    for j in range(data.shape[1]):
        label = f"data column {j}"
        check_column(data[:, j], label)
        z[:, j] = standardize(data[:, j], label)
    return z


def _parent_batches(z: np.ndarray, parents: tuple[int, ...], max_positions: int,
                    k: int) -> np.ndarray:
    """k-NN batches in the z-scored parent space, a (positions, min(k, n)) row-index matrix.

    One parent reduces to the axis batching of the bivariate path (grid
    positions snapped to values). More parents anchor on rows evenly spaced
    in lexicographic parent order, taken from the first row of each run of
    equal rows in that order. The distance from an anchor to a row is the
    square root of its squared parent gaps, added in parent order, one
    parent column at a time over all anchors and rows; the buffer that held
    the gaps then takes the partition that finds each anchor's k-th distance.
    """
    n = z.shape[0]
    if len(parents) == 1:
        col = z[:, parents[0]]
        order = np.argsort(col, kind="stable")
        return nearest_batches(col, select_position_values(col, max_positions, order), k, order)
    if max_positions < 1:  # one parent: select_position_values checks it
        raise ValueError(f"max_positions must be >= 1, got {max_positions}")
    cols = z[:, list(parents)]
    order = np.lexsort(cols.T[::-1])
    in_order = cols[order]
    starts = np.ones(n, dtype=bool)
    np.any(in_order[1:] != in_order[:-1], axis=1, out=starts[1:])
    anchor_rows = order[starts]
    if len(anchor_rows) > max_positions:
        pick = np.zeros(len(anchor_rows), dtype=bool)
        pick[np.round(np.linspace(0, len(anchor_rows) - 1, max_positions)).astype(int)] = True
        anchor_rows = anchor_rows[pick]
    first, *rest = parents
    dist = np.subtract(z[:, first], z[anchor_rows, first, None])
    dist *= dist  # 0.0 + gap * gap is gap * gap: the first gap needs no sum
    gap = np.empty_like(dist)
    for p in rest:
        np.subtract(z[:, p], z[anchor_rows, p, None], out=gap)
        gap *= gap
        dist += gap
    np.sqrt(dist, out=dist)
    return k_nearest_rows(dist, min(k, n), scratch=gap)


def variable_term(data: np.ndarray, i: int, parents: tuple[int, ...],
                  source: str = "uniform",
                  batch_frac: float | None = None,
                  max_positions: int = 50,
                  seed: int = 0,
                  *, memo: dict | None = None) -> float:
    """Raw measure of variable i's z-scored conditional given its z-scored parents.

    The term is a pure function of the family (i, parents) once the data and
    the other arguments are fixed. Without `memo` the call checks and
    z-scores `data` (`_standardized`): data with the wrong shape raises as
    `_data_matrix` says, and a nan or infinite cell, or a constant column,
    raises DegenerateDataError naming the data column (and the row).
    `memo` maps families to terms computed with the same arguments, and
    gains this family's term, scored by a pass over it alone
    (`_score_families`); with it, `data` must be the z-scored matrix.
    A family not yet in `memo` whose indices (i and the parents) repeat or
    fall outside [0, m) raises ValueError.
    """
    if memo is None:
        data, memo = _standardized(data, batch_frac), {}
    key = (i, tuple(parents))
    if key not in memo:
        memo.update(_score_families(data, [key], source, batch_frac, max_positions, seed))
    return memo[key]


def _score_families(z, families, source, batch_frac, max_positions, seed) -> dict:
    """{(i, parents): term} for each family of `families`, scored in stacked passes.

    Every family is checked first: indices that repeat or fall outside
    [0, m) raise ValueError, and when batches would have < 2 members the
    first family with parents raises InsufficientDataError. Each distinct
    parent set is then batched once, in order of first appearance, and each
    of its families waits, as its child's values gathered by those batches,
    in the pending stack of its batch shape (g, k). Before the stacks would
    pass max_positions * n elements together, `_score_stacks` scores them
    (one flush), drawing one stream per child for the flush. A family's term
    is bit-equal to that of a pass over it alone.
    """
    n, m = z.shape
    by_parents = {}  # parent set -> its children, in order of first appearance
    for i, parents in families:
        family = (i, *parents)
        if len(set(family)) < len(family) or not all(0 <= v < m for v in family):
            raise ValueError(f"variable {i} with parents {tuple(parents)}: indices must be "
                             f"distinct and in [0, {m})")
        by_parents.setdefault(tuple(parents), []).append(i)
    k = rows_per_batch(n, batch_frac)
    if min(k, n) < 2:
        for i, parents in families:
            if parents:
                raise InsufficientDataError(
                    f"variable {i}: every parent-space batch has < 2 members")
    bound = max_positions * n
    terms, stacks, size = {}, {}, 0
    for parents, children in by_parents.items():
        idx = _parent_batches(z, parents, max_positions, k) if parents else np.arange(n)[None]
        for i in children:
            if size + idx.size > bound and stacks:
                terms.update(_score_stacks(stacks, source, seed))
                stacks, size = {}, 0
            stacks.setdefault(idx.shape, []).append(((i, parents), z[:, i][idx]))
            size += idx.size
    terms.update(_score_stacks(stacks, source, seed))
    return terms


def _score_stacks(stacks, source, seed) -> dict:
    """{family: term} for each stack of {(g, k): [(family, child values)]},
    scored as one workspace of one block per family.

    A child's draws come from its own stream (`variable_seed`), drawn once
    for all the stacks: one sampler call sized to the largest g * k among the
    child's families, whose first g * k values, row by row, are each family's
    draws. Every built-in sampler draws in sequence, its first m values equal
    to an m-value call from the same state (`draw_source_batches`), so each
    equals a draw for that shape alone.
    """
    need = {}
    for (g, k), blocks in stacks.items():
        for (i, _), _ in blocks:
            need[i] = max(need.get(i, 0), g * k)
    streams = {i: draw_source_batches(source, [size], variable_seed(seed, i))[0]
               for i, size in need.items()}
    terms = {}
    for (g, k), blocks in stacks.items():
        draws = [streams[i][:g * k] for (i, _), _ in blocks]
        ws = build_workspace(source, np.zeros(g * len(blocks)),
                             np.concatenate([ys for _, ys in blocks]), None,
                             source_draws=np.concatenate(draws).reshape(-1, k),
                             blocks=len(blocks))
        values = measure_value(ws, fit_theta(ws))
        terms.update(zip((family for family, _ in blocks),
                         values if ws.blocks > 1 else [values]))
    return terms


def multivariate_measure(data: np.ndarray, dag: DagOrientation,
                         source: str = "uniform",
                         batch_frac: float | None = None,
                         max_positions: int = 50,
                         seed: int = 0,
                         *, memo: dict | None = None) -> float:
    """Sum of per-variable conditional measures under the orientation.

    One `source` applies to every variable. `memo` (and `data`, z-scored) go
    to every `variable_term`; without `memo` the data is checked and z-scored
    once and the m families are scored in one pass (`_score_families`).
    """
    fresh = memo is None
    if fresh:
        data = _standardized(data, batch_frac)
    m = data.shape[1]
    if dag.m != m:
        raise ValueError(f"orientation is over {dag.m} variables, data has {m} columns")
    if fresh:
        memo = _score_families(data, [(i, dag.parents(i)) for i in range(m)], source,
                               batch_frac, max_positions, seed)
    return sum(
        variable_term(data, i, dag.parents(i), source, batch_frac, max_positions, seed,
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
                    source: str = "uniform",
                    batch_frac: float | None = None,
                    max_positions: int = 50,
                    seed: int = 0) -> OrientationResult:
    """Score every acyclic orientation of the skeleton and keep the minimum.

    Ties break toward the lexicographically smallest direction-flag vector.
    The data is checked and z-scored once (`_standardized`), so the result
    does not depend on column units. A negative seed, then data of the wrong
    shape (`_data_matrix`), then a skeleton over other than one variable per
    data column, raises first. Before the enumeration, one stacked pass
    (`_score_families`) scores every family an orientation can hold: each
    variable with each subset of its skeleton neighbours. Its stacks hold at
    most max_positions * n elements at once, and each flush of them draws one
    source stream per child. Every orientation then reads its terms from that
    memo.
    """
    if seed < 0:  # numpy seeds only from non-negative integers
        raise ValueError(f"seed must be >= 0, got {seed}")
    data = _data_matrix(data)
    edges = skeleton.edges
    if len(edges) > MAX_EDGES:
        raise SkeletonTooLargeError(
            f"{len(edges)} edges exceed the enumeration limit of {MAX_EDGES}; "
            "orient edges pairwise with the bivariate tool instead"
        )
    if skeleton.m != data.shape[1]:
        raise ValueError(f"skeleton is over {skeleton.m} variables, "
                         f"data has {data.shape[1]} columns")
    data = _standardized(data, batch_frac)
    nbrs = [[] for _ in range(skeleton.m)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    nbrs = [sorted(near) for near in nbrs]  # parent tuples ascend, as `parents` gives them
    # The first orientation points every edge (u, v), u < v, at v. Its
    # families go first, so that data too small to batch names the variable
    # the enumeration would reach first.
    families = [(i, tuple(u for u in nbrs[i] if u < i)) for i in range(skeleton.m)]
    families += [(i, parents) for i in range(skeleton.m)
                 for r in range(len(nbrs[i]) + 1)
                 for parents in itertools.combinations(nbrs[i], r)]
    memo = _score_families(data, list(dict.fromkeys(families)), source, batch_frac,
                           max_positions, seed)
    scored = []
    for flags in itertools.product((0, 1), repeat=len(edges)):
        directed = tuple(
            (v, u) if flip else (u, v) for (u, v), flip in zip(edges, flags)
        )
        try:
            dag = DagOrientation(skeleton.m, directed)
        except ValueError:  # the orientation has a cycle
            continue
        score = multivariate_measure(data, dag, source, batch_frac, max_positions, seed,
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
