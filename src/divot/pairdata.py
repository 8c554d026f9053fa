"""Cause-effect pair ingestion, preprocessing, position selection and batching.

A pair file is plain text with one observation per line, whitespace-separated
numeric columns; lines starting with '#' are ignored.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateDataError, InsufficientDataError, PairParseError, ShapeError


@dataclass(frozen=True)
class SamplePair:
    """An ordered dataset of (x, y) observations.

    Arrays are treated as immutable after construction. `x_order` and
    `y_order` (keyword-only), when given, must be the stable argsorts of `xs`
    and `ys`; otherwise `by_x` and `by_y` compute them on first use and keep
    them.
    """

    xs: np.ndarray
    ys: np.ndarray
    x_order: np.ndarray | None = field(default=None, repr=False, compare=False, kw_only=True)
    y_order: np.ndarray | None = field(default=None, repr=False, compare=False, kw_only=True)

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        ys = np.asarray(self.ys, dtype=float)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)
        if xs.ndim != 1 or ys.ndim != 1 or len(xs) != len(ys):
            raise InsufficientDataError("xs and ys must be 1-d vectors of equal length")
        if len(xs) < 2:
            raise InsufficientDataError(f"need at least 2 rows, got {len(xs)}")

    @property
    def n(self) -> int:
        return len(self.xs)

    @property
    def by_x(self) -> np.ndarray:
        """The stable argsort of `xs`, computed once."""
        if self.x_order is None:
            object.__setattr__(self, "x_order", np.argsort(self.xs, kind="stable"))
        return self.x_order

    @property
    def by_y(self) -> np.ndarray:
        """The stable argsort of `ys`, computed once."""
        if self.y_order is None:
            object.__setattr__(self, "y_order", np.argsort(self.ys, kind="stable"))
        return self.y_order

    def swapped(self) -> "SamplePair":
        """The same dataset with the roles of x and y exchanged (and of their orders)."""
        return SamplePair(self.ys, self.xs, x_order=self.y_order, y_order=self.x_order)

    def resample(self, counts: np.ndarray) -> "SamplePair":
        """Each row r taken counts[r] times, in row order, as a new pair. Its
        stable orders come from this pair's in O(n) (see `_expand_order`),
        not from new sorts."""
        if len(counts) != self.n:
            raise ValueError(f"need one count per row ({self.n}), got {len(counts)}")
        idx = np.repeat(np.arange(self.n), counts)
        first = counts.cumsum() - counts
        return SamplePair(self.xs[idx], self.ys[idx],
                          x_order=_expand_order(self.by_x, counts, first),
                          y_order=_expand_order(self.by_y, counts, first))


def _expand_order(order: np.ndarray, counts: np.ndarray, first: np.ndarray) -> np.ndarray:
    """The stable argsort of a resampled column, from the column's own `order`.

    The resample takes row r of the column counts[r] times, as the run of
    rows that starts at first[r], with the runs in row order. Equal values
    keep their row order in both sorts, so listing each row's run in the
    order of `order` gives np.argsort(resample, kind="stable") exactly,
    ties included.
    """
    runs = counts[order]
    # each run counts up from its first row, offset from where it lands
    offset = np.repeat(first[order] - (runs.cumsum() - runs), runs)
    return offset + np.arange(len(offset))


def batch_size(sizes) -> int:
    """The one size shared by every batch, 0 for no batches.

    Batches of different sizes raise ShapeError naming two of the sizes.
    """
    sizes = np.asarray(sizes, dtype=int).reshape(-1)
    mixed = np.flatnonzero(sizes != sizes[:1])
    if len(mixed):
        raise ShapeError(f"batches of mixed sizes {sizes[0]} and {sizes[mixed[0]]}; "
                         "every batch needs the same size")
    return int(sizes[0]) if len(sizes) else 0


def batch_matrix(rows, dtype) -> np.ndarray:
    """One vector per batch as a (g, k) matrix of `dtype`.

    A 2-d array is that matrix already and is not copied unless cast; a
    sequence of vectors must have one length (see `batch_size`).
    """
    if isinstance(rows, np.ndarray) and rows.ndim == 2:
        return rows.astype(dtype, copy=False)
    rows = [np.asarray(r, dtype=dtype) for r in rows]
    k = batch_size([len(r) for r in rows])
    return np.array(rows, dtype=dtype).reshape(len(rows), k)


@dataclass(frozen=True)
class BatchSet:
    """Positions on the cause axis and the sample indices batched around them.

    `batches` is a (g, k) row-index matrix, one row per position, as
    `make_batches` returns it; a sequence of g index vectors of one length
    becomes that matrix.
    """

    positions: np.ndarray
    batches: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "positions", np.asarray(self.positions, dtype=float))
        object.__setattr__(self, "batches", batch_matrix(self.batches, int))
        if len(self.positions) != len(self.batches):
            raise InsufficientDataError("positions and batches must align")
        if len(self.batches) and self.batches.shape[1] < 2:
            raise InsufficientDataError("every batch needs at least 2 members")

    def __len__(self) -> int:
        return len(self.batches)


def load_pairs(path: str, columns: tuple[int, int] = (0, 1)) -> SamplePair:
    """Read a two-column whitespace-separated pair file.

    `columns` selects which fields become x and y, as non-negative field
    indices (a negative one raises ValueError); row order is preserved.

    The file is parsed in one pass over all its lines (`_parse_at_once`).
    Only a file with a bad line, one with too few fields, a field float()
    rejects or a non-finite value, is read again line by line
    (`_parse_lines`), which raises PairParseError naming the first such line.
    """
    cx, cy = columns
    if cx < 0 or cy < 0:
        raise ValueError(f"columns must be non-negative field indices, got {cx} {cy}")
    need = max(2, cx + 1, cy + 1)
    xs, ys = _parse_at_once(path, cx, cy, need) or _parse_lines(path, cx, cy, need)
    if len(xs) < 2:
        raise InsufficientDataError(f"{path}: fewer than 2 data rows")
    return SamplePair(xs, ys)


def _parse_at_once(path: str, cx: int, cy: int,
                   need: int) -> tuple[np.ndarray, np.ndarray] | None:
    """Columns cx and cy of every data line, or None if a line is bad.

    The text is split into lines (universal newlines, so the lines a file
    iterator yields), each line into fields, and blank and '#' lines are
    dropped. Each column is converted by one np.array(..., dtype=float),
    which parses a field as float() does, and checked for finiteness once.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError:  # the line loop may find a bad line before it
            return None
    rows = [f for f in map(str.split, text.split("\n")) if f and f[0][0] != "#"]
    if min(map(len, rows), default=need) < need:
        return None
    try:
        xs = np.array([f[cx] for f in rows], dtype=float)
        ys = np.array([f[cy] for f in rows], dtype=float)
    except ValueError:  # a field float() rejects
        return None
    return (xs, ys) if np.isfinite(xs).all() and np.isfinite(ys).all() else None


def _parse_lines(path: str, cx: int, cy: int, need: int) -> tuple[np.ndarray, np.ndarray]:
    """Columns cx and cy read line by line; the first line with fewer than
    `need` fields, a non-numeric field or a non-finite value raises
    PairParseError with its line number."""
    xs: list[float] = []
    ys: list[float] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            fields = stripped.split()
            if len(fields) < need:
                raise PairParseError(
                    path, line_no, f"expected at least {need} columns, got {len(fields)}"
                )
            try:
                x, y = float(fields[cx]), float(fields[cy])
            except ValueError as exc:
                raise PairParseError(path, line_no, f"non-numeric field: {exc}") from None
            if not (math.isfinite(x) and math.isfinite(y)):
                raise PairParseError(path, line_no, f"non-finite value: {x} {y}")
            xs.append(x)
            ys.append(y)
    return np.array(xs), np.array(ys)


def check_column(col: np.ndarray, label: str) -> None:
    """Raise DegenerateDataError if `col` holds a nan or infinite value (naming
    the first such row) or one value only; `label` names the column."""
    lo, hi = col.min(), col.max()  # a nan or inf shows in one of them
    if not (np.isfinite(lo) and np.isfinite(hi)):
        row = int(np.flatnonzero(~np.isfinite(col))[0])
        raise DegenerateDataError(f"{label} has non-finite value {col[row]} at row {row}")
    if lo == hi:
        raise DegenerateDataError(f"{label} is constant")


def check_pair(pairs: SamplePair) -> None:
    """`check_column` on column x, then on column y."""
    check_column(pairs.xs, "column x")
    check_column(pairs.ys, "column y")


def standardize(col: np.ndarray, label: str) -> np.ndarray:
    """(col - mean) / sd with the sample sd (n-1 denominator); an sd that is 0
    or not finite (under- or overflow) raises DegenerateDataError naming `label`."""
    sd = col.std(ddof=1)
    if sd == 0.0 or not np.isfinite(sd):
        raise DegenerateDataError(f"{label} has standard deviation {sd}")
    return (col - col.mean()) / sd


def normalize(pairs: SamplePair) -> SamplePair:
    """Z-score both columns (`standardize`).

    A nan or infinite value, a constant column, or a standard deviation that
    underflows to 0 or overflows raises DegenerateDataError.
    """
    check_pair(pairs)
    return SamplePair(standardize(pairs.xs, "column x"), standardize(pairs.ys, "column y"))


def trim_outliers(pairs: SamplePair, k_std: float = 2.0) -> SamplePair:
    """Drop rows where either normalized coordinate lies beyond k_std."""
    keep = (np.abs(pairs.xs) <= k_std) & (np.abs(pairs.ys) <= k_std)
    if np.count_nonzero(keep) < 2:
        raise InsufficientDataError("fewer than 2 rows survive outlier trimming")
    return SamplePair(pairs.xs[keep], pairs.ys[keep])


def subsample(pairs: SamplePair, max_n: int, seed: int) -> SamplePair:
    """Uniform random subsample down to max_n rows, preserving row order."""
    if pairs.n <= max_n:
        return pairs
    rng = np.random.default_rng(seed)
    idx = np.sort(rng.choice(pairs.n, size=max_n, replace=False))
    return SamplePair(pairs.xs[idx], pairs.ys[idx])


def preprocess(pairs: SamplePair, max_n: int = 500, k_std: float = 2.0, seed: int = 0) -> SamplePair:
    """Normalize, trim outliers, then subsample to at most max_n rows.

    Trimming can leave a column constant (many equal values and one outlier,
    say); like a constant input column, that raises DegenerateDataError.
    """
    out = subsample(trim_outliers(normalize(pairs), k_std), max_n, seed)
    for name, col in (("x", out.xs), ("y", out.ys)):
        if col.min() == col.max():
            raise DegenerateDataError(f"column {name} is constant after outlier trimming")
    return out


def check_batch_frac(batch_frac: float | None) -> None:
    """Raise ValueError unless 0 < batch_frac <= 1; None (the sample-size
    schedule of `default_batch_frac`) passes."""
    if batch_frac is not None and not 0.0 < batch_frac <= 1.0:
        raise ValueError(f"batch_frac must be in (0, 1], got {batch_frac}")


def default_batch_frac(n: int) -> float:
    """Batch size (as a fraction of n) by sample-size bracket."""
    if n <= 10:
        return 0.4
    if n <= 50:
        return 0.2
    if n <= 200:
        return 0.15
    return 0.05


def rows_per_batch(n: int, batch_frac: float | None) -> int:
    """The batch size k = ceil(f * n) of n rows, with f = batch_frac, or
    `default_batch_frac(n)` when batch_frac is None. A batch_frac outside
    (0, 1] raises ValueError (`check_batch_frac`)."""
    check_batch_frac(batch_frac)
    return math.ceil((default_batch_frac(n) if batch_frac is None else batch_frac) * n)


def select_position_values(x: np.ndarray, max_positions: int = 50,
                           order: np.ndarray | None = None) -> np.ndarray:
    """Anchor values along the x-range, snapped to actual data values.

    With n <= max_positions every distinct value is used; otherwise anchors
    are laid out every (max-min)/max_positions and snapped to the nearest
    data value. Returned sorted ascending and deduplicated. A max_positions
    below 1 raises ValueError.

    `order`, when given, must be the stable argsort of x; the distinct values
    are then read off x[order] instead of sorting x again. That equals
    np.unique(x) bit for bit, except that where x holds both 0.0 and -0.0
    the zero kept is the first in row order (np.unique keeps whichever its
    unstable sort puts first).
    """
    if max_positions < 1:
        raise ValueError(f"max_positions must be >= 1, got {max_positions}")
    x = np.asarray(x, dtype=float)
    uniq = _distinct(x[order] if order is not None else np.sort(x))
    if len(x) <= max_positions:
        return uniq
    lo, hi = uniq[0], uniq[-1]
    step = (float(hi) - float(lo)) / max_positions  # a float overflow is inf, with no warning
    if step < math.inf:
        grid = lo + step * np.arange(max_positions)
    else:  # the range exceeds the largest float: lay the grid out at half scale
        grid = 2 * (lo / 2 + (hi / 2 - lo / 2) / max_positions * np.arange(max_positions))
    # snap each grid point to the nearest available value (ties to the lower)
    # searchsorted gives 0..len(uniq), so one bound each keeps both indices in range
    right = np.minimum(np.searchsorted(uniq, grid, side="left"), len(uniq) - 1)
    left = np.maximum(right - 1, 0)
    pick_left = np.abs(grid - uniq[left]) <= np.abs(uniq[right] - grid)
    # the grid ascends and snapping keeps its order, so only repeats remain
    return _distinct(np.where(pick_left, uniq[left], uniq[right]))


def _distinct(ascending: np.ndarray) -> np.ndarray:
    """The first value of each run of equal values, as np.unique marks them."""
    keep = np.empty(len(ascending), dtype=bool)
    keep[:1] = True
    np.not_equal(ascending[1:], ascending[:-1], out=keep[1:])
    return ascending[keep]


def select_positions(pairs: SamplePair, max_positions: int = 50) -> np.ndarray:
    return select_position_values(pairs.xs, max_positions, pairs.by_x)


def k_nearest_rows(dist: np.ndarray, k: int,
                   scratch: np.ndarray | None = None) -> np.ndarray:
    """Per line of `dist`, which holds a distance to each row, the k nearest
    rows in ascending order, ties to the lowest row: the result equals
    np.sort(np.argsort(dist, kind="stable")[:, :k], axis=1). Needs
    1 <= k <= dist.shape[1] and no nan. `scratch`, a spare float array of
    dist's shape, holds the partition that finds the k-th distances in place
    of a new copy of dist.
    """
    if scratch is None:
        scratch = np.partition(dist, k - 1, axis=1)
    else:
        np.copyto(scratch, dist)
        scratch.partition(k - 1, axis=1)
    kth = scratch[:, k - 1:k]
    pick = dist <= kth
    # every line picks at least k; more than k in all means some line has more
    # rows tied at its k-th distance than it needs, and each line then keeps
    # its first tied rows, which have the smallest indices
    if np.count_nonzero(pick) > k * len(dist):
        nearer = dist < kth
        tied = pick & ~nearer
        pick = nearer | (tied & (np.cumsum(tied, axis=1) <= k - nearer.sum(axis=1, keepdims=True)))
    return np.broadcast_to(np.arange(dist.shape[1]), dist.shape)[pick].reshape(len(dist), k)


def nearest_batches(x: np.ndarray, positions: np.ndarray, k: int,
                    order: np.ndarray | None = None) -> np.ndarray:
    """For each position, the indices of the min(k, n) nearest rows in |x - position|.

    Distance ties are broken by smaller row index, as a stable argsort of
    |x - position| would. Returns a (positions, min(k, n)) matrix whose rows
    list each batch in ascending row order; k < 1 gives empty batches.

    x is sorted once (or `order`, the stable argsort of x, is taken as
    given). |x - p| falls and then rises along sorted x, rounding included,
    so the k nearest rows of p are a run [s, s + k) of the sorted order
    unless ties at the k-th distance break it. One binary search of the
    positions over the midpoints xs[s]/2 + xs[s + k]/2 finds each run, and
    exact distances certify it: the rows just outside the run must be
    farther than its k-th distance, the larger of its two ends' distances.
    `_nearest_runs` certifies each run and mends one that fails from the
    stable order; a position it cannot mend is selected over all rows. A
    non-finite x or position raises DegenerateDataError.
    """
    x = np.asarray(x, dtype=float)
    positions = np.asarray(positions, dtype=float)
    if not (np.isfinite(x).all() and np.isfinite(positions).all()):
        for label, values in (("x row", x), ("position", positions)):
            bad = np.flatnonzero(~np.isfinite(values))
            if len(bad):
                raise DegenerateDataError(f"{label} {bad[0]} is non-finite: {values[bad[0]]}")
    n = len(x)
    if k >= n:
        return np.tile(np.arange(n), (len(positions), 1))
    if k < 1:
        return np.empty((len(positions), 0), dtype=int)
    by_x = order if order is not None else np.argsort(x, kind="stable")
    # sorted x between two infinite rows: every run has a row on each side
    padded = np.concatenate(([-np.inf], x[by_x], [np.inf]))
    half = padded / 2  # halved first: xs[s] + xs[s + k] can overflow
    start = np.searchsorted(half[1:n + 1 - k] + half[1 + k:-1], positions)
    found, cells = _nearest_runs(padded, by_x, positions, start, k)
    out = np.sort(by_x[cells], axis=1)
    for i in (~found).nonzero()[0]:
        out[i] = _nearest_rows(x, positions[i], k)
    return out


def _run_ends(padded: np.ndarray, positions: np.ndarray, start: np.ndarray,
              k: int) -> tuple[np.ndarray, np.ndarray]:
    """x at the row before, the first row, the last row and the row after
    each run [start, start + k) of sorted x, and |x - p| there, each as the
    rows of a (4, positions) matrix; beyond either end of x, x is infinite."""
    values = padded[start + np.array([[0], [1], [k], [k + 1]])]
    return values, np.abs(values - positions)


def _nearest_runs(padded: np.ndarray, by_x: np.ndarray, positions: np.ndarray,
                  start: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k nearest rows of each position as cells of the sorted order,
    from the run [start, start + k) of sorted x that the midpoint search gave.

    The run is the answer when the rows just outside it are farther than its
    k-th distance. A row outside that is nearer means that rounding
    misplaced the search: the run then moves toward that row until it has
    dropped the other rows equal to its far end or taken in all the rows
    equal to that row, whichever comes first. A row outside as near as the
    k-th distance is a tie. Ties are taken as at most one value on each
    side, each a run of equal values, which the stable order lists by
    ascending row index. That holds when the row beyond each tied value is
    farther and the rows between them are nearer, which exact distances
    check. A batch takes every row between them and, of the tied rows,
    those with the lowest indices: the first rows of one tied value, or the
    first rows of each of two, as many of each as `_merge_rank` ranks below
    the count needed.

    Returns a mask of the positions so resolved and a (positions, k) matrix
    of cells; a position left out keeps its run and needs an exact selection.
    """
    xs = padded[1:-1]
    rows, ends = _run_ends(padded, positions, start, k)
    kth = np.maximum(ends[1], ends[2])
    outside = np.minimum(ends[0], ends[3])
    sure = outside > kth  # whatever ties lie inside the run
    if np.count_nonzero(outside < kth):
        early, late = ends[0] < kth, ends[3] < kth
        # where the first and the row after the run end their values, and
        # where the last and the row before it start theirs
        ends_at = np.searchsorted(xs, rows[[1, 3]], side="right")
        starts_at = np.searchsorted(xs, rows[[2, 0]])
        start = np.where(late, np.minimum(ends_at[0], ends_at[1] - k),
                         np.where(early, np.maximum(starts_at[0] - k, starts_at[1]), start))
        rows, ends = _run_ends(padded, positions, start, k)
        kth = np.maximum(ends[1], ends[2])
    tied = ends == kth
    # each side's tied value: the run's end or the row beyond it; on a side
    # with no tie the row beyond the run, whose own run ends (or starts) there
    values = np.where(tied[1:3], rows[1:3], rows[[0, 3]])
    first = np.searchsorted(xs, values)
    last = np.searchsorted(xs, values, side="right")
    # [la, lb) and [ra, rb) hold the tied rows, [lb, ra) the nearer ones
    la = np.where(tied[0] | tied[1], first[0], last[0])
    lb = last[0]
    ra = np.maximum(first[1], lb)  # one value tied on both sides is the left one
    rb = np.maximum(np.where(tied[2] | tied[3], last[1], first[1]), lb)
    # the rows beyond the tied values are farther, the first and last between them nearer
    check = np.abs(padded[np.array([la, rb + 1, lb + 1, ra])] - positions)
    ties = ((np.minimum(check[0], check[1]) > kth)
            & ((lb >= ra) | (np.maximum(check[2], check[3]) < kth)))
    need = k - (ra - lb)
    take = np.where(ties & (ra == rb), need, 0)  # tied rows taken from the left value
    both = (ties & (la < lb) & (ra < rb)).nonzero()[0]
    if len(both):
        take[both] = _merge_rank(by_x, la[both], lb[both], ra[both], rb[both], need[both])
    lb = np.where(ties, lb, start)
    cols = np.arange(k)
    # the first `take` rows of the left tied value, then the rows from lb on
    return sure | ties, cols + np.where(cols < take[:, None], la[:, None],
                                        (lb - take)[:, None])


def _merge_rank(by_x: np.ndarray, la: np.ndarray, lb: np.ndarray, ra: np.ndarray,
                rb: np.ndarray, need: np.ndarray) -> np.ndarray:
    """How many of the `need` lowest row indices in by_x[la:lb] and by_x[ra:rb]
    come from the first, per position; each slice ascends.

    The i-th index of the first list is among them when it is below the
    (need - i + 1)-th of the second, or the second is shorter than that:
    a test that holds for every i up to the answer and for none after, so
    the answer counts the i in 1..min(need, lb - la) that pass it.
    """
    most = np.minimum(need, lb - la)
    i = np.arange(1, most.max() + 1)
    rival = need[:, None] - i  # the place in the second list that the i-th must beat
    mine = by_x[np.minimum(la[:, None] + i - 1, len(by_x) - 1)]
    theirs = by_x[np.minimum(ra[:, None] + rival, len(by_x) - 1)]
    wins = (rival >= (rb - ra)[:, None]) | (mine < theirs)
    return np.count_nonzero(wins & (i <= most[:, None]), axis=1)


def _nearest_rows(x: np.ndarray, p: float, k: int) -> np.ndarray:
    """One position's batch by a full stable argsort of |x - p|."""
    return np.sort(np.argsort(np.abs(x - p), kind="stable")[:k])


def make_batches(pairs: SamplePair, positions: np.ndarray,
                 batch_frac: float | None) -> BatchSet:
    """Gather the k nearest rows around each position, k = `rows_per_batch`:
    ceil(batch_frac * n), or by the sample-size schedule of
    `default_batch_frac` when batch_frac is None.

    Every batch has min(k, n) rows, so either all positions are kept, as a
    (g, k) batch matrix, or the batches would have fewer than 2 members and
    the data cannot support the measure.
    """
    k = rows_per_batch(pairs.n, batch_frac)
    positions = np.asarray(positions, dtype=float)
    if not len(positions):
        raise InsufficientDataError("no positions to batch around")
    if min(k, pairs.n) < 2:
        raise InsufficientDataError(
            f"all {len(positions)} batches dropped (batch size {k} < 2)"
        )
    return BatchSet(positions, nearest_batches(pairs.xs, positions, k, pairs.by_x))
