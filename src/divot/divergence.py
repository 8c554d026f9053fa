"""The variance-based transport-mismatch measure and its parameter gradients.

Per batch the effect values are (optionally) passed through the invertible
post-nonlinear transform, debiased, sorted, matched against sorted scaled
noise draws, centered by the mean difference, and the residual energy is
divided by (batch size - 1). The measure averages those terms over batches.

Batches of equal size are stacked into matrices so evaluation is vectorized;
mixed sizes fall back to one stack per distinct size. A workspace sorts its
draws and its effect values once; every evaluation without a debias or a
transform reuses the sorted effects.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError, NumericError
from .noise import NoiseModel, canonical_source, draw_source_batches, model_variance


@dataclass(frozen=True)
class DebiasFn:
    """Linear position correction g(x) = w * x subtracted from effect values.

    With `per_row=False` the batch anchor position is used for every member
    (the batch idealization: one shared cause value). A shared constant is
    absorbed by the mean-centering, so anchor debiasing cannot change the
    measure; `per_row=True` subtracts w * x_i using each row's own cause
    value, which is what actually offsets wide-batch bias.
    """

    w: float = 0.0
    per_row: bool = False

    def __call__(self, x):
        return self.w * np.asarray(x, dtype=float)


@dataclass(frozen=True)
class PnlTransform:
    """Invertible-when-flagged effect transform y + a * tanh(b * y + c)."""

    omega_a: float = 0.0
    omega_b: float = 0.0
    omega_c: float = 0.0

    @property
    def invertible(self) -> bool:
        # derivative 1 + a*b*sech^2(.) stays positive everywhere iff a*b > -1
        return self.omega_a * self.omega_b > -1.0

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.omega_a, self.omega_b, self.omega_c)


@dataclass(frozen=True, slots=True)
class MeasureValue:
    """Raw measure estimate and its noise-variance-normalized companion."""

    raw: float
    normalized: float


def pnl_transform(ys, omega: PnlTransform) -> np.ndarray:
    """Elementwise y + a * tanh(b * y + c)."""
    ys = np.asarray(ys, dtype=float)
    return ys + omega.omega_a * np.tanh(omega.omega_b * ys + omega.omega_c)


@dataclass(frozen=True)
class _Stack:
    """Equal-size batches stacked row-wise."""

    y: np.ndarray  # (g, k)
    x: np.ndarray | None  # (g, k) per-row cause values
    anchors: np.ndarray  # (g,)
    e: np.ndarray  # (g, k) unscaled draws
    e_sorted: np.ndarray  # (g, k) the draws sorted per row
    y_sorted: np.ndarray  # (g, k) the effect values sorted per row
    batches: np.ndarray  # (g,) the workspace's batch index of each row

    @property
    def k(self) -> int:
        return self.y.shape[1]

    @property
    def g(self) -> int:
        return self.y.shape[0]


@dataclass(frozen=True)
class MeasureWorkspace:
    """Everything fixed during optimization: stacked batch slices and source draws."""

    source: str
    anchors: np.ndarray
    stacks: tuple[_Stack, ...]

    @property
    def n_batches(self) -> int:
        return len(self.anchors)

    @property
    def ys(self) -> tuple[np.ndarray, ...]:
        """Effect values per batch, as row views of the stacks."""
        return self._rows("y")

    @property
    def xs(self) -> tuple[np.ndarray, ...] | None:
        """Cause values per batch, as row views of the stacks, if given."""
        if not self.stacks or self.stacks[0].x is None:
            return None
        return self._rows("x")

    @property
    def draws(self) -> tuple[np.ndarray, ...]:
        """Unscaled source draws per batch, as row views of the stacks."""
        return self._rows("e")

    def _rows(self, name: str) -> tuple[np.ndarray, ...]:
        rows = [None] * self.n_batches
        for st in self.stacks:
            for i, row in zip(st.batches, getattr(st, name)):
                rows[i] = row
        return tuple(rows)


def _batch_rows(values):
    """One float vector per batch; a 2-d array is kept whole, its rows the vectors."""
    if isinstance(values, np.ndarray) and values.ndim == 2:
        return values.astype(float, copy=False)
    return [np.asarray(v, dtype=float) for v in values]


def _sizes(rows) -> np.ndarray:
    """Members per batch: from the shape of a matrix, else per vector."""
    if isinstance(rows, np.ndarray):
        return np.full(rows.shape[0], rows.shape[1])
    return np.array([len(r) for r in rows], dtype=int)


def _stack(rows, sel: np.ndarray) -> np.ndarray:
    """The vectors `sel` of `rows` as one matrix.

    A matrix holds batches of one size only, so `sel` then selects all of it.
    """
    if isinstance(rows, np.ndarray):
        return rows
    return np.array([rows[i] for i in sel])


def build_workspace(source: str, anchors, ys_per_batch, xs_per_batch=None,
                    seed: int = 0, source_draws=None) -> MeasureWorkspace:
    """Stack batches by size and draw one fixed source sample per batch member.

    `ys_per_batch`, `xs_per_batch` and `source_draws` each give one vector
    per batch: a sequence of 1-d arrays, or a (g, k) matrix when every batch
    has k members, which becomes the stack itself without a copy. The draws
    come from a single stream seeded once, so repeated evaluations during
    optimization see the same sample. Each stack's draws and effect values
    are sorted once, here.
    """
    src = canonical_source(source)
    ys = _batch_rows(ys_per_batch)
    sizes = _sizes(ys)
    if (sizes < 2).any():
        raise InsufficientDataError("every batch needs at least 2 members")
    anchors = np.asarray(anchors, dtype=float)
    if len(anchors) != len(sizes):
        raise InsufficientDataError("one anchor position per batch required")
    xs = None
    if xs_per_batch is not None:
        xs = _batch_rows(xs_per_batch)
        if not np.array_equal(_sizes(xs), sizes):
            raise InsufficientDataError("xs_per_batch must match ys_per_batch lengths")
    if source_draws is None:
        source_draws = draw_source_batches(src, sizes, seed)
    draws = _batch_rows(source_draws)
    if not np.array_equal(_sizes(draws), sizes):
        raise InsufficientDataError("one source draw per batch member required")

    stacks = []
    for k in sorted(set(sizes.tolist())):
        sel = np.flatnonzero(sizes == k)
        e = _stack(draws, sel)
        y = _stack(ys, sel)
        stacks.append(
            _Stack(
                y=y,
                x=_stack(xs, sel) if xs is not None else None,
                anchors=anchors[sel],
                e=e,
                e_sorted=np.sort(e, axis=1),
                y_sorted=np.sort(y, axis=1),
                batches=sel,
            )
        )
    return MeasureWorkspace(src, anchors, tuple(stacks))


def workspace_from_batches(pairs, batches, source: str, seed: int = 0,
                           source_draws=None) -> MeasureWorkspace:
    """Workspace for a SamplePair batched on its x (cause) axis."""
    idx = batches.batches
    if isinstance(idx, np.ndarray):  # one gather into the (g, k) stacks
        return build_workspace(source, batches.positions, pairs.ys[idx], pairs.xs[idx],
                               seed, source_draws)
    ys = [pairs.ys[b] for b in idx]
    xs = [pairs.xs[b] for b in idx]
    return build_workspace(source, batches.positions, ys, xs, seed, source_draws)


def _debiased(st: _Stack, d: np.ndarray, debias: DebiasFn | None) -> np.ndarray:
    if debias is None:
        return d
    if debias.per_row:
        if st.x is None:
            raise InsufficientDataError("per-row debiasing needs per-batch x values")
        return d - debias.w * st.x
    return d - debias.w * st.anchors[:, None]


def sorted_effects(st: _Stack, debias: DebiasFn | None = None,
                   pnl: PnlTransform | None = None) -> np.ndarray:
    """A stack's effect values, transformed and debiased, sorted per row.

    With neither a debias nor a transform these are the effects the
    workspace sorted once, so fitting and evaluating share that sort.
    """
    if debias is None and pnl is None:
        return st.y_sorted
    d = pnl_transform(st.y, pnl) if pnl is not None else st.y
    return np.sort(_debiased(st, d, debias), axis=1)


def measure_value(ws: MeasureWorkspace, theta: float,
                  debias: DebiasFn | None = None,
                  pnl: PnlTransform | None = None) -> float:
    """The raw measure at the given parameters."""
    total = 0.0
    for st in ws.stacks:
        s = sorted_effects(st, debias, pnl) - theta * st.e_sorted
        r = s - s.mean(axis=1, keepdims=True)
        total += float((r * r).sum()) / (st.k - 1)
    value = total / ws.n_batches
    if not np.isfinite(value):
        raise NumericError(f"measure is non-finite at theta={theta}")
    return value


def measure_with_grad(ws: MeasureWorkspace, theta: float,
                      debias: DebiasFn | None = None,
                      pnl: PnlTransform | None = None):
    """Raw measure plus analytic gradients under the frozen sort permutations.

    Returns (value, grads) where grads maps 'theta', 'w', 'omega_a',
    'omega_b', 'omega_c' to partial derivatives. At sorting ties this is the
    subgradient induced by the stable sort.
    """
    g = {"theta": 0.0, "w": 0.0, "omega_a": 0.0, "omega_b": 0.0, "omega_c": 0.0}
    total = 0.0
    for st in ws.stacks:
        if pnl is not None:
            t = np.tanh(pnl.omega_b * st.y + pnl.omega_c)
            d = st.y + pnl.omega_a * t
        else:
            t = None
            d = st.y
        d = _debiased(st, d, debias)
        order = np.argsort(d, kind="stable", axis=1)
        s = np.take_along_axis(d, order, axis=1) - theta * st.e_sorted
        r = s - s.mean(axis=1, keepdims=True)
        scale = 2.0 / (st.k - 1)
        total += float((r * r).sum()) / (st.k - 1)
        g["theta"] += scale * float((r * (-st.e_sorted)).sum())
        if debias is not None:
            if debias.per_row:
                xi = np.take_along_axis(st.x, order, axis=1)
            else:
                xi = np.broadcast_to(st.anchors[:, None], d.shape)
            g["w"] += scale * float((r * (-xi)).sum())
        if pnl is not None:
            t_s = np.take_along_axis(t, order, axis=1)
            y_s = np.take_along_axis(st.y, order, axis=1)
            sech2 = 1.0 - t_s**2
            g["omega_a"] += scale * float((r * t_s).sum())
            g["omega_b"] += scale * float((r * (pnl.omega_a * y_s * sech2)).sum())
            g["omega_c"] += scale * float((r * (pnl.omega_a * sech2)).sum())
    nb = ws.n_batches
    value = total / nb
    if not np.isfinite(value):
        raise NumericError(f"measure is non-finite at theta={theta}")
    return value, {key: val / nb for key, val in g.items()}


def variance_divergence(batches, ys_per_batch, model: NoiseModel,
                        debias: DebiasFn | None = None,
                        pnl: PnlTransform | None = None,
                        seed: int = 0,
                        xs_per_batch=None,
                        source_draws=None) -> MeasureValue:
    """Raw and variance-normalized measure for given batches at a fixed model.

    `batches` supplies the anchor positions; `source_draws` (unscaled, one
    vector per batch) overrides the seeded stream when provided.
    """
    ws = build_workspace(model.source, batches.positions, ys_per_batch,
                         xs_per_batch, seed, source_draws)
    raw = measure_value(ws, model.theta, debias, pnl)
    return MeasureValue(raw=raw, normalized=raw / model_variance(model))


def normalized_measure(ws: MeasureWorkspace, theta: float, raw: float) -> MeasureValue:
    """MeasureValue of a raw measure at theta, normalized by the workspace's source."""
    return MeasureValue(raw=raw, normalized=raw / model_variance(NoiseModel(ws.source, theta)))
