"""The variance-based transport-mismatch measure and its parameter gradients.

Per batch the effect values are (optionally) passed through the invertible
post-nonlinear transform, debiased, sorted, matched against sorted scaled
noise draws, centered by the mean difference, and the residual energy is
divided by (batch size - 1). The measure averages those terms over batches.

Every batch has the same size k, so a workspace holds its g batches as (g, k)
matrices and each kernel is one vectorized pass over them. A workspace sorts
its draws and its effect values once. `measure_value`, `measure_with_grad` and
`sorted_effects` all read the effects through one sorted view
(`_sorted_view`), which sorts again only when the transform or the debias
breaks a batch's order, and the value and gradients share one residual
computation (`_residuals`).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InsufficientDataError, NumericError
from .noise import NoiseModel, canonical_source, draw_source_batches, model_variance
from .pairdata import batch_matrix


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


@dataclass(frozen=True, slots=True)
class MeasureValue:
    """Raw measure estimate and its noise-variance-normalized companion."""

    raw: float
    normalized: float


@dataclass(frozen=True)
class MeasureWorkspace:
    """Everything fixed during optimization: the batches and their source draws.

    Row b of each (g, k) matrix belongs to batch b: `ys` its effect values,
    `xs` its cause values (None when not given), `draws` its unscaled source
    draws, and `e_sorted` and `y_sorted` the draws and the effect values
    sorted. `anchors` (g,) holds each batch's position.
    """

    source: str
    anchors: np.ndarray
    ys: np.ndarray
    xs: np.ndarray | None
    draws: np.ndarray
    e_sorted: np.ndarray
    y_sorted: np.ndarray

    @property
    def n_batches(self) -> int:
        return len(self.anchors)

    @property
    def k(self) -> int:
        return self.ys.shape[1]

    @cached_property
    def y_tied(self) -> np.ndarray:
        """(g, k - 1): True where a sorted effect has the same bits as the one before it."""
        bits = self.y_sorted.view(np.int64)
        return bits[:, 1:] == bits[:, :-1]


def build_workspace(source: str, anchors, ys_per_batch, xs_per_batch=None,
                    seed: int = 0, source_draws=None) -> MeasureWorkspace:
    """The (g, k) matrices of g batches and one fixed source sample per member.

    `ys_per_batch`, `xs_per_batch` and `source_draws` each give one vector
    per batch: a (g, k) matrix, which the workspace keeps without a copy, or
    a sequence of g vectors of one length k. Vectors of mixed lengths raise
    ShapeError. The draws come from a single stream seeded once, so repeated
    evaluations during optimization see the same sample. The draws and the
    effect values are sorted once, here.
    """
    src = canonical_source(source)
    ys = batch_matrix(ys_per_batch, float)
    g, k = ys.shape
    if k < 2:
        raise InsufficientDataError("every batch needs at least 2 members")
    anchors = np.asarray(anchors, dtype=float)
    if len(anchors) != g:
        raise InsufficientDataError("one anchor position per batch required")
    xs = None
    if xs_per_batch is not None:
        xs = batch_matrix(xs_per_batch, float)
        if xs.shape != ys.shape:
            raise InsufficientDataError("xs_per_batch must match ys_per_batch lengths")
    if source_draws is None:
        source_draws = draw_source_batches(src, np.full(g, k), seed)
    draws = batch_matrix(source_draws, float)
    if draws.shape != ys.shape:
        raise InsufficientDataError("one source draw per batch member required")
    return MeasureWorkspace(src, anchors, ys, xs, draws,
                            np.sort(draws, axis=1), np.sort(ys, axis=1))


def workspace_from_batches(pairs, batches, source: str, seed: int = 0,
                           source_draws=None) -> MeasureWorkspace:
    """Workspace for a SamplePair batched on its x (cause) axis, one gather per matrix."""
    idx = batches.batches
    return build_workspace(source, batches.positions, pairs.ys[idx], pairs.xs[idx],
                           seed, source_draws)


def _debiased(ws: MeasureWorkspace, d: np.ndarray, debias: DebiasFn | None) -> np.ndarray:
    if debias is None:
        return d
    if debias.per_row:
        if ws.xs is None:
            raise InsufficientDataError("per-row debiasing needs per-batch x values")
        return d - debias.w * ws.xs
    return d - debias.w * ws.anchors[:, None]


def _transformed(ws: MeasureWorkspace, y: np.ndarray, debias: DebiasFn | None,
                 pnl: PnlTransform | None):
    """(t, d) elementwise: t = tanh(b * y + c) (None without a transform) and
    the effects d = y + a * t, debiased."""
    if pnl is None:
        return None, _debiased(ws, y, debias)
    t = np.tanh(pnl.omega_b * y + pnl.omega_c)
    return t, _debiased(ws, y + pnl.omega_a * t, debias)


def _sorted_view(ws: MeasureWorkspace, debias: DebiasFn | None, pnl: PnlTransform | None):
    """(d, y, t, x): each batch's transformed, debiased effects d in stable order.

    Beside each value of d are its effect value y and tanh term t (both None
    without a transform) and, for a per-row debias, its cause value x (else
    None). While d rises strictly wherever the workspace's sorted effects
    change, it comes from those sorted effects with no sort: equal values give
    bit-equal d, t and y, so a stable sort would return the same values in
    the same pairing. A per-row debias shifts each member by its own x, so it
    always sorts, as does a transform or debias that reorders or ties
    distinct effects: one stable argsort, gathered with one flat index.
    """
    if debias is None and pnl is None:
        return ws.y_sorted, None, None, None
    per_row = debias is not None and debias.per_row
    if not per_row:
        t, d = _transformed(ws, ws.y_sorted, debias, pnl)
        if ((d[:, 1:] > d[:, :-1]) | ws.y_tied).all():
            return d, None if pnl is None else ws.y_sorted, t, None
    t, d = _transformed(ws, ws.ys, debias, pnl)
    flat = np.argsort(d, kind="stable", axis=1) + np.arange(0, d.size, ws.k)[:, None]
    y, x = None if pnl is None else ws.ys, ws.xs if per_row else None
    return tuple(None if a is None else a.take(flat) for a in (d, y, t, x))


def sorted_effects(ws: MeasureWorkspace, debias: DebiasFn | None = None,
                   pnl: PnlTransform | None = None) -> np.ndarray:
    """The effect values, transformed and debiased, sorted per batch.

    With neither a debias nor a transform these are the effects the
    workspace sorted once. A transform or an anchor debias that keeps each
    batch's order is applied to them without a sort.
    """
    return _sorted_view(ws, debias, pnl)[0]


def _residuals(ws: MeasureWorkspace, d: np.ndarray, theta: float):
    """(r, value): the batch-centred residuals of d - theta * e and the raw
    measure, their energy over (k - 1) averaged over batches. A non-finite
    measure raises NumericError."""
    s = d - theta * ws.e_sorted
    r = s - s.mean(axis=1, keepdims=True)
    value = (0.0 + float((r * r).sum()) / (ws.k - 1)) / ws.n_batches
    if not np.isfinite(value):
        raise NumericError(f"measure is non-finite at theta={theta}")
    return r, value


def measure_value(ws: MeasureWorkspace, theta: float,
                  debias: DebiasFn | None = None,
                  pnl: PnlTransform | None = None) -> float:
    """The raw measure at the given parameters."""
    return _residuals(ws, _sorted_view(ws, debias, pnl)[0], theta)[1]


def measure_with_grad(ws: MeasureWorkspace, theta: float,
                      debias: DebiasFn | None = None,
                      pnl: PnlTransform | None = None):
    """Raw measure plus analytic gradients under the frozen sort permutations.

    Returns (value, grads) where grads maps 'theta', 'w', 'omega_a',
    'omega_b', 'omega_c' to partial derivatives. At sorting ties this is the
    subgradient induced by the stable sort, taken on the same sorted view as
    the value (see `_sorted_view`).
    """
    d, y, t, x = _sorted_view(ws, debias, pnl)
    r, value = _residuals(ws, d, theta)
    scale = 2.0 / (ws.k - 1)
    nb = ws.n_batches

    def grad(ds: np.ndarray) -> float:
        # ds is each residual's derivative; the mean over batches comes last
        return (0.0 + scale * float((r * ds).sum())) / nb

    grads = {"theta": grad(-ws.e_sorted), "w": 0.0, "omega_a": 0.0, "omega_b": 0.0,
             "omega_c": 0.0}
    if debias is not None:
        grads["w"] = grad(-(x if debias.per_row else ws.anchors[:, None]))
    if pnl is not None:
        sech2 = 1.0 - t**2
        grads["omega_a"] = grad(t)
        grads["omega_b"] = grad(pnl.omega_a * y * sech2)
        grads["omega_c"] = grad(pnl.omega_a * sech2)
    return value, grads


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
    return normalized_measure(ws, model.theta, measure_value(ws, model.theta, debias, pnl))


def normalized_measure(ws: MeasureWorkspace, theta: float, raw: float) -> MeasureValue:
    """MeasureValue of a raw measure at theta, normalized by the workspace's source."""
    return MeasureValue(raw=raw, normalized=raw / model_variance(NoiseModel(ws.source, theta)))
