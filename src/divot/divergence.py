"""The variance-based transport-mismatch measure and its parameter gradients.

Per batch the effect values are (optionally) passed through the invertible
post-nonlinear transform, debiased, sorted, matched against sorted scaled
noise draws, centered by the mean difference, and the residual energy is
divided by (batch size - 1). The measure averages those terms over batches.

Every batch has the same size k, so a workspace holds its g batches as (g, k)
matrices and each kernel is one vectorized pass over them. A workspace sorts
its draws and its effect values once. An evaluation applies the transform and
an anchor debias to the sorted effects elementwise and skips the sort when
every rise of a row stays a strict rise: a stable sort would then return the
same values in the same pairing. Only a per-row debias, or a transform or
debias that reorders or ties distinct effects (a non-invertible transform, or
rounding), sorts again.
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


def pnl_transform(ys, omega: PnlTransform) -> np.ndarray:
    """Elementwise y + a * tanh(b * y + c)."""
    ys = np.asarray(ys, dtype=float)
    return ys + omega.omega_a * np.tanh(omega.omega_b * ys + omega.omega_c)


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


def _order_kept(ws: MeasureWorkspace, debias: DebiasFn | None, pnl: PnlTransform | None):
    """(t, d) of the workspace's sorted effects when they stay sorted, else None.

    The effects stay sorted when d rises strictly wherever the sorted effect
    values change; equal values give bit-equal d, t and y. A stable sort of
    the transformed effects would then return d unchanged, with the same t and
    y beside each value. A per-row debias shifts each member by its own x, so
    it always needs the sort.
    """
    if debias is not None and debias.per_row:
        return None
    t, d = _transformed(ws, ws.y_sorted, debias, pnl)
    if ((d[:, 1:] > d[:, :-1]) | ws.y_tied).all():
        return t, d
    return None


def sorted_effects(ws: MeasureWorkspace, debias: DebiasFn | None = None,
                   pnl: PnlTransform | None = None) -> np.ndarray:
    """The effect values, transformed and debiased, sorted per batch.

    With neither a debias nor a transform these are the effects the
    workspace sorted once. A transform or an anchor debias that keeps each
    batch's order is applied to them without a sort.
    """
    if debias is None and pnl is None:
        return ws.y_sorted
    kept = _order_kept(ws, debias, pnl)
    if kept is not None:
        return kept[1]
    return np.sort(_transformed(ws, ws.ys, debias, pnl)[1], axis=1)


def measure_value(ws: MeasureWorkspace, theta: float,
                  debias: DebiasFn | None = None,
                  pnl: PnlTransform | None = None) -> float:
    """The raw measure at the given parameters."""
    s = sorted_effects(ws, debias, pnl) - theta * ws.e_sorted
    r = s - s.mean(axis=1, keepdims=True)
    value = (0.0 + float((r * r).sum()) / (ws.k - 1)) / ws.n_batches
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

    The sort is skipped when the transform and an anchor debias keep every
    batch's order: the workspace's sorted effects, transformed, are then what
    the stable sort would return. A per-row debias, or a transform or debias
    that reorders or ties distinct effects, falls back to a stable argsort.
    Both give bit-identical results.
    """
    g = {"theta": 0.0, "w": 0.0, "omega_a": 0.0, "omega_b": 0.0, "omega_c": 0.0}
    kept = _order_kept(ws, debias, pnl)
    if kept is not None:
        t_s, d_s = kept
        y_s, x_s = ws.y_sorted, None
    else:
        t, d = _transformed(ws, ws.ys, debias, pnl)
        order = np.argsort(d, kind="stable", axis=1)
        flat = order + np.arange(0, d.size, ws.k)[:, None]
        d_s, y_s = d.take(flat), ws.ys.take(flat)
        t_s = t.take(flat) if t is not None else None
        x_s = ws.xs.take(flat) if debias is not None and debias.per_row else None
    s = d_s - theta * ws.e_sorted
    r = s - s.mean(axis=1, keepdims=True)
    scale = 2.0 / (ws.k - 1)
    total = 0.0 + float((r * r).sum()) / (ws.k - 1)
    g["theta"] += scale * float((r * (-ws.e_sorted)).sum())
    if debias is not None:
        xi = x_s if debias.per_row else np.broadcast_to(ws.anchors[:, None], d_s.shape)
        g["w"] += scale * float((r * (-xi)).sum())
    if pnl is not None:
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
