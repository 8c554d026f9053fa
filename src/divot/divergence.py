"""The variance-based transport-mismatch measure and its parameter gradients.

Per batch the effect values are (optionally) passed through the invertible
post-nonlinear transform, debiased, sorted, matched against sorted scaled
noise draws, centered by the mean difference, and the residual energy is
divided by (batch size - 1). The measure averages those terms over batches.

Every batch has the same size k, so a workspace holds its g batches as (g, k)
matrices and each kernel is one vectorized pass over them. A workspace sorts
its draws and its effect values once; every evaluation without a debias or a
transform reuses the sorted effects.
"""
from __future__ import annotations

from dataclasses import dataclass

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


def sorted_effects(ws: MeasureWorkspace, debias: DebiasFn | None = None,
                   pnl: PnlTransform | None = None) -> np.ndarray:
    """The effect values, transformed and debiased, sorted per batch.

    With neither a debias nor a transform these are the effects the
    workspace sorted once, so fitting and evaluating share that sort.
    """
    if debias is None and pnl is None:
        return ws.y_sorted
    d = pnl_transform(ws.ys, pnl) if pnl is not None else ws.ys
    return np.sort(_debiased(ws, d, debias), axis=1)


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
    """
    g = {"theta": 0.0, "w": 0.0, "omega_a": 0.0, "omega_b": 0.0, "omega_c": 0.0}
    if pnl is not None:
        t = np.tanh(pnl.omega_b * ws.ys + pnl.omega_c)
        d = ws.ys + pnl.omega_a * t
    else:
        t = None
        d = ws.ys
    d = _debiased(ws, d, debias)
    order = np.argsort(d, kind="stable", axis=1)
    s = np.take_along_axis(d, order, axis=1) - theta * ws.e_sorted
    r = s - s.mean(axis=1, keepdims=True)
    scale = 2.0 / (ws.k - 1)
    total = 0.0 + float((r * r).sum()) / (ws.k - 1)
    g["theta"] += scale * float((r * (-ws.e_sorted)).sum())
    if debias is not None:
        if debias.per_row:
            xi = np.take_along_axis(ws.xs, order, axis=1)
        else:
            xi = np.broadcast_to(ws.anchors[:, None], d.shape)
        g["w"] += scale * float((r * (-xi)).sum())
    if pnl is not None:
        t_s = np.take_along_axis(t, order, axis=1)
        y_s = np.take_along_axis(ws.ys, order, axis=1)
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
