"""The variance-based transport-mismatch measure and its parameter gradients.

Per batch the effect values are (optionally) passed through the invertible
post-nonlinear transform, debiased, sorted, matched against sorted scaled
noise draws, centered by the mean difference, and the residual energy is
divided by (batch size - 1). The measure averages those terms over batches.

Every batch has the same size k, so a workspace holds its g batches as (g, k)
matrices and each kernel is one vectorized pass over them. A workspace keeps
only sorted data: its draws and its effect values, each sorted once, and the
cause values in the effects' order; workspaces of one k may take their
draws from one sample (`batch_draws`), each sorting its own first g rows
into a copy. `measure_value`, `measure_with_grad` and `sorted_effects` all
read the effects through one sorted view (`_sorted_view`), which transforms
and debiases the sorted effects once and sorts again only where that broke
a batch's order; the workspace keeps the last view, so readers that pass
the same debias and transform objects share it: the pnl fit's value and
its gradient at one point read one view. The value and gradients share one
residual computation (`_residuals`), and `measure_with_grad` sums r^2 and
every gradient term in one stacked reduction (`_row_sums`), each row
bit-equal to the sum of its own (g, k) matrix.

A workspace may stack several problems of one shape as equal row blocks
(`blocks`): `measure_value` then takes one scale per block and sums each
block on its own, so a block's measure is bit-equal to that of a workspace
holding the block alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError, NumericError
from .noise import NoiseModel, canonical_source, draw_source_batches, scaled_variance
from .pairdata import batch_matrix


@dataclass(frozen=True)
class DebiasFn:
    """Linear position correction g(x) = w * x subtracted from each effect
    value, x being that row's own cause value: it offsets wide-batch bias.

    `per_row=False` raises ValueError: a shift that a whole batch shares (w
    times its anchor) is absorbed by the per-batch centring.
    """

    w: float = 0.0
    per_row: bool = True

    def __post_init__(self):
        if not self.per_row:
            raise ValueError("a per-batch debias shift is absorbed by the centring")


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

    Row b of each (g, k) matrix belongs to batch b: `e_sorted` its unscaled
    source draws, sorted, `y_sorted` its effect values, sorted, and `xs` its
    cause values in the order of `y_sorted` (None when not given). The g rows
    form `blocks` equal blocks of `batches_per_block` rows, each scored on
    its own.
    """

    source: str
    e_sorted: np.ndarray
    y_sorted: np.ndarray
    xs: np.ndarray | None
    blocks: int = 1

    # (debias, pnl, view) of the last sorted view built (see `_sorted_view`)
    _last_view = None

    @property
    def n_batches(self) -> int:
        return len(self.y_sorted)

    @property
    def batches_per_block(self) -> int:
        return len(self.y_sorted) // self.blocks

    @property
    def k(self) -> int:
        return self.y_sorted.shape[1]


def _row_gather(flat: np.ndarray, *arrays):
    """Each (g, k) array taken at a row-wise argsort `flat`, which is turned
    in place into one flat index; None stays None."""
    flat += np.arange(0, flat.size, flat.shape[1])[:, None]
    return tuple(None if a is None else a.take(flat) for a in arrays)


def batch_draws(source: str, g: int, k: int, seed: int) -> np.ndarray:
    """The (g, k) unscaled source draws, unsorted, of one stream seeded once:
    the sample a workspace of g batches of k draws from `seed`.

    Every sampler draws in sequence (`draw_source_batches`), so the first g'
    rows equal `batch_draws(source, g', k, seed)` bit for bit, and one draw
    sized to the largest g serves workspaces of several g and one k.
    """
    return draw_source_batches(source, np.full(g, k), seed)


def build_workspace(source: str, anchors, ys_per_batch, xs_per_batch=None,
                    seed: int = 0, source_draws=None, blocks: int = 1) -> MeasureWorkspace:
    """The (g, k) matrices of g batches and one fixed source sample per member.

    `anchors` gives each batch's position, one per batch; the measure does
    not read them. `ys_per_batch`, `xs_per_batch` and `source_draws` each
    give one vector per batch: a (g, k) matrix or a sequence of g vectors of
    one length k. Vectors of mixed lengths raise ShapeError. Without
    `source_draws` the draws come from a single stream seeded once, so
    repeated evaluations during optimization see the same sample. The draws
    and the effect values are sorted once, here, and the workspace keeps
    only sorted data: it sorts a sample it drew in place and a caller's
    `source_draws` into a copy, and with `xs_per_batch` it orders each
    batch's effect and cause values by one stable argsort of its effects.
    `blocks` splits the g batches into that many equal blocks (see
    `MeasureWorkspace`); a g it does not divide raises ValueError.
    """
    src = canonical_source(source)
    ys = batch_matrix(ys_per_batch, float)
    g, k = ys.shape
    if k < 2:
        raise InsufficientDataError("every batch needs at least 2 members")
    if len(anchors) != g:
        raise InsufficientDataError("one anchor position per batch required")
    if blocks < 1 or g % blocks:
        raise ValueError(f"{g} batches do not split into {blocks} equal blocks")
    if xs_per_batch is None:
        y_sorted, xs = np.sort(ys, axis=1), None
    else:
        xs = batch_matrix(xs_per_batch, float)
        if xs.shape != ys.shape:
            raise InsufficientDataError("xs_per_batch must match ys_per_batch lengths")
        y_sorted, xs = _row_gather(np.argsort(ys, kind="stable", axis=1), ys, xs)
    if source_draws is None:  # drawn here, so sorted in place
        e_sorted = batch_draws(src, g, k, seed)
        e_sorted.sort(axis=1)
    else:
        draws = batch_matrix(source_draws, float)
        if draws.shape != ys.shape:
            raise InsufficientDataError("one source draw per batch member required")
        e_sorted = np.sort(draws, axis=1)
    return MeasureWorkspace(src, e_sorted, y_sorted, xs, blocks)


def workspace_from_batches(pairs, batches, source: str, seed: int = 0,
                           source_draws=None) -> MeasureWorkspace:
    """Workspace for a SamplePair batched on its x (cause) axis: one gather of
    the effect values, and no cause values (`xs` None)."""
    return build_workspace(source, batches.positions, pairs.ys[batches.batches],
                           seed=seed, source_draws=source_draws)


def _debiased(ws: MeasureWorkspace, d: np.ndarray, debias: DebiasFn | None,
              out: np.ndarray | None = None) -> np.ndarray:
    """d less the debias shift w * x, row by row, written to `out` when given,
    which may be d itself."""
    if debias is None:
        return d
    if ws.xs is None:
        raise InsufficientDataError("per-row debiasing needs per-batch x values")
    return np.subtract(d, np.multiply(ws.xs, debias.w), out=out)


def _transformed(ws: MeasureWorkspace, y: np.ndarray, debias: DebiasFn | None,
                 pnl: PnlTransform | None):
    """(t, d) elementwise: t = tanh(b * y + c) (None without a transform) and
    the effects d = y + a * t, debiased."""
    if pnl is None:
        return None, _debiased(ws, y, debias)
    t = np.multiply(y, pnl.omega_b)
    t += pnl.omega_c
    np.tanh(t, out=t)
    d = np.multiply(t, pnl.omega_a)
    d += y
    return t, _debiased(ws, d, debias, out=d)


def _sorted_view(ws: MeasureWorkspace, debias: DebiasFn | None, pnl: PnlTransform | None):
    """(d, y, t, x): each batch's transformed, debiased effects d in stable order.

    Beside each value of d are its effect value y and tanh term t (both None
    without a transform) and, with a debias, its cause value x (else None).
    d is computed once, from the workspace's sorted effects and the cause
    values in their order, and stably sorted: where every row of d is
    non-decreasing that sort is the identity and none runs; otherwise one
    stable argsort of d is gathered with one flat index. Equal values of d
    therefore come in the order of the sorted effects.

    The workspace keeps the last view it built, keyed on the identity of the
    debias and transform objects, so readers that share those objects (the
    pnl fit's value and then its gradient at one point) build it once.
    Readers must not write into the view.
    """
    if debias is None and pnl is None:
        return ws.y_sorted, None, None, None
    last = ws._last_view
    if last is not None and last[0] is debias and last[1] is pnl:
        return last[2]
    t, d = _transformed(ws, ws.y_sorted, debias, pnl)
    view = (d, None if pnl is None else ws.y_sorted, t, None if debias is None else ws.xs)
    if not _rows_ascending(d):
        view = _row_gather(np.argsort(d, kind="stable", axis=1), *view)
    object.__setattr__(ws, "_last_view", (debias, pnl, view))
    return view


def _rows_ascending(a: np.ndarray) -> bool:
    """Whether every row of a (g, k) array is non-decreasing (a nan breaks
    the order): one comparison of each value with the next in the flat
    array, the pairs that span two rows counted as in order."""
    flat = a.reshape(-1)
    ok = np.greater_equal(flat[1:], flat[:-1])
    ok[a.shape[1] - 1::a.shape[1]] = True
    return bool(ok.all())


def sorted_effects(ws: MeasureWorkspace, debias: DebiasFn | None = None,
                   pnl: PnlTransform | None = None) -> np.ndarray:
    """The effect values, transformed and debiased, sorted per batch, in a new array.

    With neither a debias nor a transform these are the effects the
    workspace sorted once. Otherwise they are computed from those sorted
    effects and sorted only when that broke a batch's order; equal values
    keep the order of the sorted effects.
    """
    return _sorted_view(ws, debias, pnl)[0].copy()


def _scaled_draws(ws: MeasureWorkspace, theta: float | list[float]) -> np.ndarray:
    """theta * e over the sorted draws, in a fresh array; with several
    blocks theta holds one scale per block."""
    if ws.blocks > 1:
        theta = np.repeat(theta, ws.batches_per_block)[:, None]
    return np.multiply(ws.e_sorted, theta)


def _residuals(ws: MeasureWorkspace, d: np.ndarray, scaled: np.ndarray,
               out: np.ndarray) -> np.ndarray:
    """The batch-centred residuals of d - theta * e, from `scaled`, the
    draws' theta * e, written to `out`, which may be `scaled` itself."""
    r = np.subtract(d, scaled, out=out)
    mean = np.add.reduce(r, axis=1, keepdims=True)
    mean /= ws.k  # what ndarray.mean computes
    r -= mean
    return r


def _row_sums(prod: np.ndarray, blocks: int = 1) -> list[float]:
    """The sum of each of the `blocks` equal row blocks of each (g, k) slab
    of an (m, g, k) array, as m * blocks floats, slab by slab.

    One reduction over m * blocks contiguous rows of g * k / blocks elements,
    each summed in the same pairwise grouping as `ndarray.sum` of that block
    alone.
    """
    return np.add.reduce(prod.reshape(len(prod) * blocks, -1), axis=1).tolist()


def _measure(ws: MeasureWorkspace, energy: float, theta: float) -> float:
    """The raw measure from a block's summed squared residuals: the energy
    over (k - 1), averaged over the block's batches. A non-finite measure
    raises NumericError."""
    value = (0.0 + energy / (ws.k - 1)) / ws.batches_per_block
    if not math.isfinite(value):
        raise NumericError(f"measure is non-finite at theta={theta}")
    return value


def measure_value(ws: MeasureWorkspace, theta: float | list[float],
                  debias: DebiasFn | None = None,
                  pnl: PnlTransform | None = None) -> float | list[float]:
    """The raw measure at the given parameters, a float.

    A workspace of several blocks takes one scale per block in `theta` and
    returns a list of one measure per block.
    """
    d = _sorted_view(ws, debias, pnl)[0]
    scaled = _scaled_draws(ws, theta)
    r = _residuals(ws, d, scaled, out=scaled)
    np.multiply(r, r, out=r)
    energies = _row_sums(r[None], ws.blocks)
    if ws.blocks == 1:
        return _measure(ws, energies[0], theta)
    return [_measure(ws, energy, t) for energy, t in zip(energies, theta)]


def measure_with_grad(ws: MeasureWorkspace, theta: float,
                      debias: DebiasFn | None = None,
                      pnl: PnlTransform | None = None):
    """Raw measure plus analytic gradients under the frozen sort permutations,
    for a workspace of one block.

    Returns (value, grads) where grads maps 'theta', 'w', 'omega_a',
    'omega_b', 'omega_c' to partial derivatives. At sorting ties this is the
    subgradient induced by the stable sort, taken on the same sorted view as
    the value (see `_sorted_view`).

    Row 0 of one (m, g, k) array holds r * r and each further row r times a
    derivative term of the residual r: e for theta and x for w, both negated
    after the sum, then t, (a * y) * sech^2 and a * sech^2 for omega. The
    residuals are written into row 0 (`_residuals`), each product straight
    into its row, and row 0 is squared last. One reduction sums all rows.
    """
    d, y, t, x = _sorted_view(ws, debias, pnl)
    prod = np.empty((2 + (debias is not None) + 3 * (pnl is not None),) + d.shape)
    r = _residuals(ws, d, _scaled_draws(ws, theta), out=prod[0])
    np.multiply(ws.e_sorted, r, out=prod[1])
    if debias is not None:
        np.multiply(x, r, out=prod[2])
    if pnl is not None:
        sech2 = prod[-1]
        np.multiply(t, r, out=prod[-3])
        np.multiply(t, t, out=sech2)
        np.subtract(1.0, sech2, out=sech2)
        np.multiply(y, pnl.omega_a, out=prod[-2])
        prod[-2] *= sech2
        sech2 *= pnl.omega_a
        prod[-2:] *= r
    r *= r
    energy, e_sum, *sums = _row_sums(prod)
    value = _measure(ws, energy, theta)
    scale = 2.0 / (ws.k - 1)
    nb = ws.n_batches

    def grad(total: float) -> float:
        # the mean over batches comes last
        return (0.0 + scale * total) / nb

    grads = {"theta": grad(-e_sum), "w": 0.0, "omega_a": 0.0, "omega_b": 0.0,
             "omega_c": 0.0}
    if debias is not None:
        grads["w"] = grad(-sums.pop(0))
    if pnl is not None:
        grads["omega_a"], grads["omega_b"], grads["omega_c"] = map(grad, sums)
    return value, grads


def variance_divergence(batches, ys_per_batch, model: NoiseModel,
                        source_draws) -> MeasureValue:
    """Raw and variance-normalized measure at a fixed model, for given batches
    (their anchor positions) and unscaled `source_draws`, one vector per batch."""
    ws = build_workspace(model.source, batches.positions, ys_per_batch,
                         source_draws=source_draws)
    return normalized_measure(ws, model.theta, measure_value(ws, model.theta))


def normalized_measure(ws: MeasureWorkspace, theta: float, raw: float) -> MeasureValue:
    """MeasureValue of a raw measure at theta, normalized by the variance of
    the workspace's source scaled by theta: raw / (theta**2 * Var(E_source)),
    the float operations of `model_variance`, with theta taken as given
    (a fitted scale lies in THETA_RANGE)."""
    return MeasureValue(raw=raw, normalized=raw / scaled_variance(ws.source, theta))
