"""Fitting the noise scale (convex in theta) and, jointly, the PNL transform.

With the sort order frozen, the objective is an exact quadratic in theta, so
the scale has a closed-form minimizer; `bisect_theta`, a bisection on the
analytic gradient, is kept as a cross-check. The PNL transform is fitted on
the scale-free loss 1 - rho^2 (`_pnl_loss`), which falls as the verdict's
normalized loss c * (1 / rho^2 - 1) does, under a parametrisation that keeps
it invertible (a * b > -1, `_transform`). Its three parameters are bounded
(OMEGA_BOX) and fitted by projected BFGS (`minimize_box`) from two starts,
keeping the lower minimum; each point costs one sorted view, and its
gradient one `measure_with_grad` on that view. The scale is then set in
closed form, as without a transform.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .divergence import (
    DebiasFn,
    MeasureValue,
    MeasureWorkspace,
    PnlTransform,
    measure_value,
    measure_with_grad,
    normalized_measure,
    _row_sums,
    _sorted_view,
)
from .errors import NumericError

THETA_RANGE = (1e-8, 100.0)  # every fitted scale is clamped to it
# the box of the fitted (alpha, beta, c): b = e^beta, a = (e^alpha - 1) / b
OMEGA_BOX = (np.array([-5.0, -5.0, -10.0]), np.array([5.0, 5.0, 10.0]))
TOLERANCE = 1e-8  # relative to the loss: see `minimize_box`
ARMIJO = 1e-4  # the share of the predicted fall a step must reach
MIN_STEP = 1e-10  # the shortest step a line search tries


@dataclass(frozen=True)
class FitResult:
    theta: float
    omega: tuple[float, float, float] | None
    measure: MeasureValue
    iterations: int
    converged: bool


def closed_form_theta(ws: MeasureWorkspace,
                      debias: DebiasFn | None = None,
                      pnl: PnlTransform | None = None) -> float | list[float]:
    """Exact minimizer of the quadratic-in-theta objective, clamped to THETA_RANGE.

    With the sort order frozen the objective is
    sum_b ||d_b - theta * e_b||^2 / (k - 1) over batch-centered sorted
    vectors, so theta* = sum_b <d_b, e_b> / sum_b ||e_b||^2. A workspace of
    several blocks gets a list of one scale per block, each summed over its
    own batches.
    """
    return _closed_form(ws, debias, pnl, _centred_draws(ws))


def _centred_draws(ws: MeasureWorkspace) -> tuple[np.ndarray, list[float]]:
    """The sorted draws centred per batch, and their summed squares per
    block: the part of the scale fit that no parameter changes."""
    et = _row_centred(ws.e_sorted)
    return et, _row_sums((et * et)[None], ws.blocks)


def _row_centred(a: np.ndarray) -> np.ndarray:
    """a less its row means, in a new array; each mean is computed as
    ndarray.mean computes it."""
    mean = np.add.reduce(a, axis=1, keepdims=True)
    mean /= a.shape[1]
    return np.subtract(a, mean)


def _closed_form(ws: MeasureWorkspace, debias: DebiasFn | None, pnl: PnlTransform | None,
                 draws: tuple[np.ndarray, list[float]]) -> float | list[float]:
    """`closed_form_theta` given the workspace's `_centred_draws`."""
    et, energies = draws
    dt = _row_centred(_sorted_view(ws, debias, pnl)[0])
    dt *= et
    thetas = [_clamped_ratio(num, energy, ws.k)
              for num, energy in zip(_row_sums(dt[None], ws.blocks), energies)]
    return thetas[0] if ws.blocks == 1 else thetas


def _clamped_ratio(num: float, energy: float, k: int) -> float:
    """One block's scale: its summed products over its draws' energy, each
    over (k - 1), clamped to THETA_RANGE."""
    lo, hi = THETA_RANGE
    num = 0.0 + num / (k - 1)
    den = 0.0 + energy / (k - 1)
    if den <= 0.0:
        return lo
    return float(min(max(num / den, lo), hi))


def bisect_theta(ws: MeasureWorkspace) -> float:
    """Root of the analytic theta-gradient by bisection over THETA_RANGE, to 1e-10."""
    lo, hi = THETA_RANGE

    def grad(theta: float) -> float:
        return measure_with_grad(ws, theta)[1]["theta"]

    if grad(lo) >= 0.0:
        return float(lo)
    if grad(hi) <= 0.0:
        return float(hi)
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if grad(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return float(0.5 * (lo + hi))


# the best noise scale for fixed debias/PNL parameters and draws: a float, or
# one per block for a workspace of several blocks
fit_theta = closed_form_theta


def _transform(z) -> PnlTransform:
    """The transform at a point (alpha, beta, c) of the fitted box:
    b = e^beta and a = (e^alpha - 1) / b, so a * b = e^alpha - 1 > -1."""
    b = math.exp(z[1])
    return PnlTransform(math.expm1(z[0]) / b, b, float(z[2]))


def _box_point(omega: tuple[float, float, float]) -> np.ndarray:
    """The (alpha, beta, c) of a transform, clipped to OMEGA_BOX.

    A negative b names the same transform as (-a, -b, -c), so its signs are
    flipped; a b of 0 or an a * b <= -1 has no such point and starts at the
    box's lower edge.
    """
    a, b, c = (float(v) for v in omega)
    if b < 0.0:
        a, b, c = -a, -b, -c
    alpha = math.log1p(a * b) if a * b > -1.0 else -math.inf
    beta = math.log(b) if b > 0.0 else -math.inf
    return np.clip([alpha, beta, c], *OMEGA_BOX)


def _pnl_loss(ws: MeasureWorkspace, draws: tuple[np.ndarray, list[float]]):
    """The scale-free pnl loss 1 - rho^2 over the box, as `minimize_box` reads it.

    rho^2 = S_de^2 / (S_dd * S_ee) from the sums, over the batches, of the
    centred sorted transformed effects d and draws e: the verdict's loss,
    c * (1 / rho^2 - 1), falls as this does. It equals G / (S_ee / ((k - 1) g))
    for G = min over theta of raw(theta) / theta^2, reached at
    theta_G = S_dd / S_de, so by the envelope theorem its omega gradient is
    `measure_with_grad`'s at theta_G divided by theta_G^2 and by that constant.
    A point's value costs one sorted view and one two-row `_row_sums`; its
    gradient, asked for only at an accepted point, one `measure_with_grad`
    on that same view.

    A point whose closed-form scale S_de / S_ee lies outside THETA_RANGE
    has an infinite loss: there the scale would be clamped, and the
    verdict's loss would no longer be c * (1 / rho^2 - 1).
    """
    et, (s_ee,) = draws
    prod = np.empty((2,) + et.shape)
    unit = (0.0 + s_ee / (ws.k - 1)) / ws.n_batches

    def loss(z):
        pnl = _transform(z)
        dt = _row_centred(_sorted_view(ws, None, pnl)[0])
        np.multiply(dt, et, out=prod[1])
        np.multiply(dt, dt, out=prod[0])
        s_dd, s_de = _row_sums(prod)
        if not (math.isfinite(s_dd) and math.isfinite(s_de)):
            raise NumericError(f"loss is non-finite at omega="
                               f"({pnl.omega_a}, {pnl.omega_b}, {pnl.omega_c})")
        if not s_de > 0.0:  # every batch of effects constant: a flat loss
            return 1.0, lambda: np.zeros(3)
        if not THETA_RANGE[0] <= s_de / s_ee <= THETA_RANGE[1]:
            return math.inf, None

        def grad():
            theta = s_dd / s_de
            _, grads = measure_with_grad(ws, theta, None, pnl)
            a, b, scale = pnl.omega_a, pnl.omega_b, theta * theta * unit
            ga, gb, gc = (grads[name] / scale for name in ("omega_a", "omega_b", "omega_c"))
            # a = (e^alpha - 1) / b and b = e^beta
            return np.array([ga * math.exp(z[0]) / b, b * gb - a * ga, gc])

        return 1.0 - s_de * (s_de / (s_dd * s_ee)), grad

    return loss


def minimize_box(loss, x0, lo, hi, max_iters: int):
    """Projected BFGS: a minimum of a non-negative `loss` over the box
    lo <= x <= hi.

    `loss(x)` returns the value at x and a function giving the gradient
    there, which is asked for only at a point a line search accepts; an
    infinite value marks a point outside the region the loss accepts, which
    no search accepts and where a start ends the fit at once. A variable
    is held when it sits on a bound its gradient pushes against;
    the others are free. Each iteration backtracks (`_line_search`) along
    the quasi-Newton step -H g on the free variables, or, with no estimate
    H yet or when that search fails, along steepest descent scaled so that
    its largest component is 1. H is the inverse-Hessian estimate of the
    free variables: it starts, after the first step, as the scaled identity
    (s.y / y.y), takes a BFGS update wherever s.y > 0, and starts again
    from the last such scale when the free set changes.

    Stops, converged, once the largest projected gradient or a step's fall
    of the loss is at most TOLERANCE times the loss; stops unconverged after
    max_iters steps or when even a steepest-descent search finds no fall.
    Returns (x, value, iterations, converged). A NumericError from `loss`
    is raised again naming the iteration (0 for x0).
    """
    # the products of vectors here are elementwise sums, not `@`: a first
    # `@` starts the BLAS library, which then holds about 0.4 MB of RSS
    x = _project(np.asarray(x0, float), lo, hi)
    it = 0
    try:
        f, grad = loss(x)
        if f == math.inf:
            return x, f, 0, False
        g = grad()
        h = last_free = None
        for it in range(1, max_iters + 1):
            if np.abs(x - _project(x - g, lo, hi)).max() <= TOLERANCE * f:
                return x, f, it - 1, True
            free = ~(((x <= lo) & (g > 0.0)) | ((x >= hi) & (g < 0.0)))
            if h is not None and (free != last_free).any():
                h = np.diag(np.where(free, scale, 0.0))
            last_free = free
            g_free = np.where(free, g, 0.0)
            step = None if h is None else _line_search(loss, x, f, g, -(h * g_free).sum(axis=1),
                                                       lo, hi)
            if step is None:
                h = None
                step = _line_search(loss, x, f, g, g_free / -np.abs(g_free).max(), lo, hi)
            if step is None:
                return x, f, it - 1, False
            x_new, f_new, g_new = step
            s, y = x_new - x, np.where(free, g_new - g, 0.0)
            sy = (s * y).sum()
            if sy > 0.0:
                scale = sy / (y * y).sum()
                if h is None:
                    h = np.diag(np.where(free, scale, 0.0))
                # (I - s y'/sy) H (I - y s'/sy) + s s'/sy, H symmetric
                hy = (h * y).sum(axis=1)
                h = h + ((1.0 + (y * hy).sum() / sy) * np.outer(s, s)
                         - np.outer(hy, s) - np.outer(s, hy)) / sy
            fell = f - f_new
            x, f, g = x_new, f_new, g_new
            if fell <= TOLERANCE * f:
                return x, f, it, True
    except NumericError as exc:
        raise NumericError(f"objective diverged at iteration {it}: {exc}") from None
    return x, f, max_iters, False


def _project(x: np.ndarray, lo, hi) -> np.ndarray:
    return np.minimum(np.maximum(x, lo), hi)


def _line_search(loss, x, f, g, d, lo, hi):
    """(x_new, value, gradient) of the first of the steps d, d/2, d/4, ...,
    each projected into the box, that lowers the loss by at least ARMIJO
    times the fall the gradient predicts; None if none does before the step
    falls below MIN_STEP."""
    t = 1.0
    while t >= MIN_STEP:
        x_new = _project(x + t * d, lo, hi)
        predicted = (g * (x_new - x)).sum()
        if predicted < 0.0:
            f_new, grad = loss(x_new)
            if f_new <= f + ARMIJO * predicted:
                return x_new, f_new, grad()
        t *= 0.5
    return None


def fit_joint(ws: MeasureWorkspace,
              omega0: tuple[float, float, float] | None = None,
              max_iters: int = 500) -> FitResult:
    """The noise scale, and with omega0 the invertible PNL transform with it.

    With omega0 None only the scale is fitted, exactly as fit_theta does.
    Otherwise the transform minimizes the scale-free loss 1 - rho^2
    (`_pnl_loss`) over (alpha, beta, c) in OMEGA_BOX by `minimize_box`, in
    at most max_iters steps from each of two starts: omega0's point of the
    box (`_box_point`), and that point moved to the lower edge of alpha,
    where a * b = e^-5 - 1 and the transform is flat about its centre, like
    a cube. On post-nonlinear data the loss can have a separate minimum
    near each; the lower is kept (the first on a tie), with its iterations
    and convergence. The scale is then set in closed form at the fitted
    transform.
    """
    if omega0 is None:
        theta = fit_theta(ws)
        return FitResult(theta, None,
                         normalized_measure(ws, theta, measure_value(ws, theta)), 0, True)

    draws = _centred_draws(ws)
    loss = _pnl_loss(ws, draws)
    start = _box_point(omega0)
    edge = start.copy()
    edge[0] = OMEGA_BOX[0][0]
    z, _, iterations, converged = min(
        (minimize_box(loss, x0, *OMEGA_BOX, max_iters) for x0 in (start, edge)),
        key=lambda fit: fit[1])
    pnl = _transform(z)
    theta = _closed_form(ws, None, pnl, draws)
    return FitResult(theta, (pnl.omega_a, pnl.omega_b, pnl.omega_c),
                     normalized_measure(ws, theta, measure_value(ws, theta, None, pnl)),
                     iterations, converged)
