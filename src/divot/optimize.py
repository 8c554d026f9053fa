"""Fitting the noise scale (convex in theta) and, jointly, the PNL transform.

With the sort order frozen, the objective is an exact quadratic in theta, so
the scale has a closed-form minimizer; `bisect_theta`, a bisection on the
analytic gradient, is kept as a cross-check. The PNL parameters are fitted by
gradient descent with one value-and-gradient evaluation per step and the
scale refitted in closed form every THETA_REFRESH_PERIOD (10) steps, from the
centred draws the fit computes once and the sorted view that step's
evaluation then reads. The step size follows a triangular cycle of
CYCLIC_PERIOD (50) steps between 0.1 and 1, its values computed once
(`_RATES`).
"""
from __future__ import annotations

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
TOLERANCE = 1e-8  # the joint fit converges when a step changes the objective by less
THETA_REFRESH_PERIOD = 10
CYCLIC_PERIOD = 50


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


def _learning_rate(t: int) -> float:
    # triangular wave between 0.1 and 1
    c = (t % CYCLIC_PERIOD) / CYCLIC_PERIOD
    tri = 1.0 - abs(2.0 * c - 1.0)
    return 0.1 + 0.9 * tri


# the step size of step t is _RATES[t % CYCLIC_PERIOD]
_RATES = tuple(_learning_rate(t) for t in range(CYCLIC_PERIOD))


def fit_joint(ws: MeasureWorkspace,
              omega0: tuple[float, float, float] | None = None,
              max_iters: int = 500) -> FitResult:
    """At most max_iters gradient steps on omega, theta refitted every
    THETA_REFRESH_PERIOD steps.

    With omega0 None only the scale is fitted, exactly as fit_theta does.
    Each step evaluates the objective and its gradient once, at the point the
    previous step reached; the value tracks the best point and tests
    convergence (a change below TOLERANCE), the gradient takes the next step.
    Returns the parameters achieving the best observed objective.
    """
    if omega0 is None:
        theta = fit_theta(ws)
        return FitResult(theta, None,
                         normalized_measure(ws, theta, measure_value(ws, theta)), 0, True)

    omega = tuple(float(v) for v in omega0)
    draws = _centred_draws(ws)
    pnl = PnlTransform(*omega)
    theta = _closed_form(ws, None, pnl, draws)
    obj, grads = measure_with_grad(ws, theta, None, pnl)
    best = (obj, theta, omega)
    prev = obj
    converged = False
    iterations = 0
    for t in range(1, max_iters + 1):
        iterations = t
        lr = _RATES[t % CYCLIC_PERIOD]
        omega = (
            omega[0] - lr * grads["omega_a"],
            omega[1] - lr * grads["omega_b"],
            omega[2] - lr * grads["omega_c"],
        )
        pnl = PnlTransform(*omega)
        try:
            if t % THETA_REFRESH_PERIOD == 0:
                theta = _closed_form(ws, None, pnl, draws)
            obj, grads = measure_with_grad(ws, theta, None, pnl)
        except NumericError as exc:
            raise NumericError(f"objective diverged at iteration {t}: {exc}") from None
        if obj < best[0]:
            best = (obj, theta, omega)
        if abs(prev - obj) < TOLERANCE:
            converged = True
            break
        prev = obj

    obj, theta, omega = best
    return FitResult(theta, omega, normalized_measure(ws, theta, obj), iterations, converged)
