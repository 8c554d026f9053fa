import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divot import (
    DebiasFn,
    MeasureValue,
    PnlTransform,
    NoiseModel,
    NumericError,
    SamplePair,
    bisect_theta,
    build_workspace,
    closed_form_theta,
    draw_source_batches,
    fit_joint,
    fit_theta,
    measure_value,
    measure_with_grad,
    model_variance,
)
from divot import divergence, optimize
from divot.divergence import sorted_effects
from divot.pairdata import make_batches, select_positions


def random_inputs(seed, n_batches=5, k=8, source="uniform"):
    """The anchors, effect values, cause values and source draws of a random workspace."""
    rng = np.random.default_rng(seed)
    sizes = [k] * n_batches
    draws = draw_source_batches(source, sizes, seed)
    ys = [rng.normal(loc=rng.uniform(-1, 1), scale=rng.uniform(0.5, 2), size=k)
          for _ in range(n_batches)]
    xs = [rng.normal(size=k) for _ in range(n_batches)]
    return np.arange(float(n_batches)), ys, xs, draws


def random_workspace(seed, n_batches=5, k=8, source="uniform"):
    anchors, ys, xs, draws = random_inputs(seed, n_batches, k, source)
    return build_workspace(source, anchors, ys, xs, source_draws=draws)


def test_closed_form_recovers_scale_exactly():
    draws = draw_source_batches("uniform", [10], seed=0)
    y = 2.0 * np.sort(draws[0])
    ws = build_workspace("uniform", [0.0], [y], source_draws=draws)
    assert closed_form_theta(ws) == 2.0


def test_closed_form_with_offset():
    draws = draw_source_batches("uniform", [10], seed=0)
    y = 2.0 * np.sort(draws[0]) + 5.0
    ws = build_workspace("uniform", [0.0], [y], source_draws=draws)
    assert closed_form_theta(ws) == pytest.approx(2.0, abs=1e-12)


def closed_form_theta_oracle(ws, debias, pnl):
    """The scale fit as one formula."""
    lo, hi = optimize.THETA_RANGE
    ds = sorted_effects(ws, debias, pnl)
    dt = ds - ds.mean(axis=1, keepdims=True)
    et = ws.e_sorted - ws.e_sorted.mean(axis=1, keepdims=True)
    num = 0.0 + float((dt * et).sum()) / (ws.k - 1)
    den = 0.0 + float((et * et).sum()) / (ws.k - 1)
    if den <= 0.0:
        return lo
    return float(min(max(num / den, lo), hi))


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n_batches=st.integers(1, 60),
    k=st.integers(2, 40),
    debias=st.sampled_from([None, DebiasFn(-0.7)]),
    pnl=st.sampled_from([None, PnlTransform(0.5, -0.2, 0.3), PnlTransform(-3.0, 2.0, 0.1)]),
)
def test_closed_form_matches_its_formula_bit_for_bit(seed, n_batches, k, debias, pnl):
    ws = random_workspace(seed, n_batches, k)
    want = closed_form_theta_oracle(ws, debias, pnl)
    got = closed_form_theta(ws, debias, pnl)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_closed_form_agrees_with_bisection():
    for seed in range(20):
        ws = random_workspace(seed)
        a = closed_form_theta(ws)
        b = bisect_theta(ws)
        assert abs(a - b) < 1e-4


def test_objective_is_unimodal_in_theta():
    lo, hi = 1e-8, 100.0
    for seed in range(10):
        ws = random_workspace(100 + seed)
        grid = np.linspace(lo, hi, 100)
        vals = np.array([measure_value(ws, t) for t in grid])
        interior_max = (vals[1:-1] > vals[:-2]) & (vals[1:-1] > vals[2:])
        assert not interior_max.any()


def test_fit_invariant_to_batch_order():
    anchors, ys, xs, draws = random_inputs(5)
    perm = [3, 1, 4, 0, 2]
    ws_perm = build_workspace("uniform", anchors[perm], [ys[i] for i in perm],
                              [xs[i] for i in perm], source_draws=draws[perm])
    assert fit_theta(random_workspace(5)) == pytest.approx(fit_theta(ws_perm), abs=1e-14)


def test_fit_is_deterministic():
    a = fit_theta(random_workspace(9))
    b = fit_theta(random_workspace(9))
    assert a == b


def test_clamping_to_range():
    # sorted coupling makes the numerator non-negative, so only the
    # degenerate-zero and upper clamps are reachable
    draws = draw_source_batches("uniform", [10], seed=1)
    flat = np.full(10, 2.0)  # constant target: optimum at zero, clamped up
    ws = build_workspace("uniform", [0.0], [flat], source_draws=draws)
    assert fit_theta(ws) == pytest.approx(1e-8)
    wide = 1000.0 * np.sort(draws[0])
    ws2 = build_workspace("uniform", [0.0], [wide], source_draws=draws)
    assert fit_theta(ws2) == pytest.approx(100.0)


def test_joint_without_parameters_reduces_to_fit_theta():
    ws = random_workspace(3)
    res = fit_joint(ws)
    assert res.theta == fit_theta(ws)
    assert res.omega is None
    assert res.measure.raw == measure_value(ws, res.theta)


def test_joint_pnl_on_additive_data_not_worse():
    # additive data without any post-nonlinearity: the extra transform
    # freedom can only keep or lower the fitted objective (it also absorbs
    # some batch-width bias, so it may land well below the plain fit)
    rng = np.random.default_rng(21)
    x = rng.uniform(-1, 1, 400)
    y = x + rng.random(400)
    pairs = SamplePair((x - x.mean()) / x.std(ddof=1), (y - y.mean()) / y.std(ddof=1))
    batches = make_batches(pairs, select_positions(pairs), 0.05)
    ws = build_workspace("uniform", batches.positions,
                         [pairs.ys[i] for i in batches.batches],
                         [pairs.xs[i] for i in batches.batches], seed=0)
    plain = fit_joint(ws)
    pnl = fit_joint(ws, omega0=(0.1, 0.1, 0.0), max_iters=400)
    assert pnl.measure.raw <= plain.measure.raw * 1.05
    assert PnlTransform(*pnl.omega).invertible


def test_joint_determinism():
    a = fit_joint(random_workspace(6), omega0=(0.1, 0.1, 0.0))
    b = fit_joint(random_workspace(6), omega0=(0.1, 0.1, 0.0))
    assert a.theta == b.theta and a.omega == b.omega


def test_joint_fit_builds_one_sorted_view_per_step(monkeypatch):
    # the scale refit every 10 steps reads the view its step's gradient reads
    ws = random_workspace(4, 6, 10)
    built, evals = [], []  # `_transformed` runs once for each view built
    build, evaluate = divergence._transformed, optimize.measure_with_grad
    monkeypatch.setattr(divergence, "_transformed", lambda *a: built.append(1) or build(*a))
    monkeypatch.setattr(optimize, "measure_with_grad",
                        lambda *a: evals.append(1) or evaluate(*a))
    monkeypatch.setattr(optimize, "TOLERANCE", 0.0)  # no early stop: 35 steps
    res = fit_joint(ws, (0.1, 0.1, 0.0), 35)
    assert res.iterations == 35
    assert len(evals) == len(built) == 36


def two_evaluation_fit_oracle(ws, omega0, max_iters):
    """The joint fit as it was before one evaluation per step.

    Each step took a gradient at the current point, discarding its value,
    then evaluated the value at the stepped point; the scale fit was
    followed by a check evaluation, and the result re-evaluated the best
    point. Cyclic steps (period 50) from a base step of 1.0, theta refitted
    every 10 steps.
    """
    omega = tuple(float(v) for v in omega0)
    base_step = 1.0

    def theta_fit(pnl):
        theta = closed_form_theta(ws, None, pnl)
        measure_value(ws, theta, None, pnl)
        return theta

    def learning_rate(t):
        c = (t % 50) / 50
        tri = 1.0 - abs(2.0 * c - 1.0)
        return base_step * (0.1 + 0.9 * tri)

    pnl = PnlTransform(*omega)
    theta = theta_fit(pnl)
    obj = measure_value(ws, theta, None, pnl)
    best = (obj, theta, omega)
    prev = obj
    converged = False
    iterations = 0
    for t in range(1, max_iters + 1):
        iterations = t
        lr = learning_rate(t)
        _, grads = measure_with_grad(ws, theta, None, pnl)
        omega = (
            omega[0] - lr * grads["omega_a"],
            omega[1] - lr * grads["omega_b"],
            omega[2] - lr * grads["omega_c"],
        )
        pnl = PnlTransform(*omega)
        try:
            if t % 10 == 0:
                theta = theta_fit(pnl)
            obj = measure_value(ws, theta, None, pnl)
        except NumericError as exc:
            raise NumericError(f"objective diverged at iteration {t}: {exc}") from None
        if obj < best[0]:
            best = (obj, theta, omega)
        if abs(prev - obj) < optimize.TOLERANCE:
            converged = True
            break
        prev = obj

    obj, theta, omega = best
    raw = measure_value(ws, theta, None, PnlTransform(*omega))
    mv = MeasureValue(raw, raw / model_variance(NoiseModel(ws.source, theta)))
    return theta, omega, mv, iterations, converged


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n_batches=st.integers(1, 6),
    k=st.integers(2, 12),
    omega0=st.sampled_from([(0.1, 0.1, 0.0), (0.5, -0.2, 0.3)]),
    max_iters=st.integers(1, 120),
    tolerance=st.sampled_from([optimize.TOLERANCE, 1e-3]),  # 1e-3 converges early
)
def test_joint_fit_matches_two_evaluation_oracle(seed, n_batches, k, omega0, max_iters,
                                                 tolerance):
    ws = random_workspace(seed, n_batches, k)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimize, "TOLERANCE", tolerance)
        try:
            want = two_evaluation_fit_oracle(ws, omega0, max_iters)
        except NumericError as exc:
            with pytest.raises(NumericError, match=f"^{re.escape(str(exc))}$"):
                fit_joint(ws, omega0, max_iters)
            return
        res = fit_joint(ws, omega0, max_iters)
    got = (res.theta, res.omega, res.measure, res.iterations, res.converged)
    assert got == want


def test_scale_recovery_on_generated_data():
    # y = x + theta0 * u on the raw scale; fitted scale within 10% of truth
    rng = np.random.default_rng(30)
    theta0 = 1.0
    x = rng.uniform(-1, 1, 2000)
    y = x + theta0 * rng.random(2000)
    pairs = SamplePair(x, y)
    batches = make_batches(pairs, select_positions(pairs), 0.05)
    ws = build_workspace("uniform", batches.positions,
                         [pairs.ys[i] for i in batches.batches],
                         [pairs.xs[i] for i in batches.batches], seed=1)
    assert fit_theta(ws) == pytest.approx(theta0, rel=0.10)


def test_non_finite_objective_raises():
    draws = draw_source_batches("uniform", [4], seed=2)
    ws = build_workspace("uniform", [0.0], [np.array([1.0, 2.0, 3.0, np.inf])],
                         source_draws=draws)
    with np.errstate(invalid="ignore"), pytest.raises(NumericError):
        measure_value(ws, 1.0)
