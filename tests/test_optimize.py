import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divot import (
    DebiasFn,
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
    model_variance,
)
from divot import divergence, optimize, synth
from divot.divergence import sorted_effects
from divot.pairdata import make_batches, preprocess, select_positions


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
    # freedom can only keep or lower the verdict's normalized loss (it also
    # absorbs some batch-width bias, so it may land well below the plain fit)
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
    assert pnl.measure.normalized <= plain.measure.normalized * 1.05
    assert PnlTransform(*pnl.omega).invertible


def test_joint_determinism():
    a = fit_joint(random_workspace(6), omega0=(0.1, 0.1, 0.0))
    b = fit_joint(random_workspace(6), omega0=(0.1, 0.1, 0.0))
    assert a.theta == b.theta and a.omega == b.omega


def pnl_loss_oracle(ws, z):
    """The pnl fit's loss at a point of its box, 1 - rho^2 of the centred
    sorted effects and draws, as one formula."""
    b = np.exp(z[1])
    ds = sorted_effects(ws, None, PnlTransform(np.expm1(z[0]) / b, b, z[2]))
    dt = ds - ds.mean(axis=1, keepdims=True)
    et = ws.e_sorted - ws.e_sorted.mean(axis=1, keepdims=True)
    return 1.0 - float((dt * et).sum()) ** 2 / (float((dt * dt).sum()) * float((et * et).sum()))


box_points = st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0), st.floats(-10.0, 10.0))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10_000), n_batches=st.integers(1, 20), k=st.integers(3, 20),
       z=box_points)
def test_pnl_loss_matches_its_oracle(seed, n_batches, k, z):
    # the value from the two sums; the gradient from measure_with_grad at
    # theta_G (the envelope theorem) against central differences
    ws = random_workspace(seed, n_batches, k)
    value, grad = optimize._pnl_loss(ws, optimize._centred_draws(ws))(np.array(z))
    if value == math.inf:  # the closed-form scale leaves THETA_RANGE
        assert grad is None
        assert closed_form_theta(ws, None, optimize._transform(z)) in optimize.THETA_RANGE
        return
    assert value == pytest.approx(pnl_loss_oracle(ws, z), rel=1e-9, abs=1e-12)
    # the effects' common offset a * tanh(c) grows as a = (e^alpha - 1) / b,
    # and centring it away costs both sides digits: the step grows with
    # e^alpha, the tolerance with a^2
    h = 1e-6 * math.exp(max(z[0], 0.0))
    a = math.expm1(z[0]) / math.exp(z[1])
    numeric = [(pnl_loss_oracle(ws, np.add(z, step)) - pnl_loss_oracle(ws, np.subtract(z, step)))
               / (2 * h) for step in h * np.eye(3)]
    assert grad() == pytest.approx(numeric, rel=1e-4, abs=1e-7 + 1e-14 * a * a)


def test_pnl_fit_builds_one_sorted_view_per_evaluation(monkeypatch):
    # a point's value builds its view, and its gradient reads that view
    ws = random_workspace(4, 6, 10)
    built, points, grads = [], [], []
    build, evaluate = divergence._transformed, optimize.measure_with_grad
    monkeypatch.setattr(divergence, "_transformed", lambda *a: built.append(1) or build(*a))
    monkeypatch.setattr(optimize, "measure_with_grad",
                        lambda *a: grads.append(1) or evaluate(*a))
    loss = optimize._pnl_loss(ws, optimize._centred_draws(ws))
    z0 = optimize._box_point((0.1, 0.1, 0.0))
    *_, iterations, converged = optimize.minimize_box(lambda z: points.append(1) or loss(z), z0,
                                                      *optimize.OMEGA_BOX, 100)
    assert converged and iterations > 0
    assert len(built) == len(points)
    assert iterations < len(grads) <= len(points)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), n_batches=st.integers(1, 12), k=st.integers(3, 15),
       omega0=st.sampled_from([(0.1, 0.1, 0.0), (0.5, -0.2, 0.3), (-3.0, 2.0, 0.1), (2.0, 0.0, 1.0)]),
       max_iters=st.integers(1, 60))
def test_pnl_fit_is_invertible_and_no_worse_than_its_starts(seed, n_batches, k, omega0,
                                                             max_iters):
    # omega0 (0.5, -0.2, 0.3) is (-0.5, 0.2, -0.3) with b > 0; (-3, 2, 0.1)
    # and (2, 0, 1) have no point in the box and start on its lower edge
    ws = random_workspace(seed, n_batches, k)
    res = fit_joint(ws, omega0, max_iters)
    assert PnlTransform(*res.omega).invertible
    assert res.iterations <= max_iters
    loss = optimize._pnl_loss(ws, optimize._centred_draws(ws))
    start = optimize._box_point(omega0)
    edge = np.array([optimize.OMEGA_BOX[0][0], start[1], start[2]])
    fitted = loss(optimize._box_point(res.omega))[0]
    assert fitted <= min(loss(start)[0], loss(edge)[0]) + 1e-12
    lo, hi = optimize.THETA_RANGE
    if lo < closed_form_theta(ws, None, optimize._transform(start)) < hi:
        assert lo < res.theta < hi  # the fit never steps to where the scale clamps
    if PnlTransform(*omega0).invertible:
        # the verdict's loss at omega0, the scale in closed form
        pnl = PnlTransform(*omega0)
        theta = closed_form_theta(ws, None, pnl)
        before = measure_value(ws, theta, None, pnl) / model_variance(NoiseModel(ws.source, theta))
        assert res.measure.normalized <= before * (1 + 1e-9)


def test_pnl_fit_keeps_the_lower_of_its_two_descents():
    # y = cuberoot(x + e): the descent from omega0 ends in a higher minimum
    # than the one from the lower edge of alpha, which the fit keeps
    spec = synth.GeneratorSpec(mechanism="linear", post="cuberoot", n=300, seed=100500)
    pairs = synth.generate(spec)
    pairs = preprocess(SamplePair(pairs.xs, pairs.ys), seed=0)
    batches = make_batches(pairs, select_positions(pairs), 0.05)
    ws = build_workspace("uniform", batches.positions,
                         [pairs.ys[i] for i in batches.batches],
                         [pairs.xs[i] for i in batches.batches], seed=0)
    loss = optimize._pnl_loss(ws, optimize._centred_draws(ws))
    start = optimize._box_point((0.1, 0.1, 0.0))
    edge = np.array([optimize.OMEGA_BOX[0][0], start[1], start[2]])
    from_start, from_edge = (optimize.minimize_box(loss, x0, *optimize.OMEGA_BOX, 500)
                             for x0 in (start, edge))
    assert from_edge[1] < 0.9 * from_start[1]
    res = fit_joint(ws, (0.1, 0.1, 0.0), 500)
    assert optimize._box_point(res.omega) == pytest.approx(from_edge[0], rel=1e-9, abs=1e-12)
    assert (res.iterations, res.converged) == from_edge[2:]


def test_box_point_round_trips_an_invertible_transform():
    for omega in [(0.1, 0.1, 0.0), (-0.5, 0.2, -0.3), (3.0, 1.5, -2.0)]:
        back = optimize._transform(optimize._box_point(omega))
        assert (back.omega_a, back.omega_b, back.omega_c) == pytest.approx(omega, rel=1e-12)
    # a negative b names the same transform with every sign flipped
    assert optimize._box_point((0.5, -0.2, 0.3)) == pytest.approx(
        optimize._box_point((-0.5, 0.2, -0.3)), rel=1e-15)


def test_minimize_box_on_a_quadratic_with_one_active_bound():
    # f = (x - c)' A (x - c) / 2 over [-1, 1]^3 with c_0 = 2 outside the box:
    # at the minimum x_0 sits on its upper bound and the free coordinates
    # solve their own block, x_F = c_F - A_FF^-1 A_F0 (1 - c_0)
    a = np.array([[3.0, 1.0, 0.5], [1.0, 2.0, 0.3], [0.5, 0.3, 1.5]])
    c = np.array([2.0, -0.5, 0.3])
    lo, hi = -np.ones(3), np.ones(3)

    def loss(x):
        r = x - c
        return 0.5 * r @ a @ r, lambda: a @ r

    want = np.empty(3)
    want[0] = 1.0
    want[1:] = c[1:] - np.linalg.solve(a[1:, 1:], a[1:, 0] * (1.0 - c[0]))
    assert np.all(np.abs(want[1:]) < 1.0)
    x, value, iterations, converged = optimize.minimize_box(loss, np.zeros(3), lo, hi, 100)
    assert converged and 0 < iterations < 100
    assert x[0] == 1.0
    assert x == pytest.approx(want, abs=1e-6)
    assert value == pytest.approx(loss(want)[0], rel=1e-9)


def test_pnl_fit_on_constant_batches_takes_no_step():
    # every batch of effects constant: no transform aligns them with the
    # draws, the loss is flat at 1 and the scale clamps to its floor
    draws = draw_source_batches("uniform", [10, 10], seed=1)
    ws = build_workspace("uniform", [0.0, 1.0], [np.full(10, 2.0), np.full(10, -1.3)],
                         source_draws=draws)
    res = fit_joint(ws, (0.1, 0.1, 0.0))
    assert res.converged and res.iterations == 0
    assert res.omega == pytest.approx((0.1, 0.1, 0.0), rel=1e-12)
    assert res.theta == optimize.THETA_RANGE[0]


def test_pnl_fit_stops_unconverged_at_max_iters():
    ws = random_workspace(4, 6, 10)
    res = fit_joint(ws, (0.1, 0.1, 0.0), 1)
    assert res.iterations == 1 and not res.converged


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
    # the pnl fit names the iteration whose evaluation failed: 0, its start
    with np.errstate(invalid="ignore"), pytest.raises(
            NumericError, match=r"^objective diverged at iteration 0: loss is non-finite"):
        fit_joint(ws, (0.1, 0.1, 0.0))
