import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divot import (
    DebiasFn,
    InsufficientDataError,
    NoiseModel,
    PnlTransform,
    build_workspace,
    draw_source_batches,
    measure_value,
    measure_with_grad,
    model_variance,
    ShapeError,
    variance_divergence,
    workspace_from_batches,
)
from divot import divergence
from divot.divergence import sorted_effects
from divot.pairdata import BatchSet, SamplePair


def one_batch(ys, draws, positions=(0.0,)):
    b = BatchSet(positions=np.array(positions), batches=[np.arange(len(ys))])
    return b, [np.asarray(ys, dtype=float)], [np.asarray(draws, dtype=float)]


# ------------------------------------------------------------- PNL transform


def pnl_effects(ys, pnl):
    """One batch of effects through the transform, sorted, as the measure reads them."""
    return sorted_effects(build_workspace("uniform", [0.0], [np.asarray(ys, dtype=float)]),
                          pnl=pnl)[0]


def test_pnl_zero_amplitude_is_identity():
    y = np.linspace(-2, 2, 9)
    assert np.array_equal(pnl_effects(y, PnlTransform(0.0, 3.0, 1.0)), y)


def test_pnl_odd_fixed_point():
    assert pnl_effects([0.0, 1.0], PnlTransform(1.0, 1.0, 0.0))[0] == 0.0


def test_pnl_hand_value():
    got = pnl_effects([0.0, 1.0], PnlTransform(1.0, 1.0, 0.0))[1]
    assert got == pytest.approx(1.7615941559557649, abs=1e-12)


def test_pnl_invertibility_flag():
    assert PnlTransform(1.0, 1.0, 0.0).invertible
    assert PnlTransform(-0.5, 1.0, 0.0).invertible  # a*b = -0.5 > -1
    assert not PnlTransform(-2.0, 1.0, 0.0).invertible


# ------------------------------------------------------------------- measure


def test_constant_shift_batch_measure_zero():
    b, ys, draws = one_batch([1.0, 2.0, 3.0], [0.0, 1.0, 2.0])
    mv = variance_divergence(b, ys, NoiseModel("uniform", 1.0), source_draws=draws)
    assert mv.raw == 0.0


def test_hand_computed_measure():
    # velocities [1, 1, 2], mean 4/3, squared deviations sum 2/3, /(k-1) = 1/3
    b, ys, draws = one_batch([1.0, 2.0, 4.0], [0.0, 1.0, 2.0])
    mv = variance_divergence(b, ys, NoiseModel("uniform", 1.0), source_draws=draws)
    assert mv.raw == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_adding_constant_leaves_measure_unchanged():
    # dyadic values and power-of-two batch size keep the arithmetic exact
    b, ys, draws = one_batch([1.0, 2.0, 4.0, 7.5], [0.0, 1.0, 2.0, 3.5])
    model = NoiseModel("uniform", 1.0)
    base = variance_divergence(b, ys, model, source_draws=draws)
    shifted = variance_divergence(b, [ys[0] + 3.25], model, source_draws=draws)
    assert shifted.raw == base.raw


def test_zero_measure_identity_at_generating_theta():
    # y values equal (as multisets) to the scaled draws the measure will use
    theta = 1.7
    draws = draw_source_batches("uniform", [8, 8], seed=42)
    rng = np.random.default_rng(1)
    ys = [rng.permutation(theta * e) for e in draws]
    b = BatchSet(positions=[0.0, 1.0], batches=[np.arange(8), np.arange(8, 16)])
    mv = variance_divergence(b, ys, NoiseModel("uniform", theta), source_draws=draws)
    assert mv.raw == 0.0


def test_per_batch_shift_invariance():
    rng = np.random.default_rng(2)
    draws = draw_source_batches("normal", [6, 6, 6], seed=5)
    ys = [rng.normal(size=6) for _ in range(3)]
    b = BatchSet(positions=[0.0, 1.0, 2.0],
                 batches=[np.arange(6), np.arange(6, 12), np.arange(12, 18)])
    model = NoiseModel("normal", 0.8)
    base = variance_divergence(b, ys, model, source_draws=draws)
    shifted = variance_divergence(b, [y + c for y, c in zip(ys, (5.0, -3.0, 0.25))],
                                  model, source_draws=draws)
    assert shifted.raw == pytest.approx(base.raw, abs=1e-12)


def test_two_equal_batches_average():
    draws = [np.array([0.0, 1.0, 2.0])] * 2
    ys = [np.array([1.0, 2.0, 4.0]), np.array([1.0, 2.0, 3.0])]
    b = BatchSet(positions=[0.0, 1.0], batches=[np.arange(3), np.arange(3, 6)])
    mv = variance_divergence(b, ys, NoiseModel("uniform", 1.0), source_draws=draws)
    assert mv.raw == pytest.approx((1.0 / 3.0 + 0.0) / 2.0, abs=1e-15)


def test_normalization_is_exact_division():
    b, ys, draws = one_batch([1.0, 2.0, 4.0], [0.0, 1.0, 2.0])
    model = NoiseModel("uniform", 2.0)
    mv = variance_divergence(b, ys, model, source_draws=draws)
    assert mv.normalized == mv.raw / model_variance(model)


def test_nonnegative_on_random_instances():
    rng = np.random.default_rng(3)
    for trial in range(20):
        sizes = [int(rng.integers(2, 9))] * 4
        draws = draw_source_batches("laplace", sizes, seed=trial)
        offsets = np.cumsum([0] + sizes)
        b = BatchSet(positions=np.arange(4.0),
                     batches=[np.arange(offsets[i], offsets[i + 1]) for i in range(4)])
        ys = [rng.normal(size=k) for k in sizes]
        mv = variance_divergence(b, ys, NoiseModel("laplace", rng.uniform(0.1, 3)),
                                 source_draws=draws)
        assert mv.raw >= 0.0


def test_batch_below_min_size_rejected():
    with pytest.raises(InsufficientDataError):
        build_workspace("uniform", [0.0], [np.array([1.0])], seed=0)


# --------------------------------------------------------------- workspaces


def workspace_oracle(ys, xs, draws):
    """The per-batch sorts that build_workspace does as matrix operations:
    each batch's effects and cause values in the stable order of its
    effects, and its draws sorted."""
    orders = [np.argsort(y, kind="stable") for y in ys]
    return (
        np.vstack([y[order] for y, order in zip(ys, orders)]),
        np.vstack([x[order] for x, order in zip(xs, orders)]) if xs is not None else None,
        np.vstack([np.sort(e) for e in draws]),
    )


def assert_workspace_equal(ws, want):
    y_sorted, xs, e_sorted = want
    assert np.array_equal(ws.y_sorted, y_sorted)
    assert (ws.xs is None and xs is None) or np.array_equal(ws.xs, xs)
    assert np.array_equal(ws.e_sorted, e_sorted)
    assert ws.n_batches == len(y_sorted) and ws.k == y_sorted.shape[1]


@settings(max_examples=150, deadline=None)
@given(
    st.integers(2, 6),
    st.integers(1, 7),
    st.sampled_from(["uniform", "normal", "beta", "laplace"]),
    st.integers(0, 2**32 - 1),
    st.booleans(),
    st.booleans(),
    st.booleans(),
)
def test_workspace_stacks_match_per_batch_oracle(k, g, source, seed, with_xs, explicit_draws,
                                                 tied):
    sizes = [k] * g
    rng = np.random.default_rng(seed)
    anchors = rng.normal(size=g)
    # integer effects tie within a batch, so the cause values' stable order shows
    ys = [rng.integers(-2, 3, k).astype(float) if tied else rng.normal(size=k) for _ in sizes]
    xs = [rng.normal(size=k) for _ in sizes] if with_xs else None
    drawn = draw_source_batches(source, sizes, seed)
    draws = [rng.normal(size=k) for _ in sizes] if explicit_draws else list(drawn)
    ws = build_workspace(source, anchors, ys, xs, seed,
                         source_draws=draws if explicit_draws else None)
    assert_workspace_equal(ws, workspace_oracle(ys, xs, draws))
    # the (g, k) matrix form gives the same workspace, and a caller's
    # matrices are sorted into copies, not in place
    given = [None if a is None else np.array(a) for a in (ys, xs, draws)]
    ws_matrix = build_workspace(source, anchors, given[0], given[1], seed,
                                source_draws=given[2] if explicit_draws else None)
    assert_workspace_equal(ws_matrix, workspace_oracle(ys, xs, draws))
    for matrix, vectors in zip(given, (ys, xs, draws)):
        assert matrix is None or matrix.tolist() == [v.tolist() for v in vectors]


@settings(max_examples=100, deadline=None)
@given(
    st.integers(2, 40),
    st.integers(1, 6),
    st.integers(1, 5),
    st.integers(0, 2**32 - 1),
)
def test_row_blocks_score_as_their_own_workspaces(k, g, blocks, seed):
    from divot.optimize import closed_form_theta

    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.integers(-3, 4, size=blocks)[:, None, None]
    ys = rng.normal(size=(blocks, g, k)) * scale
    draws = rng.random((blocks, g, k))
    alone = [build_workspace("uniform", np.zeros(g), ys[b], source_draws=draws[b])
             for b in range(blocks)]
    stacked = build_workspace("uniform", np.zeros(blocks * g), ys.reshape(-1, k),
                              source_draws=draws.reshape(-1, k), blocks=blocks)
    thetas = [closed_form_theta(ws) for ws in alone]
    values = [measure_value(ws, theta) for ws, theta in zip(alone, thetas)]
    if blocks == 1:
        assert closed_form_theta(stacked) == thetas[0]
        assert measure_value(stacked, thetas[0]) == values[0]
    else:
        assert closed_form_theta(stacked) == thetas
        assert measure_value(stacked, thetas) == values


def test_rows_that_do_not_split_into_blocks_rejected():
    with pytest.raises(ValueError, match="^5 batches do not split into 2 equal blocks$"):
        build_workspace("uniform", np.zeros(5), np.ones((5, 3)), blocks=2)


@pytest.mark.parametrize("sizes", [[5, 5, 5], [4, 4, 4, 4]])
def test_workspace_from_batches_gathers_each_batch(sizes):
    rng = np.random.default_rng(11)
    pairs = SamplePair(rng.normal(size=12), rng.normal(size=12))
    batches = BatchSet(rng.normal(size=len(sizes)),
                       [np.sort(rng.choice(12, k, replace=False)) for k in sizes])
    ws = workspace_from_batches(pairs, batches, "uniform", seed=4)
    ys = [pairs.ys[b] for b in batches.batches]
    draws = draw_source_batches("uniform", sizes, 4)
    assert ws.xs is None
    assert_workspace_equal(ws, workspace_oracle(ys, None, draws))


@pytest.mark.parametrize("source", ["uniform", "beta"])
def test_workspaces_share_the_first_rows_of_one_draw(source):
    # beta is a rejection sampler; every sampler draws in sequence
    rng = np.random.default_rng(12)
    pairs = SamplePair(rng.normal(size=12), rng.normal(size=12))
    batches = BatchSet(rng.normal(size=3), [np.sort(rng.choice(12, 4, replace=False))
                                            for _ in range(3)])
    draws = divergence.batch_draws(source, 5, 4, seed=4)
    kept = draws.copy()
    assert draws[:3].tobytes() == divergence.batch_draws(source, 3, 4, seed=4).tobytes()
    shared = workspace_from_batches(pairs, batches, source, source_draws=draws[:3])
    alone = workspace_from_batches(pairs, batches, source, seed=4)
    assert shared.e_sorted.tobytes() == alone.e_sorted.tobytes()
    # the shared draw is sorted into a copy, not in place
    assert draws.tobytes() == kept.tobytes()


def _mixed_batch_set():
    BatchSet(positions=[0.0, 1.0], batches=[[0, 1, 2], [1, 2]])


def _mixed_ys():
    build_workspace("uniform", [0.0, 1.0], [np.arange(3.0), np.arange(2.0)])


def _mixed_xs():
    build_workspace("uniform", [0.0, 1.0], [np.arange(3.0)] * 2,
                    [np.arange(3.0), np.arange(2.0)])


def _mixed_source_draws():
    build_workspace("uniform", [0.0, 1.0], [np.arange(3.0)] * 2,
                    source_draws=[np.arange(3.0), np.arange(2.0)])


def _mixed_draw_sizes():
    draw_source_batches("uniform", [3, 2], seed=0)


@pytest.mark.parametrize("build", [_mixed_batch_set, _mixed_ys, _mixed_xs,
                                   _mixed_source_draws, _mixed_draw_sizes])
def test_mixed_batch_sizes_raise_shape_error(build):
    with pytest.raises(ShapeError, match="mixed sizes 3 and 2"):
        build()


# ------------------------------------------------------------------- debias


def _inputs(seed=7, per_row_xs=True):
    """The anchors, effect values and cause values (or None) of three batches of 6."""
    rng = np.random.default_rng(seed)
    ys = np.array([rng.normal(size=6) + i for i in range(3)])
    xs = np.array([rng.normal(size=6) + i for i in range(3)]) if per_row_xs else None
    return np.arange(3.0), ys, xs


def _ws(seed=7, per_row_xs=True):
    return build_workspace("uniform", *_inputs(seed, per_row_xs), seed=seed)


def test_anchor_debias_is_absorbed_by_centering():
    # a shift a whole batch shares, w times its anchor, drops out with the
    # centring: why DebiasFn has no per-batch mode
    anchors, ys, xs = _inputs()
    base = measure_value(_ws(), 1.3)
    for w in (-2.0, 0.5, 10.0):
        shifted = build_workspace("uniform", anchors, ys - w * anchors[:, None], xs, seed=7)
        assert measure_value(shifted, 1.3) == pytest.approx(base, abs=1e-12)


def test_anchor_mode_is_rejected():
    assert DebiasFn(0.7) == DebiasFn(0.7, per_row=True)
    with pytest.raises(ValueError, match="per-batch debias shift is absorbed by the centring"):
        DebiasFn(0.7, per_row=False)


def test_per_row_debias_changes_measure():
    ws = _ws()
    base = measure_value(ws, 1.3)
    assert abs(measure_value(ws, 1.3, DebiasFn(1.0, per_row=True)) - base) > 1e-6


def test_per_row_debias_without_xs_raises():
    ws = _ws(per_row_xs=False)
    with pytest.raises(InsufficientDataError):
        measure_value(ws, 1.0, DebiasFn(1.0, per_row=True))


def test_debias_form():
    # per-row debiasing subtracts g(x) = w * x from each effect value
    anchors, ys, xs = _inputs()
    shifted = build_workspace("uniform", anchors, ys - 2.5 * xs, xs, seed=7)
    assert measure_value(_ws(), 1.3, DebiasFn(2.5, per_row=True)) == measure_value(shifted, 1.3)


# ------------------------------------------------------------------ gradients


def central_difference(fn, x, h=1e-5):
    return (fn(x + h) - fn(x - h)) / (2 * h)


def relative_error(a, b, floor=1e-7):
    return abs(a - b) / max(abs(a), abs(b), floor)


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(8)
    for trial in range(5):
        sizes = [7, 7, 7, 7]
        ys = [np.sort(rng.normal(size=7)) * rng.uniform(0.5, 2) for _ in sizes]
        xs = [rng.normal(size=7) for _ in sizes]
        ws = build_workspace("normal", np.arange(4.0), ys, xs, seed=100 + trial)
        theta = rng.uniform(0.5, 2.0)
        debias = DebiasFn(rng.uniform(-0.5, 0.5), per_row=True)
        pnl = PnlTransform(rng.uniform(0.5, 1.5), rng.uniform(0.5, 1.5), rng.uniform(-0.3, 0.3))
        _, grads = measure_with_grad(ws, theta, debias, pnl)

        checks = {
            "theta": lambda v: measure_value(ws, v, debias, pnl),
            "w": lambda v: measure_value(ws, theta, DebiasFn(v, True), pnl),
            "omega_a": lambda v: measure_value(
                ws, theta, debias, PnlTransform(v, pnl.omega_b, pnl.omega_c)),
            "omega_b": lambda v: measure_value(
                ws, theta, debias, PnlTransform(pnl.omega_a, v, pnl.omega_c)),
            "omega_c": lambda v: measure_value(
                ws, theta, debias, PnlTransform(pnl.omega_a, pnl.omega_b, v)),
        }
        at = {"theta": theta, "w": debias.w, "omega_a": pnl.omega_a,
              "omega_b": pnl.omega_b, "omega_c": pnl.omega_c}
        for name, fn in checks.items():
            fd = central_difference(fn, at[name])
            assert relative_error(grads[name], fd) < 1e-4, (name, grads[name], fd)


# ---------------------------------------------- sort-free vs argsort kernel


def two_step_view(ys, xs, debias=None, pnl=None):
    """(d, y, t, x) by the sorted view's definition, from the unsorted
    inputs: each batch stably sorted by its effect values, transformed and
    debiased, then stably sorted by d. y and t are None without a transform,
    x without a debias."""
    order = np.argsort(ys, kind="stable", axis=1)
    y = np.take_along_axis(ys, order, axis=1)
    x = None if debias is None else np.take_along_axis(xs, order, axis=1)
    t, d = None, y
    if pnl is not None:
        t = np.tanh(pnl.omega_b * y + pnl.omega_c)
        d = y + pnl.omega_a * t
    if debias is not None:
        d = d - debias.w * x
    order = np.argsort(d, kind="stable", axis=1)
    return tuple(None if a is None else np.take_along_axis(a, order, axis=1)
                 for a in (d, None if pnl is None else y, t, x))


def argsort_measure_with_grad(ys, xs, e_sorted, theta, debias=None, pnl=None):
    """The measure and its gradients from the unsorted inputs, with two
    stable argsorts on every call."""
    d, y, t, x = two_step_view(ys, xs, debias, pnl)
    k, nb = ys.shape[1], len(ys)
    g = {"theta": 0.0, "w": 0.0, "omega_a": 0.0, "omega_b": 0.0, "omega_c": 0.0}
    s = d - theta * e_sorted
    r = s - s.mean(axis=1, keepdims=True)
    scale = 2.0 / (k - 1)
    total = 0.0 + float((r * r).sum()) / (k - 1)
    g["theta"] += scale * float((r * (-e_sorted)).sum())
    if debias is not None:
        g["w"] += scale * float((r * (-x)).sum())
    if pnl is not None:
        sech2 = 1.0 - t**2
        g["omega_a"] += scale * float((r * t).sum())
        g["omega_b"] += scale * float((r * (pnl.omega_a * y * sech2)).sum())
        g["omega_c"] += scale * float((r * (pnl.omega_a * sech2)).sum())
    return total / nb, {key: val / nb for key, val in g.items()}


def bits(v):
    return np.asarray(v, dtype=float).tobytes()


@st.composite
def measure_cases(draw):
    grid = draw(st.booleans())  # an integer grid: many effect values in a row are equal
    with_xs = draw(st.booleans())
    if draw(st.booleans()):
        g, k = draw(st.integers(1, 4)), draw(st.integers(2, 9))
        values = st.integers(-3, 3).map(float) if grid else st.floats(-4, 4, allow_nan=False)
        ys = np.array(draw(st.lists(values, min_size=g * k, max_size=g * k))).reshape(g, k)
        xs = (np.array(draw(st.lists(st.floats(-2, 2), min_size=g * k, max_size=g * k)))
              .reshape(g, k) if with_xs else None)
        anchors = np.array(draw(st.lists(st.floats(-2, 2), min_size=g, max_size=g)))
    else:
        # the sizes fits see, 150 to 2,500 values: past numpy's pairwise-summation
        # block of 128, where a stacked reduction could group sums differently
        g = draw(st.integers(6, 100))
        k = draw(st.integers(-(-150 // g), min(60, 2500 // g)))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        ys = rng.integers(-3, 4, (g, k)).astype(float) if grid else rng.normal(0, 2, (g, k))
        xs = rng.uniform(-2, 2, (g, k)) if with_xs else None
        anchors = rng.uniform(-2, 2, g)
    ws = build_workspace("uniform", anchors, ys, xs, seed=draw(st.integers(0, 99)))
    debias = DebiasFn(draw(st.floats(-2, 2))) if with_xs and draw(st.booleans()) else None
    shape = draw(st.sampled_from(["none", "invertible", "non-invertible"]))
    pnl = None
    if shape != "none":
        a, b = draw(st.floats(0.05, 3)), draw(st.floats(0.05, 3))
        if shape == "non-invertible":
            a, b = -max(a, 1.5), max(b, 1.5)  # a * b < -1
        pnl = PnlTransform(a, b, draw(st.floats(-2, 2)))
    return ws, ys, xs, draw(st.floats(0.01, 3)), debias, pnl


def assert_kernel_matches_oracle(ws, ys, xs, theta, debias, pnl):
    """The kernel's value, gradients and sorted effects on ws, built from
    ys and xs, bit-equal to the two-step oracle's."""
    value, grads = measure_with_grad(ws, theta, debias, pnl)
    want_value, want_grads = argsort_measure_with_grad(ys, xs, ws.e_sorted, theta, debias, pnl)
    assert bits(value) == bits(want_value)
    assert bits(measure_value(ws, theta, debias, pnl)) == bits(want_value)
    assert grads.keys() == want_grads.keys()
    for name, want in want_grads.items():
        assert bits(grads[name]) == bits(want), name
    got, want = sorted_effects(ws, debias, pnl), two_step_view(ys, xs, debias, pnl)[0]
    if xs is None:  # np.sort, which sorts such a workspace's effects, may
        got, want = got + 0.0, want + 0.0  # put -0.0 and 0.0 in either order
    assert bits(got) == bits(want)


@settings(max_examples=400, deadline=None)
@given(measure_cases())
def test_measure_matches_argsort_kernel_bit_for_bit(case):
    assert_kernel_matches_oracle(*case)


@st.composite
def tied_cases(draw):
    """Workspaces of integer effect and cause values, so that effects tie
    within a batch, and a debias w of 1 or 0.5 ties the d of distinct members."""
    g, k = draw(st.integers(1, 4)), draw(st.integers(2, 12))
    values = st.lists(st.integers(-3, 3).map(float), min_size=g * k, max_size=g * k)
    ys = np.array(draw(values)).reshape(g, k)
    xs = np.array(draw(values)).reshape(g, k)
    ws = build_workspace("uniform", np.zeros(g), ys, xs, seed=draw(st.integers(0, 99)))
    debias = draw(st.sampled_from([None, -1.0, 0.5, 1.0, 2.0]))
    pnl = draw(st.sampled_from([None, (0.5, 1.0, 0.25), (-2.0, 1.5, 0.0)]))  # a * b < -1
    return (ws, ys, xs, draw(st.floats(0.01, 3)), None if debias is None else DebiasFn(debias),
            None if pnl is None else PnlTransform(*pnl))


@settings(max_examples=300, deadline=None)
@given(tied_cases())
def test_a_tied_view_is_the_stable_sort_of_the_y_sorted_effects(case):
    assert_kernel_matches_oracle(*case)


def test_a_debias_that_keeps_every_row_in_order_takes_no_argsort(monkeypatch):
    # with w = 1, row 0's d is 0 throughout and row 1's d = y / 2 rises, so
    # the view keeps the y-sorted order, in which x comes as the effects do
    ys = np.array([[3.0, 1.0, 2.0, 0.0], [2.0, 0.0, 3.0, 1.0]])
    xs = np.array([[3.0, 1.0, 2.0, 0.0], [1.0, 0.0, 1.5, 0.5]])
    debias = DebiasFn(1.0)
    ws = build_workspace("uniform", [0.0, 1.0], ys, xs, seed=5)
    want = argsort_measure_with_grad(ys, xs, ws.e_sorted, 0.7, debias)
    calls = []
    real = np.argsort
    monkeypatch.setattr(np, "argsort", lambda *a, **kw: calls.append(1) or real(*a, **kw))
    value, grads = measure_with_grad(ws, 0.7, debias)
    assert sorted_effects(ws, debias).tolist() == [[0.0] * 4, [0.0, 0.5, 1.0, 1.5]]
    assert divergence._sorted_view(ws, debias, None)[3].tolist() == [[0.0, 1.0, 2.0, 3.0],
                                                                      [0.0, 0.5, 1.0, 1.5]]
    assert calls == []
    assert bits(value) == bits(want[0]) and grads == want[1]


def test_sort_is_skipped_only_while_the_order_is_kept(monkeypatch):
    ws = _ws()
    calls = []
    for name in ("argsort", "sort"):
        real = getattr(np, name)
        monkeypatch.setattr(np, name, lambda *a, _name=name, _real=real, **kw:
                            calls.append(_name) or _real(*a, **kw))

    def evaluate(debias, pnl):
        """The sorts each of the three readers of the sorted view makes, each
        given its own (equal) parameter objects, so none reuses another's view."""
        made = []
        for fn in (measure_with_grad, measure_value, sorted_effects):
            args = (ws, 1.0) if fn is not sorted_effects else (ws,)
            calls.clear()
            fn(*args, *(None if p is None else dataclasses.replace(p) for p in (debias, pnl)))
            made.append(list(calls))
        return made

    assert evaluate(None, None) == [[], [], []]
    assert evaluate(None, PnlTransform(0.8, 1.2, 0.1)) == [[], [], []]
    # a * b < -1 reorders this workspace's effects
    assert evaluate(None, PnlTransform(-3.0, 2.0, 0.0)) == [["argsort"]] * 3
    assert evaluate(DebiasFn(0.3, per_row=True), None) == [["argsort"]] * 3
    assert evaluate(DebiasFn(0.3, per_row=True),
                    PnlTransform(0.8, 1.2, 0.1)) == [["argsort"]] * 3


def test_readers_of_the_same_parameter_objects_share_one_view(monkeypatch):
    ws = _ws()
    debias, pnl = DebiasFn(0.3, per_row=True), PnlTransform(-3.0, 2.0, 0.0)
    built = []  # `_transformed` runs once for each view built
    real = divergence._transformed
    monkeypatch.setattr(divergence, "_transformed", lambda *a: built.append(1) or real(*a))
    value, grads = measure_with_grad(ws, 1.0, debias, pnl)
    assert bits(measure_value(ws, 1.0, debias, pnl)) == bits(value)
    d = sorted_effects(ws, debias, pnl)
    assert len(built) == 1
    # what a caller gets back is its own: writing into it leaves the shared view
    d[:] = 0.0
    assert bits(measure_with_grad(ws, 1.0, debias, pnl)[0]) == bits(value)
    sorted_effects(ws)[:] = 0.0
    _, ys, xs = _inputs()
    assert bits(measure_value(ws, 1.0)) == bits(argsort_measure_with_grad(ys, xs, ws.e_sorted,
                                                                          1.0)[0])
    # equal but distinct objects build a fresh view with the same bits
    again = measure_with_grad(ws, 1.0, dataclasses.replace(debias), pnl)
    assert len(built) == 2 and bits(again[0]) == bits(value) and again[1] == grads
