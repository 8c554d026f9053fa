import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from divot import (
    MECHANISMS,
    DegenerateDataError,
    GeneratorSpec,
    SamplePair,
    ScoreConfig,
    bootstrap_test,
    divot,
    generate,
    preprocess,
    score_direction,
)
from divot import decide as decide_mod
from divot import divergence
from divot.decide import welch_p_value

CFG = ScoreConfig(source="uniform")


def make_linear(n=500, seed=0, weight=1.0):
    pairs = generate(GeneratorSpec(mechanism="linear", weight=weight, n=n, seed=seed))
    return preprocess(pairs, max_n=n, seed=seed)


def test_near_deterministic_mechanism_scores_low():
    # a noiseless copy fits its own local spread; the loss sits at the
    # small-sample noise floor, far below typical wrong-direction values
    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, 500)
    pairs = preprocess(SamplePair(x, x + 1e-6 * rng.normal(size=500)), seed=0)
    assert score_direction(pairs, "x->y", CFG, seed=0).loss < 0.15


def test_direction_swap_equals_column_swap():
    pairs = make_linear(seed=3)
    a = score_direction(pairs, "y->x", CFG, seed=5)
    b = score_direction(pairs.swapped(), "x->y", CFG, seed=5)
    assert a.loss == b.loss and a.theta == b.theta


def test_invalid_direction():
    with pytest.raises(ValueError):
        score_direction(make_linear(), "xy", CFG)


@pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0, -0.05])
def test_alpha_outside_unit_interval_rejected(alpha):
    # at alpha >= 1 a bootstrap could never report "independent"
    with pytest.raises(ValueError, match="alpha must be in"):
        divot(make_linear(n=100), CFG, seed=0, bootstrap_b=4, alpha=alpha)


@pytest.mark.parametrize("bootstrap_b", [None, 4])
def test_negative_seed_is_named(bootstrap_b):
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
        divot(make_linear(n=100), CFG, seed=-1, bootstrap_b=bootstrap_b)


@pytest.mark.parametrize("max_positions", [0, -3])
def test_position_count_below_one_rejected(max_positions):
    with pytest.raises(ValueError, match="max_positions must be >= 1"):
        divot(make_linear(n=100), ScoreConfig(max_positions=max_positions), seed=0)


@pytest.mark.parametrize("max_iters", [0, -5])
def test_max_iters_below_one_rejected_by_name(max_iters):
    with pytest.raises(ValueError, match=rf"^max_iters must be >= 1, got {max_iters}$"):
        ScoreConfig(mode="pnl", max_iters=max_iters)


@pytest.mark.parametrize("max_positions", [0, -3])
def test_max_positions_below_one_rejected_by_name(max_positions):
    # at construction, not at the first select_positions
    with pytest.raises(ValueError, match=rf"^max_positions must be >= 1, got {max_positions}$"):
        ScoreConfig(max_positions=max_positions)


def test_linear_anm_recovery_rate():
    wins = 0
    for rep in range(100):
        pairs = make_linear(n=500, seed=rep)
        sxy = score_direction(pairs, "x->y", CFG, seed=rep)
        syx = score_direction(pairs, "y->x", CFG, seed=rep)
        wins += sxy.loss < syx.loss
    assert wins >= 95


def test_decision_flips_with_columns():
    pairs = make_linear(seed=7)
    v = divot(pairs, CFG, seed=1)
    v_swapped = divot(pairs.swapped(), CFG, seed=1)
    assert v.decision == "x->y"
    assert v_swapped.decision == "y->x"


def test_exact_tie_reports_independent():
    # identical columns make both directions bitwise the same computation
    rng = np.random.default_rng(2)
    x = rng.uniform(-1, 1, 300)
    pairs = preprocess(SamplePair(x, x.copy()), seed=0)
    v = divot(pairs, CFG, seed=0)
    assert v.score_xy.loss == v.score_yx.loss
    assert v.decision == "independent"


@pytest.mark.parametrize("column", ["x", "y"])
def test_constant_column_raises(column):
    rng = np.random.default_rng(6)
    cols = {"x": rng.normal(size=200), "y": rng.normal(size=200)}
    cols[column] = np.ones(200)
    with pytest.raises(DegenerateDataError, match=f"^column {column} is constant$"):
        divot(SamplePair(cols["x"], cols["y"]), CFG, seed=0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("column", ["x", "y"])
def test_non_finite_value_names_column_and_row(bad, column):
    rng = np.random.default_rng(7)
    cols = {"x": rng.normal(size=50), "y": rng.normal(size=50)}
    cols[column][[12, 30]] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateDataError,
                           match=f"^column {column} has non-finite value {bad} at row 12$"):
            divot(SamplePair(cols["x"], cols["y"]), CFG, seed=0)


def test_bootstrap_checks_the_columns_once(monkeypatch):
    checked = []
    check = decide_mod.check_pair
    monkeypatch.setattr(decide_mod, "check_pair", lambda pairs: checked.append(1) or check(pairs))
    divot(make_linear(n=200), CFG, seed=0, bootstrap_b=4)
    assert checked == [1]


def test_normalization_consistency():
    from divot import NoiseModel, model_variance

    s = score_direction(make_linear(seed=9), "x->y", CFG, seed=9)
    assert s.loss == s.measure.raw / model_variance(NoiseModel("uniform", s.theta))


def test_affine_rescaling_leaves_decision_unchanged():
    # pure power-of-two scaling commutes with every rounding step, so the
    # z-scores and hence the whole pipeline are bitwise identical; adding a
    # shift re-rounds the column mean, so equality there is to rounding noise
    rng = np.random.default_rng(4)
    x = np.round(rng.uniform(-1, 1, 400) * 2**20) / 2**20
    y = np.round((x + rng.random(400)) * 2**20) / 2**20
    base = divot(preprocess(SamplePair(x, y), seed=1), CFG, seed=1)
    scaled = divot(preprocess(SamplePair(4.0 * x, y), seed=1), CFG, seed=1)
    assert scaled.decision == base.decision
    assert scaled.score_xy.loss == base.score_xy.loss
    assert scaled.score_yx.loss == base.score_yx.loss
    shifted = divot(preprocess(SamplePair(4.0 * x + 3.0, y), seed=1), CFG, seed=1)
    assert shifted.decision == base.decision
    assert shifted.score_xy.loss == pytest.approx(base.score_xy.loss, abs=1e-12)
    assert shifted.score_yx.loss == pytest.approx(base.score_yx.loss, abs=1e-12)


# -------------------------------------------------------- one draw a verdict


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["uniform", "normal", "beta", "laplace"]), st.sampled_from(MECHANISMS),
       st.integers(0, 2**16), st.sampled_from(["anm", "pnl"]))
# cubic, seed 0: the x->y direction batches around 49 positions, y->x around 41
@example("beta", "cubic", 0, "anm")
def test_shared_draw_scores_equal_each_direction_scored_alone(source, mechanism, seed, mode):
    # both directions slice one draw sized to the larger g; beta is a
    # rejection sampler, and at n=100 the two g often differ
    pairs = generate(GeneratorSpec(mechanism=mechanism, n=100, seed=seed))
    pre = preprocess(pairs, max_n=100, seed=seed)
    config = ScoreConfig(mode=mode, source=source, max_iters=20)
    verdict = divot(pre, config, seed=seed)
    assert verdict.score_xy == score_direction(pre, "x->y", config, seed)
    assert verdict.score_yx == score_direction(pre, "y->x", config, seed)


def test_a_verdict_draws_its_source_once_and_once_per_replicate(monkeypatch):
    sizes, directions = [], []
    draw, score = divergence.draw_source_batches, decide_mod.score_direction

    def counted_draw(source, batch_sizes, seed):
        sizes.append(len(batch_sizes))
        return draw(source, batch_sizes, seed)

    def counted_score(pairs, direction, *args, **kwargs):
        directions.append(direction)
        return score(pairs, direction, *args, **kwargs)

    monkeypatch.setattr(divergence, "draw_source_batches", counted_draw)
    monkeypatch.setattr(decide_mod, "score_direction", counted_score)
    pre = preprocess(generate(GeneratorSpec(mechanism="cubic", n=100, seed=0)), seed=0)
    divot(pre, CFG, seed=0)
    # one draw, sized to the larger of the two directions' batch counts, and
    # each direction still scored by score_direction
    assert sizes == [max(len(decide_mod.select_positions(p)) for p in (pre, pre.swapped()))]
    assert directions == ["x->y", "y->x"]
    sizes.clear()
    directions.clear()
    divot(pre, CFG, seed=0, bootstrap_b=6)
    assert len(sizes) == 6 + 1
    assert directions == ["x->y", "y->x"] * (6 + 1)


# ------------------------------------------------------------------ bootstrap


def test_bootstrap_requires_two_replicates():
    with pytest.raises(ValueError):
        bootstrap_test(make_linear(), CFG, b=1)


def test_identical_loss_samples_give_p_one():
    # identical columns: both directions produce the same loss per replicate
    rng = np.random.default_rng(5)
    x = rng.uniform(-1, 1, 200)
    pairs = preprocess(SamplePair(x, x.copy()), seed=0)
    res = bootstrap_test(pairs, CFG, b=8, seed=0)
    assert np.array_equal(res.losses_xy, res.losses_yx)
    assert res.p_value == pytest.approx(1.0)


def test_degenerate_zero_variance_flag(monkeypatch):
    calls = {"n": 0}

    def fake_score(pairs, direction, config, seed=0, **shared):
        calls["n"] += 1
        return type("S", (), {"loss": 0.25})()

    monkeypatch.setattr(decide_mod, "score_direction", fake_score)
    res = decide_mod.bootstrap_test(make_linear(), CFG, b=5, seed=0)
    assert res.degenerate and res.p_value == 1.0
    assert calls["n"] == 10


def test_replicates_are_seed_reproducible():
    pairs = make_linear(n=200, seed=11)
    a = bootstrap_test(pairs, CFG, b=6, seed=3)
    b = bootstrap_test(pairs, CFG, b=6, seed=3)
    assert np.array_equal(a.losses_xy, b.losses_xy)
    assert a.p_value == b.p_value


def test_strong_signal_is_significant_and_oriented():
    pairs = make_linear(n=600, seed=13)
    v = divot(pairs, CFG, seed=13, bootstrap_b=20)
    assert v.p_value < 0.05
    assert v.decision == "x->y"
    assert v.bootstrap is not None and v.bootstrap.b == 20


def test_verdict_logic_matches_alpha_rule():
    pairs = make_linear(n=400, seed=17)
    probe = bootstrap_test(pairs, CFG, b=12, seed=17)
    above = divot(pairs, CFG, seed=17, bootstrap_b=12, alpha=probe.p_value * 2)
    assert above.decision in ("x->y", "y->x")  # p < alpha: directed verdict
    at = divot(pairs, CFG, seed=17, bootstrap_b=12, alpha=probe.p_value)
    assert at.decision == "independent"  # p >= alpha at equality


def test_independent_pairs_p_values_exceed_causal_ones():
    # independent data cannot be told apart as reliably as strongly causal
    # data; compare median p-values instead of a per-run bright line
    rng = np.random.default_rng(19)
    p_indep, p_causal = [], []
    for rep in range(8):
        x = rng.uniform(-1, 1, 400)
        e = rng.uniform(-1, 1, 400)
        indep = preprocess(SamplePair(x, e), seed=rep)
        p_indep.append(bootstrap_test(indep, CFG, b=20, seed=rep).p_value)
        p_causal.append(bootstrap_test(make_linear(n=400, seed=rep), CFG, b=20, seed=rep).p_value)
    assert np.median(p_indep) > 0.05
    assert np.median(p_causal) < 0.01
    assert np.median(p_indep) > np.median(p_causal)


samples = st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=40)


@settings(max_examples=300, deadline=None)
@given(samples, samples, st.sampled_from(["neither", "a", "b", "both"]))
def test_welch_p_value_matches_scipy_ttest(a, b, constant):
    from scipy import stats

    a, b = np.array(a), np.array(b)
    if constant in ("a", "both"):
        a = np.full(len(a), a[0])  # zero variance
    if constant in ("b", "both"):
        b = np.full(len(b), b[-1])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        want = float(stats.ttest_ind(a, b, equal_var=False).pvalue)
    got = welch_p_value(a, b)
    assert type(got) is float
    assert np.float64(got).tobytes() == np.float64(want).tobytes()
