import itertools

import numpy as np
import pytest

from divot import ShapeError, build_workspace, measure_value, w2_squared_1d


def brute_force_w2(a, b):
    """Oracle: minimum mean squared pairing cost over all assignments."""
    best = np.inf
    for perm in itertools.permutations(range(len(b))):
        cost = np.mean([(a[i] - b[j]) ** 2 for i, j in enumerate(perm)])
        best = min(best, cost)
    return best


def test_identical_samples_cost_zero():
    a = np.array([3.0, -1.0, 2.0])
    assert w2_squared_1d(a, np.array([2.0, 3.0, -1.0])) == 0.0


def test_hand_value():
    assert w2_squared_1d([0.0, 1.0], [1.0, 2.0]) == pytest.approx(1.0)


def test_matches_brute_force_assignment():
    rng = np.random.default_rng(11)
    for _ in range(25):
        m = rng.integers(1, 7)
        a = rng.normal(size=m)
        b = rng.normal(size=m)
        assert w2_squared_1d(a, b) == pytest.approx(brute_force_w2(a, b), abs=1e-10)


def test_symmetry_and_permutation_invariance():
    rng = np.random.default_rng(12)
    a, b = rng.normal(size=20), rng.normal(size=20)
    v = w2_squared_1d(a, b)
    assert w2_squared_1d(b, a) == v
    assert w2_squared_1d(rng.permutation(a), rng.permutation(b)) == v


def test_translation_invariance():
    rng = np.random.default_rng(13)
    a, b = rng.normal(size=15), rng.normal(size=15)
    assert w2_squared_1d(a + 3.7, b + 3.7) == pytest.approx(w2_squared_1d(a, b))


def test_quadratic_scaling():
    rng = np.random.default_rng(14)
    a, b = rng.normal(size=15), rng.normal(size=15)
    assert w2_squared_1d(2.5 * a, 2.5 * b) == pytest.approx(2.5**2 * w2_squared_1d(a, b))


def test_shape_errors():
    with pytest.raises(ShapeError):
        w2_squared_1d([1.0, 2.0], [1.0])
    with pytest.raises(ShapeError):
        w2_squared_1d([], [])



# ------------------------------------------------------------ conditional form
# The per-batch cost against scaled noise, averaged over batches, is the
# measure kernel; for two-member batches its centering changes nothing, so
# the hand values are plain 1D transport costs.


def _conditional(ys, draws, theta):
    ws = build_workspace("uniform", np.arange(float(len(ys))), ys, source_draws=draws)
    return measure_value(ws, theta)


def test_conditional_identity_coupling_zero():
    draws = [np.array([0.1, 0.7, 0.4]), np.array([0.9, 0.2, 0.5])]
    ys = [2.0 * d for d in draws]
    assert _conditional(ys, draws, 2.0) == 0.0


def test_conditional_hand_value():
    got = _conditional([np.array([0.0, 2.0])], [np.array([0.0, 1.0])], 1.0)
    assert got == pytest.approx(0.5)
    assert got == pytest.approx(w2_squared_1d([0.0, 2.0], [0.0, 1.0]))


def test_conditional_is_mean_over_batches():
    draws = [np.array([0.0, 1.0]), np.array([0.0, 1.0])]
    ys = [np.array([0.0, 2.0]), np.array([0.0, 1.0])]
    assert _conditional(ys, draws, 1.0) == pytest.approx((0.5 + 0.0) / 2.0)
