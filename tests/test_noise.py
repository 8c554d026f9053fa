import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divot import (
    NoiseModel,
    build_workspace,
    draw_source_batches,
    model_variance,
)
from divot.noise import _LAWS, sampler

BUILT_IN_SOURCES = ("normal", "uniform", "beta", "laplace")


def test_uniform_support():
    draws = draw_source_batches("uniform", [5000], seed=0)[0]
    assert draws.min() >= 0.0 and draws.max() < 1.0


def test_same_seed_same_draws():
    a = draw_source_batches("normal", [100], seed=42)[0]
    b = draw_source_batches("normal", [100], seed=42)[0]
    assert np.array_equal(a, b)
    c = draw_source_batches("normal", [100], seed=43)[0]
    assert not np.array_equal(a, c)


def test_normal_monte_carlo_moments():
    draws = draw_source_batches("normal", [10**6], seed=1)[0]
    assert abs(draws.mean()) < 0.01
    assert abs(draws.var(ddof=1) - 1.0) < 0.01


def test_model_variance_exact_values():
    assert model_variance(NoiseModel("uniform", 1.0)) == pytest.approx(1.0 / 12.0)
    assert model_variance(NoiseModel("normal", 2.0)) == pytest.approx(4.0)
    assert model_variance(NoiseModel("beta", 1.0)) == pytest.approx(0.125)
    assert model_variance(NoiseModel("laplace", 1.0)) == pytest.approx(2.0)


def test_beta_variance_against_monte_carlo():
    draws = draw_source_batches("beta", [10**6], seed=2)[0]
    assert abs(draws.var(ddof=1) - 0.125) < 0.002


def test_variance_scales_with_theta_squared():
    for source in BUILT_IN_SOURCES:
        base = model_variance(NoiseModel(source, 1.0))
        for theta in (0.25, 1.5, 7.0):
            assert model_variance(NoiseModel(source, theta)) == pytest.approx(theta**2 * base)


def test_scaling_commutes_with_sorting():
    v = draw_source_batches("laplace", [300], seed=3)[0]
    for theta in (0.5, 2.0):
        assert np.array_equal(np.sort(theta * v), theta * np.sort(v))


def test_source_aliases_and_errors():
    assert NoiseModel("standard-normal").source == "normal"
    assert NoiseModel("Beta(0.5,0.5)").source == "beta"
    with pytest.raises(ValueError):
        NoiseModel("cauchy")
    with pytest.raises(ValueError):
        NoiseModel("uniform", theta=0.0)


def test_batch_stream_is_deterministic_and_sequential():
    sizes = [3, 3, 3]
    batches = draw_source_batches("uniform", sizes, seed=9)
    assert [len(b) for b in batches] == sizes
    again = draw_source_batches("uniform", sizes, seed=9)
    for a, b in zip(batches, again):
        assert np.array_equal(a, b)
    # one stream consumed in order: first batch equals the first 3 draws
    merged = draw_source_batches("uniform", [10], seed=9)[0]
    assert np.array_equal(batches[0], merged[:3])
    assert np.array_equal(batches.reshape(-1), merged[:9])


def per_batch_draws_oracle(source, sizes, seed):
    """One sampler call per batch on one stream, as draw_source_batches once did."""
    rng = np.random.default_rng(seed)
    return [np.asarray(sampler(source)(rng, k), dtype=float) for k in sizes]


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(["normal", "uniform", "beta", "laplace"]),
    st.integers(1, 30).flatmap(lambda k: st.lists(st.just(k), min_size=1, max_size=12)),
    st.integers(0, 2**32 - 1),
)
def test_one_call_equals_per_batch_calls(source, sizes, seed):
    got = draw_source_batches(source, sizes, seed)
    want = per_batch_draws_oracle(source, sizes, seed)
    assert [e.tolist() for e in got] == [e.tolist() for e in want]
    assert isinstance(got, np.ndarray) and got.shape == (len(sizes), sizes[0])


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(BUILT_IN_SOURCES),
    st.integers(1, 1500).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))),
    st.integers(0, 2**32 - 1),
)
def test_stream_prefix_equals_shorter_draw(source, sizes, seed):
    # skeleton orientation slices each variable's draws for every batch
    # shape from one draw of the largest: the beta sampler rejects, so its
    # prefixes are the case that could differ
    n, m = sizes
    prefix = draw_source_batches(source, [n], seed)[0][:m]
    assert prefix.tobytes() == draw_source_batches(source, [m], seed)[0].tobytes()


def test_workspace_draws_from_one_registered_sampler_call(monkeypatch):
    calls = []
    uniform = _LAWS["uniform"]

    def spy(rng, n):
        calls.append(n)
        return uniform.sample(rng, n)

    monkeypatch.setitem(_LAWS, "uniform", uniform._replace(sample=spy))
    ws = build_workspace("uniform", [0.0, 1.0, 2.0],
                         [np.arange(3.0), np.arange(3.0), np.arange(3.0)], seed=5)
    assert calls == [9]
    flat = np.random.default_rng(5).random(9)
    assert ws.e_sorted.tolist() == [sorted(flat[:3]), sorted(flat[3:6]), sorted(flat[6:])]
