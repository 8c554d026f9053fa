import numpy as np
import pytest

from divot import POSTS, GeneratorSpec, MECHANISMS, generate
from divot.noise import _ALIASES, _LAWS, sampler
from divot.synth import mechanism_fn


def test_piecewise_hand_value():
    f = mechanism_fn("piecewise")
    assert f(np.array([-1.0]))[0] == pytest.approx(0.5)
    assert f(np.array([1.0]))[0] == pytest.approx(1.5)
    assert f(np.array([0.0]))[0] == 0.0


def test_cubic_and_sine_values():
    assert mechanism_fn("cubic")(np.array([1.0]))[0] == pytest.approx(0.1 * 2.5**3 - 0.1)
    assert mechanism_fn("sine")(np.array([0.5]))[0] == pytest.approx(np.sin(2.0))


def test_unknown_mechanism():
    with pytest.raises(ValueError):
        mechanism_fn("quartic")


def test_zero_weight_gives_pure_noise():
    pairs = generate(GeneratorSpec(mechanism="sine", weight=0.0, n=2000, seed=1))
    # y is the noise draw alone: uniform support, uncorrelated with x
    assert pairs.ys.min() >= 0.0 and pairs.ys.max() < 1.0
    assert abs(np.corrcoef(pairs.xs, pairs.ys)[0, 1]) < 0.05


def test_regression_oracle_on_linear_data():
    w = 0.7
    pairs = generate(GeneratorSpec(mechanism="linear", weight=w, n=10**5, seed=2))
    slope, _ = np.polyfit(pairs.xs, pairs.ys, 1)
    assert abs(slope - w) < 0.01
    residuals = pairs.ys - slope * pairs.xs
    assert abs(residuals.var(ddof=1) - 1.0 / 12.0) < 0.01


def test_determinism():
    spec = GeneratorSpec(mechanism="cubic", n=100, seed=11)
    a, b = generate(spec), generate(spec)
    assert np.array_equal(a.xs, b.xs) and np.array_equal(a.ys, b.ys)


def test_support_ranges():
    pairs = generate(GeneratorSpec(mechanism="linear", n=5000, seed=3))
    assert pairs.xs.min() > -1.0 and pairs.xs.max() < 1.0
    noise = pairs.ys - pairs.xs
    assert noise.min() >= 0.0 and noise.max() < 1.0


def test_laplace_noise():
    pairs = generate(GeneratorSpec(mechanism="linear", weight=0.0, n=10**5,
                                   seed=5, noise="laplace"))
    assert abs(pairs.ys.var(ddof=1) - 2.0) < 0.1


def test_fcm1_copies_the_confounder():
    pairs = generate(GeneratorSpec(confounder=(0.3, 0.7, 1), n=200, seed=6))
    assert np.array_equal(pairs.xs, pairs.ys)


def test_fcm2_moments():
    wx, wy = 2.0, 3.0
    pairs = generate(GeneratorSpec(confounder=(wx, wy, 2), n=10**5, seed=7))
    # x = e_x + wx*u with independent U(0,1) terms
    assert abs(pairs.xs.var(ddof=1) - (1 + wx**2) / 12.0) < 0.02
    assert abs(pairs.ys.var(ddof=1) - (1 + wy**2) / 12.0) < 0.05
    expected_cov = wx * wy / 12.0
    assert abs(np.cov(pairs.xs, pairs.ys)[0, 1] - expected_cov) < 0.02


def test_fcm3_includes_mechanism():
    pairs = generate(GeneratorSpec(mechanism="linear", confounder=(0.1, 0.1, 3),
                                   n=10**5, seed=8))
    slope, _ = np.polyfit(pairs.xs, pairs.ys, 1)
    assert slope > 0.5  # direct causal term present on top of the confounder


def test_spec_validation():
    with pytest.raises(ValueError):
        GeneratorSpec(n=0)
    with pytest.raises(ValueError, match=r"^unknown noise source 'gamma'; choose from "
                                         r"\('normal', 'uniform', 'beta', 'laplace'\)$"):
        GeneratorSpec(noise="gamma")
    with pytest.raises(ValueError):
        GeneratorSpec(confounder=(1.0, 1.0, 4))


@pytest.mark.parametrize("weight", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_weight_rejected_by_name(weight):
    with pytest.raises(ValueError, match=r"^weight must be finite, got "):
        GeneratorSpec(weight=weight, n=5)


@pytest.mark.parametrize("n", [2.5, 5.0, "5", True, None])
def test_n_that_is_not_an_integer_rejected_by_name(n):
    with pytest.raises(ValueError, match=r"^n must be an integer, got "):
        GeneratorSpec(n=n)


def test_integer_n_of_any_integer_type_accepted():
    spec = GeneratorSpec(n=np.int64(7), seed=1)
    assert generate(spec).n == 7


@pytest.mark.parametrize("confounder, message", [
    ((1.0, 3), r"^confounder must be a 3-tuple \(w_x, w_y, fcm_id\), got \(1\.0, 3\)$"),
    ((1.0, 2.0, 3, 4), r"^confounder must be a 3-tuple "),
    ([0.3, 0.7, 3], r"^confounder must be a 3-tuple "),
    ((float("nan"), 0.7, 3), r"^confounder weights must be finite, got nan and 0\.7$"),
    ((0.3, float("inf"), 2), r"^confounder weights must be finite, got 0\.3 and inf$"),
])
def test_malformed_confounder_rejected_by_name(confounder, message):
    with pytest.raises(ValueError, match=message):
        GeneratorSpec(confounder=confounder)


def test_all_mechanisms_generate():
    for mech in MECHANISMS:
        pairs = generate(GeneratorSpec(mechanism=mech, n=50, seed=9))
        assert pairs.n == 50


@pytest.mark.parametrize("name, law", [(law, law) for law in _LAWS] + list(_ALIASES.items()))
def test_spec_takes_every_built_in_law_by_its_canonical_name(name, law):
    assert GeneratorSpec(noise=name).noise == law


@pytest.mark.parametrize("law", tuple(_LAWS))
def test_generate_draws_noise_by_the_law_sampler(law):
    # the process of each path, replayed on the same rng stream
    g = mechanism_fn("cubic")
    pairs = generate(GeneratorSpec(mechanism="cubic", weight=0.5, noise=law, n=300, seed=12))
    rng = np.random.default_rng(12)
    x = rng.uniform(-1.0, 1.0, 300)
    y = 0.5 * g(x) + sampler(law)(rng, 300)
    assert pairs.xs.tobytes() == x.tobytes() and pairs.ys.tobytes() == y.tobytes()

    pairs = generate(GeneratorSpec(mechanism="cubic", noise=law, confounder=(0.3, 0.7, 3),
                                   n=300, seed=13))
    rng = np.random.default_rng(13)
    u = rng.random(300)
    x = sampler(law)(rng, 300) + 0.3 * u
    y = 1.0 * g(x) + sampler(law)(rng, 300) + 0.7 * u
    assert pairs.xs.tobytes() == x.tobytes() and pairs.ys.tobytes() == y.tobytes()


@pytest.mark.parametrize("post, f2", [("identity", lambda y: y), ("cuberoot", np.cbrt),
                                      ("exp", np.exp), ("tanh", np.tanh),
                                      ("sigmoid", lambda y: 1.0 / (1.0 + np.exp(-y)))])
def test_post_nonlinearity_is_applied_to_the_drawn_y(post, f2):
    # the post-nonlinear process y = f2(g(x) + e) on the draws of the additive one
    additive = generate(GeneratorSpec(mechanism="sine", n=200, seed=4))
    pairs = generate(GeneratorSpec(mechanism="sine", n=200, seed=4, post=post))
    assert pairs.xs.tobytes() == additive.xs.tobytes()
    assert pairs.ys.tobytes() == f2(additive.ys).tobytes()


def test_default_post_is_identity():
    assert GeneratorSpec().post == "identity"
    assert set(POSTS) == {"identity", "cuberoot", "exp", "tanh", "sigmoid"}


@pytest.mark.parametrize("post", ["square", "", None])
def test_unknown_post_rejected_by_name(post):
    with pytest.raises(ValueError, match=rf"^unknown post-nonlinearity {post!r}; choose from "):
        GeneratorSpec(post=post)
