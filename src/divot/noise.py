"""The built-in noise laws, and hypothesized noise: a law scaled by a positive theta.

`_LAWS` is the one definition of each law, its variance and its sampler: the
scorer and `synth.generate` (through `sampler`) both read it. The
reparameterization e = theta * e_source is strictly increasing in the source
draw, so sorting the source sorts the noise; that monotonicity is what lets
the scale be fitted in closed form downstream. Each sampler draws in
sequence: its first m values equal an m-value call from the same generator
state, which lets one draw serve several batch shapes (`draw_source_batches`).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .pairdata import batch_size


class _Law(NamedTuple):
    variance: float  # of one unscaled draw
    sample: Callable  # (rng, n) -> n unscaled draws


_LAWS = {  # canonical name -> law
    "normal": _Law(1.0, lambda rng, n: rng.standard_normal(n)),
    "uniform": _Law(1.0 / 12.0, lambda rng, n: rng.random(n)),
    # Beta(0.5, 0.5): ab / ((a+b)^2 (a+b+1))
    "beta": _Law(1.0 / 8.0, lambda rng, n: rng.beta(0.5, 0.5, n)),
    "laplace": _Law(2.0, lambda rng, n: rng.laplace(0.0, 1.0, n)),
}

_ALIASES = {
    "standard-normal": "normal",
    "gaussian": "normal",
    "uniform(0,1)": "uniform",
    "beta(0.5,0.5)": "beta",
    "laplace(0,1)": "laplace",
}


def canonical_source(name: str) -> str:
    key = name.strip().lower()
    key = _ALIASES.get(key, key)
    if key not in _LAWS:
        raise ValueError(f"unknown noise source {name!r}; choose from {tuple(_LAWS)}")
    return key


def sampler(source: str) -> Callable:
    """The sampler of a built-in law: (rng, n) -> n unscaled draws from rng."""
    return _LAWS[canonical_source(source)].sample


@dataclass(frozen=True)
class NoiseModel:
    """A source distribution plus a positive monotone scale theta."""

    source: str = "normal"
    theta: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "source", canonical_source(self.source))
        if not self.theta > 0:
            raise ValueError(f"theta must be positive, got {self.theta}")


def draw_source_batches(source: str, sizes, seed: int) -> np.ndarray:
    """Unscaled source draws for g batches of k members, as one (g, k) matrix.

    `sizes` gives each batch's size; they must all be k (mixed sizes raise
    ShapeError). One sampler call on a stream seeded once draws the g * k
    values, row by row, so the draws are a deterministic function of
    (source, sizes, seed) and can be reused across optimizer iterations.
    Every sampler draws in sequence: the first m values of a call equal an
    m-value call on the same seed, so row b equals batch b's draws from one
    call per batch on the same stream, and the first g' * k' values of one
    draw, row by row, equal a draw of g' batches of k'. The matrix is the
    caller's own (a workspace sorts its rows in place).
    """
    g = len(sizes)
    k = batch_size(sizes)
    rng = np.random.default_rng(seed)
    return sampler(source)(rng, g * k).reshape(g, k)


def model_variance(model: NoiseModel) -> float:
    """Analytic Var(theta * E_source)."""
    return scaled_variance(model.source, model.theta)


def scaled_variance(source: str, theta: float) -> float:
    """Var(theta * E_source) of a canonical law name (`canonical_source`),
    with no check of theta: `model_variance` without building a NoiseModel."""
    return theta**2 * _LAWS[source].variance
