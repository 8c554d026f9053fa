"""Hypothesized noise distributions: a fixed source scaled by a positive theta.

The reparameterization e = theta * e_source is strictly increasing in the
source draw, so sorting the source sorts the noise; that monotonicity is what
lets the scale be fitted in closed form downstream.

The sources are the four built in here. Each sampler draws in sequence: its
first m values equal an m-value call from the same generator state, which
lets one draw serve several batch shapes (`draw_source_batches`).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pairdata import batch_size

# canonical name -> variance of one unscaled source draw
_BASE_VARIANCE = {
    "normal": 1.0,
    "uniform": 1.0 / 12.0,
    "beta": 1.0 / 8.0,  # Beta(0.5, 0.5): ab / ((a+b)^2 (a+b+1))
    "laplace": 2.0,
}

_SAMPLERS = {
    "normal": lambda rng, n: rng.standard_normal(n),
    "uniform": lambda rng, n: rng.random(n),
    "beta": lambda rng, n: rng.beta(0.5, 0.5, n),
    "laplace": lambda rng, n: rng.laplace(0.0, 1.0, n),
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
    if key not in _BASE_VARIANCE:
        raise ValueError(
            f"unknown noise source {name!r}; choose from {tuple(_BASE_VARIANCE)}"
        )
    return key


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
    return _SAMPLERS[canonical_source(source)](rng, g * k).reshape(g, k)


def model_variance(model: NoiseModel) -> float:
    """Analytic Var(theta * E_source)."""
    return model.theta**2 * _BASE_VARIANCE[model.source]
