"""Hypothesized noise distributions: a fixed source scaled by a positive theta.

The reparameterization e = theta * e_source is strictly increasing in the
source draw, so sorting the source sorts the noise; that monotonicity is what
lets the scale be fitted in closed form downstream.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError

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

SOURCES = tuple(_BASE_VARIANCE)


def register_source(name: str, sampler, base_variance: float):
    """Extension point: add a custom source distribution.

    `sampler(rng, n)` must return n i.i.d. unscaled draws and
    `base_variance` their variance; the scale parameter then works exactly
    as for the built-in sources. A workspace takes all its draws from one
    sampler call, split in batch order.
    """
    key = name.strip().lower()
    if not base_variance > 0:
        raise ValueError("base_variance must be positive")
    _SAMPLERS[key] = sampler
    _BASE_VARIANCE[key] = float(base_variance)


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


def _draw(source: str, rng: np.random.Generator, n: int) -> np.ndarray:
    return np.asarray(_SAMPLERS[source](rng, n), dtype=float)


def sample_source(model: NoiseModel, n: int, seed: int) -> np.ndarray:
    """n i.i.d. draws from the unscaled source distribution."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return _draw(model.source, np.random.default_rng(seed), n)


def draw_source_batches(source: str, sizes, seed: int):
    """Per-batch unscaled source draws from a single stream seeded once.

    One sampler call draws sum(sizes) values, split in batch order, so the
    draws are a deterministic function of (source, sizes, seed) and can be
    reused across optimizer iterations. The built-in samplers draw values in
    sequence, so the split equals one call per batch on the same stream.
    Equal sizes give a (g, k) matrix, mixed sizes a list of vectors.
    """
    sizes = np.asarray(sizes, dtype=int).reshape(-1)
    total = int(sizes.sum())
    flat = _draw(canonical_source(source), np.random.default_rng(seed), total)
    if flat.shape != (total,):
        raise InsufficientDataError("one source draw per batch member required")
    if not len(sizes):
        return []
    if (sizes == sizes[0]).all():
        return flat.reshape(len(sizes), sizes[0])
    return np.split(flat, np.cumsum(sizes)[:-1])


def model_variance(model: NoiseModel) -> float:
    """Analytic Var(theta * E_source)."""
    return model.theta**2 * _BASE_VARIANCE[model.source]
