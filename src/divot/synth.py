"""Seeded synthetic cause-effect generators, including confounded variants."""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .noise import canonical_source, sampler
from .pairdata import SamplePair

MECHANISMS = ("linear", "cubic", "sine", "piecewise")
POSTS = ("identity", "cuberoot", "exp", "tanh", "sigmoid")


def mechanism_fn(name: str):
    if name == "linear":
        return lambda x: x
    if name == "cubic":
        return lambda x: 0.1 * (2.5 * x) ** 3 - 0.1 * x
    if name == "sine":
        return lambda x: np.sin(4.0 * x)
    if name == "piecewise":
        return lambda x: np.where(x <= 0, 0.5 * x**3 - x, 1.0 - 0.5 * x**3 + x)
    raise ValueError(f"unknown mechanism {name!r}; choose from {MECHANISMS}")


def post_fn(name: str):
    """The post-nonlinearity f2 of a post-nonlinear process, applied to y."""
    if name == "identity":
        return lambda y: y
    if name == "cuberoot":
        return np.cbrt
    if name == "exp":
        return np.exp
    if name == "tanh":
        return np.tanh
    if name == "sigmoid":
        return lambda y: 1.0 / (1.0 + np.exp(-y))
    raise ValueError(f"unknown post-nonlinearity {name!r}; choose from {POSTS}")


@dataclass(frozen=True)
class GeneratorSpec:
    """Parameters of one synthetic data process.

    Without `confounder` the process is x ~ U(-1,1), y = weight * g(x) + e.
    With `confounder` = (w_x, w_y, fcm_id) the processes of the unknown-
    confounder study are used instead (fcm_id in {1, 2, 3}). Each noise term
    is one unscaled draw of the built-in law `noise` (`noise.sampler`).
    `post` names the post-nonlinearity f2 (`POSTS`) applied to that y last,
    a post-nonlinear process y = f2(weight * g(x) + e); the default
    "identity" leaves y as drawn.
    A non-finite weight, an n that is not an integer or below 1, a
    confounder that is not such a 3-tuple with finite weights and an
    unknown post raise ValueError naming the field.
    """

    mechanism: str = "linear"
    weight: float = 1.0
    noise: str = "uniform"
    confounder: tuple[float, float, int] | None = None
    n: int = 500
    seed: int = 0
    post: str = "identity"

    def __post_init__(self):
        if isinstance(self.n, bool) or not isinstance(self.n, numbers.Integral):
            raise ValueError(f"n must be an integer, got {self.n!r}")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not math.isfinite(self.weight):
            raise ValueError(f"weight must be finite, got {self.weight!r}")
        object.__setattr__(self, "noise", canonical_source(self.noise))
        mechanism_fn(self.mechanism)
        post_fn(self.post)
        if self.confounder is not None:
            if not isinstance(self.confounder, tuple) or len(self.confounder) != 3:
                raise ValueError("confounder must be a 3-tuple (w_x, w_y, fcm_id), "
                                 f"got {self.confounder!r}")
            if not (math.isfinite(self.confounder[0]) and math.isfinite(self.confounder[1])):
                raise ValueError("confounder weights must be finite, "
                                 f"got {self.confounder[0]!r} and {self.confounder[1]!r}")
            if self.confounder[2] not in (1, 2, 3):
                raise ValueError("confounder fcm_id must be 1, 2 or 3")


def generate(spec: GeneratorSpec) -> SamplePair:
    """Draw a SamplePair from the process described by spec (deterministic)."""
    rng = np.random.default_rng(spec.seed)
    g = mechanism_fn(spec.mechanism)
    noise = sampler(spec.noise)
    post = post_fn(spec.post)

    if spec.confounder is None:
        x = rng.uniform(-1.0, 1.0, spec.n)
        y = spec.weight * g(x) + noise(rng, spec.n)
        return SamplePair(x, post(y))

    w_x, w_y, fcm_id = spec.confounder
    u = rng.random(spec.n)
    if fcm_id == 1:
        x = u
        y = u.copy()
    elif fcm_id == 2:
        x = noise(rng, spec.n) + w_x * u
        y = noise(rng, spec.n) + w_y * u
    else:
        x = noise(rng, spec.n) + w_x * u
        y = spec.weight * g(x) + noise(rng, spec.n) + w_y * u
    return SamplePair(x, post(y))
