"""End-to-end direction decision: score both directions, compare, bootstrap.

Both candidate directions are scored against one source sample. Each
direction is batched first; then one draw sized to the larger batch count g
(`batch_draws`) gives each direction's workspace its first g rows, which it
sorts into a copy. Every sampler draws in sequence, so those rows equal a
draw of the direction's own with the same seed, bit for bit, and a verdict
scores each direction as `score_direction` scores it alone. Each direction
fits its noise scale, and in `pnl` mode the post-nonlinear transform with
it; the normalized measure (raw divided by the fitted noise variance) is the
loss, and the smaller loss wins. The bootstrap path resamples the data,
scores both directions per replicate the same way (one draw a replicate),
and applies a two-sided Welch t-test to the two loss samples; an
insignificant difference means "independent".
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .divergence import MeasureValue, MeasureWorkspace, batch_draws, workspace_from_batches
from .noise import canonical_source
from .optimize import FitResult, fit_joint
from .pairdata import (
    BatchSet,
    SamplePair,
    check_batch_frac,
    check_pair,
    make_batches,
    select_positions,
)

X_TO_Y = "x->y"
Y_TO_X = "y->x"
INDEPENDENT = "independent"

# losses closer than this are treated as indistinguishable without a bootstrap
TIE_EPS = 1e-12


@dataclass(frozen=True)
class ScoreConfig:
    """Pipeline knobs shared by both directions.

    `max_iters` caps the projected-BFGS steps of each of the `pnl` joint
    fit's two descents, each step a line search of one or more loss
    evaluations; the `anm` scale has a closed form and takes none.
    """

    mode: str = "anm"  # anm | pnl
    source: str = "uniform"
    batch_frac: float | None = None  # None -> sample-size schedule
    max_positions: int = 50
    max_iters: int = 500

    def __post_init__(self):
        if self.mode not in ("anm", "pnl"):
            raise ValueError(f"mode must be 'anm' or 'pnl', got {self.mode!r}")
        object.__setattr__(self, "source", canonical_source(self.source))
        check_batch_frac(self.batch_frac)
        if self.max_positions < 1:
            raise ValueError(f"max_positions must be >= 1, got {self.max_positions}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")


@dataclass(frozen=True, slots=True)
class DirectionScore:
    direction: str
    measure: MeasureValue
    theta: float
    omega: tuple[float, float, float] | None
    mode: str

    @property
    def loss(self) -> float:
        return self.measure.normalized


@dataclass(frozen=True, slots=True)
class BootstrapResult:
    b: int
    losses_xy: np.ndarray
    losses_yx: np.ndarray
    p_value: float
    degenerate: bool = False


@dataclass(frozen=True, slots=True)
class Verdict:
    decision: str
    score_xy: DirectionScore
    score_yx: DirectionScore
    alpha: float = 0.05
    p_value: float | None = None
    bootstrap: BootstrapResult | None = None


def _fit(ws: MeasureWorkspace, config: ScoreConfig) -> FitResult:
    omega0 = (0.1, 0.1, 0.0) if config.mode == "pnl" else None
    return fit_joint(ws, omega0, config.max_iters)


def _oriented(pairs: SamplePair, direction: str) -> SamplePair:
    if direction == Y_TO_X:
        return pairs.swapped()
    if direction == X_TO_Y:
        return pairs
    raise ValueError(f"direction must be {X_TO_Y!r} or {Y_TO_X!r}, got {direction!r}")


def _batches(oriented: SamplePair, config: ScoreConfig) -> BatchSet:
    positions = select_positions(oriented, config.max_positions)
    return make_batches(oriented, positions, config.batch_frac)


def score_direction(pairs: SamplePair, direction: str, config: ScoreConfig,
                    seed: int = 0, *, batches: BatchSet | None = None,
                    draws: np.ndarray | None = None) -> DirectionScore:
    """Fit the measure for one hypothesized direction of preprocessed pairs.

    A verdict scores its two directions from one source draw (`_score_both`):
    it passes each direction its `batches`, made from the pairs oriented for
    it, and `draws`, the `batch_draws` of `seed` with at least g rows, of
    which the direction takes the first g. Without them the direction
    batches the pairs and draws from `seed` itself, which gives the same
    batches and draws, so the same score.
    """
    oriented = _oriented(pairs, direction)
    if batches is None:
        batches = _batches(oriented, config)
    own_draws = None if draws is None else draws[:len(batches)]
    ws = workspace_from_batches(oriented, batches, config.source, seed, own_draws)
    fit = _fit(ws, config)
    return DirectionScore(direction, fit.measure, fit.theta, fit.omega, config.mode)


def _score_both(pairs: SamplePair, config: ScoreConfig,
                seed: int) -> tuple[DirectionScore, DirectionScore]:
    """The x->y and y->x scores from one source draw.

    Both directions are batched first. Their batches share k (one n), so one
    draw of the larger g serves both, each taking its first g rows: the
    sample it would draw alone.
    """
    batches = {d: _batches(_oriented(pairs, d), config) for d in (X_TO_Y, Y_TO_X)}
    g = max(len(b) for b in batches.values())
    draws = batch_draws(config.source, g, batches[X_TO_Y].batches.shape[1], seed)
    return tuple(score_direction(pairs, d, config, seed, batches=b, draws=draws)
                 for d, b in batches.items())


def bootstrap_test(pairs: SamplePair, config: ScoreConfig, b: int = 50,
                   seed: int = 0) -> BootstrapResult:
    """Welch two-sample t-test on per-replicate direction losses.

    Replicate i draws n row indices with replacement and scores both
    directions from one source draw; replicate seeds are seed XOR i. The
    replicate holds the drawn rows sorted by index, each as often as drawn:
    a resample is a multiset of rows, so sorting leaves its law unchanged,
    and it lets each replicate take its stable x- and y-orders from the
    parent's (`SamplePair.resample`) instead of sorting both columns again.
    Equal values in a replicate therefore come in parent row order.
    """
    if b < 2:
        raise ValueError(f"need at least 2 bootstrap replicates, got {b}")
    losses_xy = np.empty(b)
    losses_yx = np.empty(b)
    for i in range(b):
        rep_seed = seed ^ i
        rng = np.random.default_rng(rep_seed)
        counts = np.bincount(rng.integers(0, pairs.n, pairs.n), minlength=pairs.n)
        score_xy, score_yx = _score_both(pairs.resample(counts), config, rep_seed)
        losses_xy[i], losses_yx[i] = score_xy.loss, score_yx.loss
    if losses_xy.var(ddof=1) == 0.0 and losses_yx.var(ddof=1) == 0.0:
        return BootstrapResult(b, losses_xy, losses_yx, 1.0, degenerate=True)
    return BootstrapResult(b, losses_xy, losses_yx, welch_p_value(losses_xy, losses_yx))


def welch_p_value(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sided p-value of Welch's unequal-variance t-test of two samples.

    The steps are those of `scipy.stats.ttest_ind(a, b, equal_var=False)`,
    so the result is the same float; only the Student t tail comes from
    scipy, from `scipy.special.stdtr`.
    """
    # imported here, not at module level: only the bootstrap test needs it
    from scipy.special import stdtr

    n1, n2 = len(a), len(b)
    v1 = np.mean((a - np.mean(a)) ** 2) * (n1 / (n1 - 1))
    v2 = np.mean((b - np.mean(b)) ** 2) * (n2 / (n2 - 1))
    vn1, vn2 = v1 / n1, v2 / n2
    with np.errstate(divide="ignore", invalid="ignore"):
        df = (vn1 + vn2) ** 2 / (vn1**2 / (n1 - 1) + vn2**2 / (n2 - 1))
        t = (np.mean(a) - np.mean(b)) / np.sqrt(vn1 + vn2)
    # a NaN df means both variances are zero; any df then gives the same p
    if np.isnan(df):
        df = 1.0
    return float(2 * stdtr(df, -np.abs(t)))


def divot(pairs: SamplePair, config: ScoreConfig | None = None, seed: int = 0,
          bootstrap_b: int | None = None, alpha: float = 0.05) -> Verdict:
    """Score both directions and decide, optionally with bootstrap significance.

    Without a bootstrap the strictly smaller loss wins and near-ties (within
    1e-12) are reported as independent. With `bootstrap_b` replicates the
    decision is independent unless the two loss samples differ significantly
    at level alpha, in which case the direction with the smaller loss wins.
    alpha must lie in (0, 1) and seed be >= 0. A nan or infinite value, or a
    constant column, raises DegenerateDataError naming the column (and the
    row); the columns are checked once, not per bootstrap replicate.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if seed < 0:  # numpy seeds only from non-negative integers
        raise ValueError(f"seed must be >= 0, got {seed}")
    check_pair(pairs)
    config = config or ScoreConfig()
    score_xy, score_yx = _score_both(pairs, config, seed)

    if bootstrap_b is None:
        if abs(score_xy.loss - score_yx.loss) <= TIE_EPS:
            decision = INDEPENDENT
        elif score_yx.loss < score_xy.loss:
            decision = Y_TO_X
        else:
            decision = X_TO_Y
        return Verdict(decision, score_xy, score_yx, alpha)

    boot = bootstrap_test(pairs, config, bootstrap_b, seed)
    if boot.p_value >= alpha:
        decision = INDEPENDENT
    elif score_yx.loss < score_xy.loss:
        decision = Y_TO_X
    else:
        decision = X_TO_Y
    return Verdict(decision, score_xy, score_yx, alpha, boot.p_value, boot)
