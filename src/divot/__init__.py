"""Causal direction inference via one-dimensional optimal transport."""

from .decide import (
    INDEPENDENT,
    X_TO_Y,
    Y_TO_X,
    BootstrapResult,
    DirectionScore,
    ScoreConfig,
    Verdict,
    bootstrap_test,
    divot,
    score_direction,
)
from .divergence import (
    DebiasFn,
    MeasureValue,
    MeasureWorkspace,
    PnlTransform,
    build_workspace,
    measure_value,
    measure_with_grad,
    variance_divergence,
    workspace_from_batches,
)
from .errors import (
    DegenerateDataError,
    DivotError,
    InsufficientDataError,
    NumericError,
    PairParseError,
    ParseError,
    ShapeError,
    SkeletonParseError,
    SkeletonTooLargeError,
)
from .multivar import (
    DagOrientation,
    OrientationResult,
    Skeleton,
    load_skeleton,
    multivariate_measure,
    orient_skeleton,
    variable_term,
)
from .noise import NoiseModel, draw_source_batches, model_variance
from .optimize import FitResult, bisect_theta, closed_form_theta, fit_joint, fit_theta
from .ot1d import w2_squared_1d
from .pairdata import (
    BatchSet,
    SamplePair,
    default_batch_frac,
    load_pairs,
    make_batches,
    normalize,
    preprocess,
    select_positions,
    subsample,
    trim_outliers,
)
from .synth import MECHANISMS, GeneratorSpec, generate

__all__ = [name for name in dir() if not name.startswith("_")]
