"""Prediction intervals for on-line linear regression.

Four interval predictors with different modelling assumptions (rank-based,
studentized-pivot, centered-residual, and Monte-Carlo conditional), a
model-free order-statistic baseline, an on-line protocol harness with
validity diagnostics, exact conditional sampling, synthetic data generation,
and matrix file I/O.  The ``olreg`` command exposes the batch and on-line
surfaces.
"""

from .base import (
    DegenerateFitError,
    EpsilonLadder,
    FeatureSchedule,
    History,
    MatrixParseError,
    Observation,
    PredictionInterval,
    RankDeficiencyError,
    Stream,
)
from .predictors import (
    FullLinePredictor,
    GaussPredictor,
    IidGaussPredictor,
    IidPredictor,
    MonteCarloConfig,
    MvaPredictor,
    build_sweep,
    gauss_fit,
    gauss_score,
    mva_hull,
    mva_score,
    sweep_hull,
    wilks_level,
    wilks_predict,
)
from .sampler import ConditionalSample, sample_conditional
from .protocol import (
    DEFAULT_SEED,
    OnlineLedger,
    binomial_band,
    fisher_verify,
    median_accuracy,
    run_online,
    validity_report,
)
from .data import (
    SyntheticConfig,
    emit_series,
    gen_synthetic,
    load_matrix,
    observations_from_arrays,
    observations_to_arrays,
    save_matrix,
)
from .cli import batch_predict

__version__ = "0.1.0"

__all__ = [
    "ConditionalSample",
    "DEFAULT_SEED",
    "DegenerateFitError",
    "EpsilonLadder",
    "FeatureSchedule",
    "FullLinePredictor",
    "GaussPredictor",
    "History",
    "IidGaussPredictor",
    "IidPredictor",
    "MatrixParseError",
    "MonteCarloConfig",
    "MvaPredictor",
    "Observation",
    "OnlineLedger",
    "PredictionInterval",
    "RankDeficiencyError",
    "Stream",
    "SyntheticConfig",
    "batch_predict",
    "binomial_band",
    "build_sweep",
    "emit_series",
    "fisher_verify",
    "gauss_fit",
    "gauss_score",
    "gen_synthetic",
    "load_matrix",
    "median_accuracy",
    "mva_hull",
    "mva_score",
    "observations_from_arrays",
    "observations_to_arrays",
    "run_online",
    "sample_conditional",
    "save_matrix",
    "sweep_hull",
    "validity_report",
    "wilks_level",
    "wilks_predict",
]
