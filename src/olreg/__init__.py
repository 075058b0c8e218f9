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
    SummaryMismatchError,
)
from .numerics import RidgeProjector, residual_decomposition
from .predictors import (
    MonteCarloConfig,
    RegressionSummary,
    build_sweep,
    centered_residual_score,
    gauss_fit,
    gauss_predict,
    gauss_score,
    iid_predict,
    iid_pvalue,
    iidgauss_predict,
    iidgauss_pvalue,
    mva_hull,
    mva_predict,
    mva_score,
    sweep_hull,
    wilks_level,
    wilks_predict,
)
from .sampler import ConditionalSample, IidGaussSummary, sample_conditional
from .protocol import (
    DEFAULT_SEED,
    FullLinePredictor,
    GaussPredictor,
    IidGaussPredictor,
    IidPredictor,
    MvaPredictor,
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
    "IidGaussSummary",
    "IidPredictor",
    "MatrixParseError",
    "MonteCarloConfig",
    "MvaPredictor",
    "Observation",
    "OnlineLedger",
    "PredictionInterval",
    "RankDeficiencyError",
    "RegressionSummary",
    "RidgeProjector",
    "Stream",
    "SummaryMismatchError",
    "SyntheticConfig",
    "batch_predict",
    "binomial_band",
    "build_sweep",
    "centered_residual_score",
    "emit_series",
    "fisher_verify",
    "gauss_fit",
    "gauss_predict",
    "gauss_score",
    "gen_synthetic",
    "iid_predict",
    "iid_pvalue",
    "iidgauss_predict",
    "iidgauss_pvalue",
    "load_matrix",
    "median_accuracy",
    "mva_hull",
    "mva_predict",
    "mva_score",
    "observations_from_arrays",
    "observations_to_arrays",
    "residual_decomposition",
    "run_online",
    "sample_conditional",
    "save_matrix",
    "sweep_hull",
    "validity_report",
    "wilks_level",
    "wilks_predict",
]
