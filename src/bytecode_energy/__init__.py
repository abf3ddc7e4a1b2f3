"""Bayesian energy modeling toolkit for JVM bytecode patterns."""

from .catalog import (
    PatternKey,
    PatternTriple,
    classify_statement,
    classify_trace,
    list_catalog,
)
from .diagnostics import ess, mcse, posterior_predictive_check, split_rhat
from .inference import (
    ModelSpec,
    PosteriorModel,
    fit,
    log_posterior,
    prior_predictive,
)
from .ingest import (
    MeasurementDataset,
    MeasurementRecord,
    RawSample,
    energy_per_iteration,
    load_measurements,
    subtract_baseline,
)
from .predict import (
    GaussianDist,
    PredictionResult,
    ProgramManifest,
    convolve,
    predict_program,
    statement_dist,
)
from .simulate import GroundTruth, simulate_study

__version__ = "0.1.0"

__all__ = [
    "PatternKey",
    "PatternTriple",
    "classify_statement",
    "classify_trace",
    "list_catalog",
    "ess",
    "mcse",
    "posterior_predictive_check",
    "split_rhat",
    "ModelSpec",
    "PosteriorModel",
    "fit",
    "log_posterior",
    "prior_predictive",
    "MeasurementDataset",
    "MeasurementRecord",
    "RawSample",
    "energy_per_iteration",
    "load_measurements",
    "subtract_baseline",
    "GaussianDist",
    "PredictionResult",
    "ProgramManifest",
    "convolve",
    "predict_program",
    "statement_dist",
    "GroundTruth",
    "simulate_study",
]
