"""Estimation, simulation and probabilistic evaluation of transaction
arrival processes in continuous intraday markets."""

from .models import FuncKind, ModelSpec, enumerate_models, model_from_name
from .fitting import FitOptions, FittedModel, fit, fit_cascade, log_likelihood
from .simulate import TrajectorySet, simulate_set
from .scoring import LossSpec, ScoreReport, argmin_process, dm_test, eval_functional, rho
from .ingest import ArrivalSeries, InterArrivalSample, Transactions, slice_window
from .backtest import RunConfig, run

__version__ = "0.1.0"

__all__ = [
    "FuncKind",
    "ModelSpec",
    "enumerate_models",
    "model_from_name",
    "FitOptions",
    "FittedModel",
    "fit",
    "fit_cascade",
    "log_likelihood",
    "TrajectorySet",
    "simulate_set",
    "LossSpec",
    "ScoreReport",
    "argmin_process",
    "eval_functional",
    "rho",
    "dm_test",
    "Transactions",
    "ArrivalSeries",
    "InterArrivalSample",
    "slice_window",
    "RunConfig",
    "run",
    "__version__",
]
