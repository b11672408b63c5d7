"""Tempered-tilt density-ratio unlearning at desk scale.

Estimate a retain density from a mixture by tempering the base density and
tilting it with a learned retain-vs-forget classifier; measure Retain and
Forget Error; check every finite-sample bound numerically; and drive the
same inference rule through a tiny tabular language model.
"""

from .dist import GaussianComponent, Mixture, QuadratureError, UniformComponent, quadrature
from .classifier import (
    LabeledDataset,
    PiecewiseClassifier,
    QuadClassifier,
    TrainingError,
    bayes_classifier,
    estimate_excess_risk,
    exact_excess_risk,
    train,
    witness_classifier,
)
from .estimator import T3Estimator, build
from .metrics import ErrorEstimate, closed_form_errors, forget_error, retain_error

__version__ = "0.1.0"

__all__ = [
    "GaussianComponent",
    "UniformComponent",
    "Mixture",
    "QuadratureError",
    "quadrature",
    "LabeledDataset",
    "QuadClassifier",
    "PiecewiseClassifier",
    "TrainingError",
    "bayes_classifier",
    "witness_classifier",
    "train",
    "estimate_excess_risk",
    "exact_excess_risk",
    "T3Estimator",
    "build",
    "ErrorEstimate",
    "retain_error",
    "forget_error",
    "closed_form_errors",
    "__version__",
]
