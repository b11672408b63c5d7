"""Retain and Forget Error.

Retain Error is the forward KL divergence KL(p_r || p_hat), estimated as a
Monte Carlo average of log-density differences under p_r.  Forget Error is
the p_f-weighted L1 distance E_{p_f} |p_r - p_hat|.  On the disjoint-uniform
witness family both have closed forms, evaluated here by finite algebra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import mean_se
from .classifier import PiecewiseClassifier
from .dist import Mixture, UniformComponent
from .estimator import T3Estimator, clamped_log_tilt


@dataclass(frozen=True)
class ErrorEstimate:
    value: float
    std_err: float
    n_mc: int

    def __post_init__(self):
        if self.std_err < 0.0:
            raise ValueError("std_err must be >= 0")


def retain_terms(log_pr, log_p, log_f, T: float, partition: float) -> np.ndarray:
    """Per-draw ln p_r(z) - ln p_hat(z) at draws z ~ p_r, from ln p_r(z),
    ln p(z) and the clamped ln f(z) (:func:`~t3.estimator.clamped_log_tilt`),
    for the estimator at temperature T with partition Z."""
    return log_pr - (log_p / T + log_f - math.log(partition))


def forget_terms(p_r, log_p, f, T: float, partition: float) -> np.ndarray:
    """Per-draw |p_r(z) - p_hat(z)| at draws z ~ p_f, from p_r(z), ln p(z)
    and f(z), for the estimator at temperature T with partition Z."""
    return np.abs(p_r - np.exp(log_p / T) * f / partition)


def retain_error(
    e: T3Estimator, m: Mixture, n_mc: int, rng: np.random.Generator
) -> ErrorEstimate:
    """MC estimate of KL(p_r || p_hat): mean of ln p_r(z) - ln p_hat(z) for
    z ~ p_r.  Works in log densities throughout so sharp peaks cannot
    overflow; the classifier is clamped at PRED_CLAMP, keeping every term
    finite on the retain support."""
    z = m.retain.sample(rng, n_mc)
    terms = retain_terms(
        m.retain.log_density(z), e.mixture.log_density(z), clamped_log_tilt(e.classifier, z),
        e.temperature, e.partition,
    )
    return ErrorEstimate(*mean_se(terms), n_mc)


def forget_error(
    e: T3Estimator, m: Mixture, n_mc: int, rng: np.random.Generator
) -> ErrorEstimate:
    """MC estimate of E_{p_f} |p_r(z) - p_hat(z)| for z ~ p_f."""
    z = m.forget.sample(rng, n_mc)
    terms = forget_terms(
        np.exp(m.retain.log_density(z)), e.mixture.log_density(z), e.classifier.predict(z),
        e.temperature, e.partition,
    )
    return ErrorEstimate(*mean_se(terms), n_mc)


def closed_form_errors(m: Mixture, clf: PiecewiseClassifier) -> tuple[float, float]:
    """Exact (retain, forget) errors of the untempered estimator on the
    disjoint-uniform instance with a piecewise-constant classifier.

    With f = a on the retain support and b on the forget support, the
    partition is N = (1-gamma) a + gamma b, so on the forget support
    p_hat = gamma p_f b / N and

        forget error = ||p_f||_inf * gamma b / N,
        retain error = ln N - ln((1-gamma) a)

    (the estimator on the retain support is p_r (1-gamma) a / N).
    """
    if not (isinstance(m.retain, UniformComponent) and isinstance(m.forget, UniformComponent)):
        raise TypeError("closed forms need uniform components")
    if not isinstance(clf, PiecewiseClassifier):
        raise TypeError("closed forms need a piecewise-constant classifier")
    if m.retain.support() != clf.retain_support or m.forget.support() != clf.forget_support:
        raise ValueError("classifier supports must match the mixture components")
    g = m.gamma
    a = clf.retain_value
    b = clf.forget_value
    part = (1.0 - g) * a + g * b
    forget = m.forget.peak_density() * g * b / part
    retain = math.log(part) - math.log((1.0 - g) * a)
    return retain, forget
