"""Retain and Forget Error.

Retain Error is the forward KL divergence KL(p_r || p_hat), estimated as a
Monte Carlo average of log-density differences under p_r.  Forget Error is
the p_f-weighted L1 distance E_{p_f} |p_r - p_hat|.  Each metric scores
every temperature of an estimator's grid on one shared sample.  On the disjoint-uniform
witness family both have closed forms, evaluated here by finite algebra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import mean_se
from .classifier import PRED_CLAMP, PiecewiseClassifier
from .dist import Mixture, UniformComponent
from .estimator import T3Estimator

LOG_CLAMP = math.log(PRED_CLAMP)


@dataclass(frozen=True)
class ErrorEstimate:
    value: float
    std_err: float
    n_mc: int

    def __post_init__(self):
        if not self.std_err >= 0.0:  # NaN fails too
            raise ValueError(f"std_err must be >= 0, got {self.std_err}")


def retain_error(e: T3Estimator, n_mc: int, rng: np.random.Generator) -> list[ErrorEstimate]:
    """MC estimate of KL(p_r || p_hat) at every temperature of ``e``: the
    mean of ln p_r(z) - ln p_hat(z) over one sample z ~ p_r, shared across
    the grid (common random numbers).  Works in log densities throughout so
    sharp peaks cannot overflow; ln p_r is computed once and shared with
    the mixture density, and ln f is floored at ln PRED_CLAMP, keeping
    every term finite on the retain support.  The terms are formed one T at
    a time in one buffer (the spent sample), so no (T x n_mc) block is held."""
    m = e.mixture
    z = m.retain.sample(rng, n_mc)
    log_pr = m.retain.log_density(z)
    log_p = m.log_density(z, log_pr)
    log_f = e.classifier.log_predict(z)
    np.maximum(log_f, LOG_CLAMP, out=log_f)
    terms = z
    estimates = []
    for T, partition in zip(e.temperatures, e.partitions):
        # log_pr - (log_p / T + log_f - ln Z_T), in that operation order
        np.divide(log_p, T, out=terms)
        terms += log_f
        terms -= math.log(partition)
        np.subtract(log_pr, terms, out=terms)
        estimates.append(ErrorEstimate(*mean_se(terms), n_mc))
    return estimates


def forget_error(e: T3Estimator, n_mc: int, rng: np.random.Generator) -> list[ErrorEstimate]:
    """MC estimate of E_{p_f} |p_r(z) - p_hat(z)| at every temperature of
    ``e``, over one sample z ~ p_f shared across the grid, one T at a time
    in one buffer; ln p_r is computed once, for p_r and for ln p."""
    m = e.mixture
    z = m.forget.sample(rng, n_mc)
    p_r = m.retain.log_density(z)
    log_p = m.log_density(z, p_r)
    np.exp(p_r, out=p_r)
    f = e.classifier.predict(z)
    terms = z
    estimates = []
    for T, partition in zip(e.temperatures, e.partitions):
        # |p_r - exp(log_p / T) * f / Z_T|, in that operation order
        np.divide(log_p, T, out=terms)
        np.exp(terms, out=terms)
        terms *= f
        terms /= partition
        np.subtract(p_r, terms, out=terms)
        np.abs(terms, out=terms)
        estimates.append(ErrorEstimate(*mean_se(terms), n_mc))
    return estimates


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
