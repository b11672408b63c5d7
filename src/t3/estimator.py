"""The tempered-tilt density estimator.

Given a mixture p, a classifier f, and a temperature T >= 1, the estimate of
the retain density is

    p_hat(z) = p(z)^(1/T) * f(z) / Z,   Z = integral of p^(1/T) * f.

At desk scale Z is computed exactly, by adaptive quadrature over the
tempered integration window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import as_array
from .classifier import (
    Classifier,
    PRED_CLAMP,
    bayes_classifier,
    indicator_classifier,
)
from .dist import (
    Mixture,
    UniformComponent,
    integration_window,
    quadrature,
    quadrature_seeds,
)

LOG_CLAMP = math.log(PRED_CLAMP)


@dataclass(frozen=True)
class T3Estimator:
    mixture: Mixture
    classifier: Classifier
    temperature: float
    partition: float

    def density(self, z) -> np.ndarray:
        """p(z)^(1/T) * f(z) / Z, no clamping."""
        z = as_array(z)
        base = np.exp(self.mixture.log_density(z) / self.temperature)
        return base * self.classifier.predict(z) / self.partition


def clamped_log_tilt(clf: Classifier, z) -> np.ndarray:
    """ln f(z) floored at LOG_CLAMP = ln PRED_CLAMP, so that ln p_hat is
    finite wherever p > 0 (what the retain-error metric needs)."""
    return np.maximum(clf.log_predict(z), LOG_CLAMP)


def build(m: Mixture, clf: Classifier, T: float, tol: float = 1e-10) -> T3Estimator:
    """Construct the estimator, computing its partition function Z by
    quadrature to absolute tolerance ``tol``."""
    if not 1.0 <= T < math.inf:
        raise ValueError(f"temperature T must lie in [1, inf), got {T}")

    def integrand(z):
        return np.exp(m.log_density(z) / T) * clf.predict(z)

    lo, hi = integration_window(m, T)
    z_val = quadrature(integrand, lo, hi, tol=tol, breakpoints=quadrature_seeds(m, T))
    if not z_val > 0.0:
        raise ValueError(f"partition must be positive, got {z_val}")
    return T3Estimator(mixture=m, classifier=clf, temperature=float(T), partition=z_val)


def oracle_classifier(m: Mixture) -> Classifier:
    """The exact posterior for the mixture family in hand: closed-form
    quadratic sigmoid for Gaussians, support indicator for uniforms."""
    if m.is_gaussian:
        return bayes_classifier(m)
    if isinstance(m.retain, UniformComponent) and isinstance(m.forget, UniformComponent):
        return indicator_classifier(m)
    raise TypeError("no closed-form posterior for mixed component families")


def tempered_oracle(m: Mixture, tau: float, tol: float = 1e-10) -> T3Estimator:
    """The tau-tempered oracle estimate: p^(1/tau) * f_star, normalized by
    quadrature.  At tau = 1 this is exactly p_r."""
    if not 1.0 <= tau < math.inf:
        raise ValueError(f"temperature tau must lie in [1, inf), got {tau}")
    return build(m, oracle_classifier(m), tau, tol=tol)
