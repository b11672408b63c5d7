"""The tempered-tilt density estimator.

Given a mixture p, a classifier f, and a temperature T >= 1, the estimate of
the retain density is

    p_hat(z) = p(z)^(1/T) * f(z) / Z,   Z = integral of p^(1/T) * f.

Z comes either from the quadrature oracle (exact at desk scale, the default)
or from unbiased importance sampling under a tempered-component proposal;
the two are validated against each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._kernels import as_array, mean_se
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


class ImportanceSamplingError(RuntimeError):
    """Effective sample size collapsed below 1% of the requested draws."""


@dataclass(frozen=True)
class T3Estimator:
    mixture: Mixture
    classifier: Classifier
    temperature: float
    partition: float
    partition_method: str
    partition_std_err: float = 0.0

    def density(self, z) -> np.ndarray:
        """p(z)^(1/T) * f(z) / Z, no clamping."""
        z = as_array(z)
        base = np.exp(self.mixture.log_density(z) / self.temperature)
        return base * self.classifier.predict(z) / self.partition


def clamped_log_tilt(clf: Classifier, z) -> np.ndarray:
    """ln f(z) floored at LOG_CLAMP = ln PRED_CLAMP, so that ln p_hat is
    finite wherever p > 0 (what the retain-error metric needs)."""
    return np.maximum(clf.log_predict(z), LOG_CLAMP)


def _partition_quadrature(m: Mixture, clf: Classifier, T: float, tol: float) -> float:
    lo, hi = integration_window(m, T)
    seeds = quadrature_seeds(m, T)

    def integrand(z):
        return np.exp(m.log_density(z) / T) * clf.predict(z)

    return quadrature(integrand, lo, hi, tol=tol, breakpoints=seeds)


def _partition_importance(
    m: Mixture, clf: Classifier, T: float, n_mc: int, rng: np.random.Generator
):
    """Unbiased IS estimate of Z under the tempered-component proposal
    q ~ (1-gamma)^(1/T) Zr * temper(p_r) + gamma^(1/T) Zf * temper(p_f).

    The proposal treats the tempered mixture as if the components did not
    overlap, but the weights p^(1/T) f / q are exact, so no bias enters.
    """
    temp_r, norm_r = m.retain.temper(T)
    temp_f, norm_f = m.forget.temper(T)
    a_r = (1.0 - m.gamma) ** (1.0 / T) * norm_r
    a_f = m.gamma ** (1.0 / T) * norm_f
    total = a_r + a_f
    pick_r = rng.random(n_mc) < a_r / total
    z_r = temp_r.sample(rng, n_mc)
    z_f = temp_f.sample(rng, n_mc)
    z = np.where(pick_r, z_r, z_f)

    q = (a_r * np.exp(temp_r.log_density(z)) + a_f * np.exp(temp_f.log_density(z))) / total
    w = np.exp(m.log_density(z) / T) * clf.predict(z) / q
    ess = float(np.sum(w)) ** 2 / float(np.sum(w * w))
    if ess < 0.01 * n_mc:
        raise ImportanceSamplingError(
            f"effective sample size {ess:.1f} < 1% of n_mc={n_mc}"
        )
    return mean_se(w)


def build(
    m: Mixture,
    clf: Classifier,
    T: float,
    method: str = "quadrature",
    n_mc: int = 100_000,
    rng: Optional[np.random.Generator] = None,
    tol: float = 1e-10,
) -> T3Estimator:
    """Construct the estimator, computing its partition function Z."""
    if T < 1.0:
        raise ValueError(f"temperature must be >= 1, got {T}")
    if method == "quadrature":
        z_val = _partition_quadrature(m, clf, T, tol)
        se = 0.0
    elif method == "importance_sampling":
        if rng is None:
            raise ValueError("importance_sampling needs an rng")
        z_val, se = _partition_importance(m, clf, T, n_mc, rng)
    else:
        raise ValueError(f"unknown partition method {method!r}")
    if not z_val > 0.0:
        raise ValueError(f"partition must be positive, got {z_val}")
    return T3Estimator(
        mixture=m,
        classifier=clf,
        temperature=float(T),
        partition=z_val,
        partition_method=method,
        partition_std_err=se,
    )


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
    if tau < 1.0:
        raise ValueError(f"tau must be >= 1, got {tau}")
    return build(m, oracle_classifier(m), tau, method="quadrature", tol=tol)
