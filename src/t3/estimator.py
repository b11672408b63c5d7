"""The tempered-tilt density estimator.

Given a mixture p, a classifier f, and a temperature T >= 1, the estimate of
the retain density is

    p_hat(z) = p(z)^(1/T) * f(z) / Z,   Z = integral of p^(1/T) * f.

An estimator holds a whole temperature grid, one row per T; one temperature
is a one-element grid.  At desk scale every Z is computed exactly, by one
vector-valued adaptive Gauss-Kronrod quadrature over
``quadrature_domain(m, temperatures)``: the window of the largest T and the
breakpoints of every T in the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import as_array, check_temperature
from .classifier import (
    Classifier,
    bayes_classifier,
    indicator_classifier,
)
from .dist import Mixture, UniformComponent, quadrature, quadrature_domain


@dataclass(frozen=True)
class T3Estimator:
    """The estimate at each of ``temperatures``; ``partitions[i]`` is Z at
    ``temperatures[i]``."""

    mixture: Mixture
    classifier: Classifier
    temperatures: tuple
    partitions: tuple

    def __post_init__(self):
        if len(self.partitions) != len(self.temperatures):
            raise ValueError(
                f"need one partition per temperature, got {len(self.partitions)} "
                f"for {len(self.temperatures)}"
            )
        for i, T in enumerate(self.temperatures):
            try:
                check_temperature(T)
            except ValueError as exc:
                raise ValueError(f"temperatures[{i}]: {exc}") from None
        for i, z in enumerate(self.partitions):
            if not 0.0 < z < math.inf:
                raise ValueError(f"partitions[{i}] must be finite and > 0, got {z!r}")

    def density(self, z, log_p=None) -> np.ndarray:
        """p(z)^(1/T) * f(z) / Z as a (k, n) block, one row per T; no
        clamping.  ``log_p``, when given, is ln p(z), already computed by
        the caller."""
        z = as_array(z)
        log_p = self.mixture.log_density(z) if log_p is None else log_p
        base = np.exp(log_p / np.array(self.temperatures)[:, None])
        return base * self.classifier.predict(z) / np.array(self.partitions)[:, None]


def build(m: Mixture, clf: Classifier, temperatures) -> T3Estimator:
    """Construct the estimator over a temperature grid, computing every
    partition Z(T) = integral of p^(1/T) f in one vector-valued quadrature.

    All rows share the quadrature domain of the whole grid, and ln p and f
    are evaluated once per point; a panel closes only when every row has
    converged."""
    temps = np.array([check_temperature(T) for T in temperatures])
    if temps.size == 0:
        raise ValueError("build needs a nonempty temperature grid")

    def integrand(z):
        return np.exp(m.log_density(z) / temps[:, None]) * clf.predict(z)

    lo, hi, seeds = quadrature_domain(m, temps)
    z_vals = quadrature(integrand, lo, hi, breakpoints=seeds)
    return T3Estimator(m, clf, tuple(temps.tolist()), tuple(z_vals.tolist()))


def oracle_classifier(m: Mixture) -> Classifier:
    """The exact posterior for the mixture family in hand: closed-form
    quadratic sigmoid for Gaussians, support indicator for uniforms."""
    if m.is_gaussian:
        return bayes_classifier(m)
    if isinstance(m.retain, UniformComponent) and isinstance(m.forget, UniformComponent):
        return indicator_classifier(m)
    raise TypeError("no closed-form posterior for mixed component families")
