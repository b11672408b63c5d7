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
from .classifier import Classifier
from .dist import Mixture, quadrature, quadrature_domain


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
        the caller, in z's shape."""
        z = as_array(z)
        if log_p is None:
            log_p = self.mixture.log_density(z)
        elif np.shape(log_p) != z.shape:
            raise ValueError(f"log_p has shape {np.shape(log_p)}, z has shape {z.shape}")
        return tilted(log_p, self.classifier.predict(z), np.array(self.temperatures)[:, None],
                      np.array(self.partitions)[:, None])


def tilted(log_p, f, T, partition, out=None) -> np.ndarray:
    """p_hat = exp(ln p / T) * f / Z, in that operation order, into ``out``
    when given; T and Z are scalars, or (k, 1) columns for a (k, n) block."""
    out = np.divide(log_p, T, out=out)
    np.multiply(np.exp(out, out=out), f, out=out)
    return np.divide(out, partition, out=out)


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
