"""The shared numeric formulas, written once.

Every layer above funnels through these: the Gaussian log-density behind
each component and mixture, the overflow-safe sigmoid, softplus and log
sigmoid behind the classifiers and the tinylm head, the logistic loss that
both trainers minimize, the Monte Carlo (mean, standard error) pair that
every estimate reports, and the guard on every temperature.  This module
imports nothing from the package, so any module may use it without a cycle.
"""

from __future__ import annotations

import math

import numpy as np

LOG_2PI = math.log(2.0 * math.pi)


def gauss_logpdf(z, mu, v):
    """ln N(mu, v)(z), elementwise."""
    return -0.5 * (LOG_2PI + np.log(v)) - np.square(z - mu) / (2.0 * v)


def sigmoid(t: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-t), overflow-safe on both tails: with e = e^-|t|, the
    t >= 0 branch is 1 / (1 + e) and the t < 0 branch e / (1 + e)."""
    e = np.exp(-np.abs(t))
    return np.where(t >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


def softplus(t: np.ndarray) -> np.ndarray:
    """ln(1 + e^t) without overflow."""
    return np.maximum(t, 0.0) + np.log1p(np.exp(-np.abs(t)))


def log_sigmoid(t: np.ndarray) -> np.ndarray:
    """ln sigmoid(t) = -softplus(-t)."""
    return -softplus(-t)


def logistic_loss(t: np.ndarray, s: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean logistic loss of logits t against 0/1 labels s,
    mean(softplus(t) - s*t), and sigmoid(t) for its gradient."""
    return float(np.mean(softplus(t) - s * t)), sigmoid(t)


def mean_se(terms: np.ndarray) -> tuple[float, float]:
    """Monte Carlo mean of iid ``terms`` and its standard error (ddof = 1)."""
    if terms.size < 2:
        raise ValueError(f"a standard error needs at least 2 draws, got {terms.size}")
    return float(np.mean(terms)), float(np.std(terms, ddof=1) / math.sqrt(terms.size))


def as_array(z) -> np.ndarray:
    """Coerce scalar-or-array input to a contiguous float64 1-d array."""
    return np.ascontiguousarray(np.atleast_1d(np.asarray(z, dtype=np.float64)))


def check_temperature(T) -> float:
    """T as a float; a ValueError unless 1 <= T < inf (NaN fails too)."""
    if not 1.0 <= T < math.inf:
        raise ValueError(f"temperature must lie in [1, inf), got {T}")
    return float(T)
