"""The shared numeric formulas, written once.

Every layer above funnels through these: the Gaussian log-densities behind
each component and mixture, the overflow-safe sigmoid, softplus and log
sigmoid behind the classifiers and the tinylm head, and the Monte Carlo
(mean, standard error) pair that every estimate reports.  This module
imports nothing from the package, so any module may use it without a cycle.
"""

from __future__ import annotations

import math

import numpy as np

LOG_2PI = math.log(2.0 * math.pi)


def gauss_logpdf(z, mu, v):
    """ln N(mu, v)(z), elementwise."""
    return -0.5 * (LOG_2PI + np.log(v)) - np.square(z - mu) / (2.0 * v)


def mix2_gauss_logpdf(z, log_wr, mu_r, v_r, log_wf, mu_f, v_f):
    """ln of a two-Gaussian mixture with log-weights log_wr, log_wf."""
    a = log_wr + gauss_logpdf(z, mu_r, v_r)
    b = log_wf + gauss_logpdf(z, mu_f, v_f)
    return np.logaddexp(a, b)


def sigmoid(t: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-t), overflow-safe on both tails."""
    out = np.empty_like(t)
    pos = t >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    et = np.exp(t[~pos])
    out[~pos] = et / (1.0 + et)
    return out


def softplus(t: np.ndarray) -> np.ndarray:
    """ln(1 + e^t) without overflow."""
    return np.maximum(t, 0.0) + np.log1p(np.exp(-np.abs(t)))


def log_sigmoid(t: np.ndarray) -> np.ndarray:
    """ln sigmoid(t) = -softplus(-t)."""
    return -softplus(-t)


def mean_se(terms: np.ndarray) -> tuple[float, float]:
    """Monte Carlo mean of iid ``terms`` and its standard error (ddof = 1)."""
    return float(np.mean(terms)), float(np.std(terms, ddof=1) / math.sqrt(terms.size))


def as_array(z) -> np.ndarray:
    """Coerce scalar-or-array input to a contiguous float64 1-d array."""
    return np.ascontiguousarray(np.atleast_1d(np.asarray(z, dtype=np.float64)))
