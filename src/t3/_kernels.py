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
EXP_FLOOR = -700.0  # see _exp_neg_abs


def gauss_logpdf(z, mu, v):
    """ln N(mu, v)(z), elementwise, in one fresh array: (z - mu)^2 / (-2v)
    plus the log normalizer, which is c - (z - mu)^2 / (2v) bit for bit
    (negating a divisor negates the rounded quotient exactly)."""
    out = np.subtract(z, mu)
    np.square(out, out=out)
    out /= -2.0 * v
    out += -0.5 * (LOG_2PI + np.log(v))
    return out


def _exp_neg_abs(t: np.ndarray, out=None) -> np.ndarray:
    """e^max(-|t|, EXP_FLOOR), into ``out`` when given.  The floor keeps
    np.exp on its vector path, which numpy 2.4.6 leaves below about -707.5
    (there it is 18-115x slower per element on an x86-64 Xeon).  It moves
    only values under e^-700 ~ 9.9e-305, and a NaN still propagates."""
    e = np.abs(t, out=out)
    np.negative(e, out=e)
    np.maximum(e, EXP_FLOOR, out=e)
    return np.exp(e, out=e)


def sigmoid(t: np.ndarray, out=None, scratch=None) -> np.ndarray:
    """1 / (1 + e^-t) for a float64 array t, overflow-safe on both tails:
    with e = e^-|t| (floored as in _exp_neg_abs, so t below -700 gives
    e^-700) it is where(t >= 0, 1, e) / (1 + e), one division.  The
    numerator is formed as max(t >= 0, e), exact because 0 <= e <= 1 (and a
    NaN propagates).  ``out`` (which may be ``t`` itself) receives the
    result and ``scratch``, an array like t, holds e; either is allocated
    when not given, so with both the call allocates nothing."""
    e = _exp_neg_abs(t, out=scratch)
    out = np.greater_equal(t, 0.0, out=np.empty_like(e) if out is None else out)
    np.maximum(out, e, out=out)
    e += 1.0
    return np.divide(out, e, out=out)


def softplus(t: np.ndarray) -> np.ndarray:
    """ln(1 + e^t) without overflow, as max(t, 0) + ln(1 + e^-|t|) with
    e^-|t| floored as in _exp_neg_abs."""
    return np.maximum(t, 0.0) + np.log1p(_exp_neg_abs(t))


def log_sigmoid(t: np.ndarray) -> np.ndarray:
    """ln sigmoid(t) = -softplus(-t)."""
    return -softplus(-t)


def logistic_loss(t: np.ndarray, s: np.ndarray) -> float:
    """Mean logistic loss of logits t against 0/1 labels s,
    mean(softplus(t) - s*t); its gradient in t is (sigmoid(t) - s) / n."""
    return float(np.mean(softplus(t) - s * t))


def mean_se(terms: np.ndarray) -> tuple[float, float]:
    """Monte Carlo mean of iid ``terms`` and its standard error (ddof = 1),
    bitwise np.mean(terms) and np.std(terms, ddof=1) / sqrt(n): one sum
    gives the mean, and the deviations are squared in their own buffer."""
    terms = np.asarray(terms, dtype=np.float64)
    n = terms.size
    if n < 2:
        raise ValueError(f"a standard error needs at least 2 draws, got {n}")
    mean = np.add.reduce(terms, axis=None) / n
    dev = np.subtract(terms, mean)
    np.square(dev, out=dev)
    var = np.add.reduce(dev, axis=None) / (n - 1)
    return float(mean), float(np.sqrt(var) / math.sqrt(n))


def as_array(z) -> np.ndarray:
    """Coerce scalar-or-array input to a contiguous float64 1-d array."""
    return np.ascontiguousarray(np.atleast_1d(np.asarray(z, dtype=np.float64)))


def check_temperature(T) -> float:
    """T as a float; a ValueError unless 1 <= T < inf (NaN fails too)."""
    if not 1.0 <= T < math.inf:
        raise ValueError(f"temperature must lie in [1, inf), got {T}")
    return float(T)
