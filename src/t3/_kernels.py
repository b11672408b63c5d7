"""The shared numeric formulas, written once.

Every layer above funnels through these: the Gaussian log-density behind
each component and mixture, the overflow-safe sigmoid, softplus and log
sigmoid behind the classifiers and the tinylm head, the logistic loss that
both trainers minimize, the Monte Carlo (mean, standard error) pair that
every estimate reports, and the guard on every temperature.  This module
imports nothing from the package, so any module may use it without a cycle.
Neither it nor t3.metrics reduces with ``@``, np.dot, np.cov or any BLAS
call: OpenBLAS threads on Monte Carlo arrays oversubscribe a sweep's pool.

Importing it also sets the C heap to keep freed Monte Carlo arrays (see
_keep_freed_arrays_in_heap).
"""

from __future__ import annotations

import ctypes
import math

import numpy as np

LOG_2PI = math.log(2.0 * math.pi)
EXP_FLOOR = -700.0  # see _exp_neg_abs

# glibc's mallopt parameters (malloc.h) and the values set at import
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 64 << 20


def _keep_freed_arrays_in_heap() -> bool:
    """Serve allocations below MMAP_THRESHOLD from the heap, and return
    freed heap memory to the system only once TRIM_THRESHOLD of it sits at
    the top.  glibc's defaults map each 800 KB Monte Carlo array afresh or
    trim it on free, so every new array page-faults its memory back in.
    True when both mallopt calls succeed; False, with nothing set, where
    the C library has no mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return (mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1
            and mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD) == 1)


HEAP_KEEPS_FREED_ARRAYS = _keep_freed_arrays_in_heap()


def gauss_logpdf(z, mu, v):
    """ln N(mu, v)(z), elementwise, in one fresh array: (z - mu)^2 / (-2v)
    plus the log normalizer, which is c - (z - mu)^2 / (2v) bit for bit
    (negating a divisor negates the rounded quotient exactly)."""
    out = np.subtract(z, mu)
    np.square(out, out=out)
    out /= -2.0 * v
    out += -0.5 * (LOG_2PI + np.log(v))
    return out


def _exp_neg_abs(t: np.ndarray) -> np.ndarray:
    """e^max(-|t|, EXP_FLOOR) in one fresh array.  The floor keeps np.exp on
    its vector path, which numpy 2.4.6 leaves below about -707.5 (there it
    is 18-115x slower per element on an x86-64 Xeon).  It moves only values
    under e^-700 ~ 9.9e-305, and a NaN still propagates."""
    e = np.abs(t)
    np.negative(e, out=e)
    np.maximum(e, EXP_FLOOR, out=e)
    return np.exp(e, out=e)


def sigmoid(t: np.ndarray, out=None) -> np.ndarray:
    """1 / (1 + e^-t) for a float64 array t, overflow-safe on both tails:
    with e = e^-|t| (floored as in _exp_neg_abs, so t below -700 gives
    e^-700) it is where(t >= 0, 1, e) / (1 + e), one division.  The
    numerator is formed as max(t >= 0, e), exact because 0 <= e <= 1 (and a
    NaN propagates).  The result goes into ``out`` when given, which may be
    ``t`` itself (QuadClassifier.predict overwrites its fresh logit so), and
    into a fresh array otherwise; e takes one array of its own either way."""
    e = _exp_neg_abs(t)
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
