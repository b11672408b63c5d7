"""The surrogate classification task.

Quadratic-feature logistic regression over the univariate mixture (features
[1, z, z^2]), the closed-form posterior classifier for Gaussian mixtures,
the risk-saturating piecewise witness for disjoint uniform supports,
Monte Carlo excess-risk estimation, and the class-imbalance-corrected tilt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from ._kernels import as_array, log_sigmoid, mean_se, sigmoid, softplus
from .dist import Mixture, UniformComponent

PRED_CLAMP = 1e-12  # keeps cross-entropy finite for saturated classifiers

# damped-Newton settings of train()
MAX_ITER = 10_000
GRAD_TOL = 1e-8
FAIL_GRAD = 1e-4  # gradient norm above this at the optimizer stop is an error
ARMIJO_C = 1e-4
BACKTRACK = 0.5
MAX_BACKTRACKS = 80


class TrainingError(RuntimeError):
    """Optimizer stopped while the gradient was still large or not finite."""


def quadratic_features(z) -> np.ndarray:
    """Feature map phi(z) = [1, z, z^2], shape (n, 3)."""
    z = as_array(z)
    return np.column_stack([np.ones_like(z), z, z * z])


@dataclass(frozen=True)
class LabeledDataset:
    """n samples (z_i, s_i); s = 1 marks the retain component.

    ``source_gamma`` is the population forget proportion the data was drawn
    under; ``observed_mu`` is the empirical forget fraction (#{s=0}/n).
    """

    z: np.ndarray
    s: np.ndarray
    source_gamma: float
    observed_mu: float = field(init=False)

    def __post_init__(self):
        z = np.asarray(self.z, dtype=np.float64)
        s = np.asarray(self.s)
        if z.shape != s.shape or z.ndim != 1 or z.size < 1:
            raise ValueError("z and s must be equal-length 1-d arrays, n >= 1")
        if not np.isin(s, (0, 1)).all():
            raise ValueError("labels must be 0/1")
        if not np.isfinite(z).all():
            raise ValueError("z must be finite")
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "s", s.astype(np.int64))
        object.__setattr__(self, "observed_mu", float(np.mean(self.s == 0)))

    @property
    def n(self) -> int:
        return self.z.size

    @classmethod
    def from_mixture(cls, m: Mixture, n: int, rng: np.random.Generator) -> "LabeledDataset":
        z, s = m.sample_labeled(rng, n)
        return cls(z=z, s=s, source_gamma=m.gamma)


@dataclass(frozen=True)
class QuadClassifier:
    """sigmoid(w0 + w1*z + w2*z^2) with an L2 penalty coefficient."""

    weights: np.ndarray
    lam: float = 0.0

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.shape != (3,):
            raise ValueError("weights must be a 3-vector over [1, z, z^2]")
        object.__setattr__(self, "weights", w)

    def _logit(self, z) -> np.ndarray:
        z = as_array(z)
        w0, w1, w2 = self.weights
        return w0 + z * (w1 + z * w2)

    def predict(self, z) -> np.ndarray:
        return sigmoid(self._logit(z))

    def log_predict(self, z) -> np.ndarray:
        return log_sigmoid(self._logit(z))


@dataclass(frozen=True)
class PiecewiseClassifier:
    """Constant on two disjoint intervals, zero elsewhere.

    The lower-bound witness uses retain_value = 1 and forget_value = eps.
    """

    retain_support: tuple[float, float]
    forget_support: tuple[float, float]
    retain_value: float = 1.0
    forget_value: float = 0.0

    def __post_init__(self):
        (rlo, rhi), (flo, fhi) = self.retain_support, self.forget_support
        if not (rlo < rhi and flo < fhi):
            raise ValueError("supports must be nonempty intervals")
        if max(rlo, flo) < min(rhi, fhi):
            raise ValueError("supports must be disjoint")
        if not 0.0 < self.retain_value <= 1.0:
            raise ValueError("retain_value must lie in (0, 1]")
        if not 0.0 <= self.forget_value < 1.0:
            raise ValueError("forget_value must lie in [0, 1)")

    def predict(self, z) -> np.ndarray:
        z = as_array(z)
        out = np.zeros_like(z)
        rlo, rhi = self.retain_support
        flo, fhi = self.forget_support
        out[(z >= rlo) & (z <= rhi)] = self.retain_value
        out[(z >= flo) & (z <= fhi)] = self.forget_value
        return out

    def log_predict(self, z) -> np.ndarray:
        return np.log(np.maximum(self.predict(z), PRED_CLAMP))


Classifier = Union[QuadClassifier, PiecewiseClassifier]


def _objective(w, X, s, lam):
    """Smooth regularized cross-entropy: mean softplus(t) - s*t + lam*|w|^2."""
    t = X @ w
    value = float(np.mean(softplus(t) - s * t) + lam * (w @ w))
    sig = sigmoid(t)
    grad = X.T @ (sig - s) / t.size + 2.0 * lam * w
    return value, grad, sig


def _train(data: LabeledDataset, lam: float):
    X = quadratic_features(data.z)
    s = data.s.astype(np.float64)
    w = np.zeros(3)
    value, grad, sig = _objective(w, X, s, lam)
    history = [value]

    for _ in range(MAX_ITER):
        gnorm = float(np.linalg.norm(grad))
        if gnorm <= GRAD_TOL:
            break
        # damped Newton step; the 3x3 Hessian is cheap and exact
        wdiag = sig * (1.0 - sig)
        H = (X.T * wdiag) @ X / data.n + 2.0 * lam * np.eye(3)
        direction = None
        ridge = 0.0
        for _attempt in range(8):
            try:
                step = np.linalg.solve(H + ridge * np.eye(3), grad)
            except np.linalg.LinAlgError:
                step = None
            if step is not None and np.all(np.isfinite(step)) and grad @ step > 0.0:
                direction = -step
                break
            ridge = max(ridge * 10.0, 1e-10 * max(1.0, float(np.trace(H))))
        if direction is None:
            direction = -grad

        slope = float(grad @ direction)
        t = 1.0
        accepted = False
        for _bt in range(MAX_BACKTRACKS):
            w_new = w + t * direction
            v_new, g_new, sig_new = _objective(w_new, X, s, lam)
            if v_new <= value + ARMIJO_C * t * slope:
                accepted = True
                break
            t *= BACKTRACK
        if not accepted:
            break  # no descent at the smallest step: numerically stationary
        w, value, grad, sig = w_new, v_new, g_new, sig_new
        history.append(value)

    gnorm = float(np.linalg.norm(grad))
    if not gnorm <= FAIL_GRAD:  # a NaN gradient fails too
        raise TrainingError(
            f"gradient norm {gnorm:.3e} > {FAIL_GRAD:.0e} after optimizer stop"
        )
    return QuadClassifier(weights=w, lam=lam), history


def train(data: LabeledDataset, lam: float) -> QuadClassifier:
    """Minimize the regularized cross-entropy over quadratic features.

    Damped Newton with Armijo backtracking from a zero start; the objective
    is convex (strongly convex for lam > 0), so the run is deterministic.
    Stops at gradient norm <= GRAD_TOL or after MAX_ITER steps; raises
    :class:`TrainingError` if the gradient is still above FAIL_GRAD there,
    or is not finite (z^2 overflowed).
    """
    if lam < 0.0:
        raise ValueError("lam must be >= 0")
    clf, _ = _train(data, lam)
    return clf


def cross_entropy_terms(clf: Classifier, z, s) -> np.ndarray:
    """Per-sample cross-entropy -s ln f(z) - (1 - s) ln(1 - f(z)), with the
    prediction clamped to [PRED_CLAMP, 1 - PRED_CLAMP]."""
    p = np.clip(clf.predict(z), PRED_CLAMP, 1.0 - PRED_CLAMP)
    s = np.asarray(s, dtype=np.float64)
    return -s * np.log(p) - (1.0 - s) * np.log1p(-p)


def bayes_classifier(m: Mixture) -> QuadClassifier:
    """Exact posterior P(s=1 | z) = (1-gamma) p_r(z) / p(z) for a Gaussian
    mixture, written as a sigmoid of a quadratic in z."""
    if not m.is_gaussian:
        raise TypeError("bayes_classifier needs Gaussian components")
    g = m.gamma
    mr, vr = m.retain.mean, m.retain.variance
    mf, vf = m.forget.mean, m.forget.variance
    w2 = 1.0 / (2.0 * vf) - 1.0 / (2.0 * vr)
    w1 = mr / vr - mf / vf
    w0 = (
        math.log((1.0 - g) / g)
        + 0.5 * math.log(vf / vr)
        + mf * mf / (2.0 * vf)
        - mr * mr / (2.0 * vr)
    )
    return QuadClassifier(weights=np.array([w0, w1, w2]))


def indicator_classifier(m: Mixture) -> PiecewiseClassifier:
    """Bayes posterior for disjoint uniform supports: 1 on the retain
    support, 0 on the forget support."""
    if not (isinstance(m.retain, UniformComponent) and isinstance(m.forget, UniformComponent)):
        raise TypeError("indicator_classifier needs uniform components")
    return PiecewiseClassifier(
        retain_support=m.retain.support(),
        forget_support=m.forget.support(),
        retain_value=1.0,
        forget_value=0.0,
    )


def witness_classifier(
    delta: float,
    gamma: float,
    retain_support: tuple[float, float],
    forget_support: tuple[float, float],
) -> PiecewiseClassifier:
    """Risk-saturating classifier: 1 on the retain support and
    eps = 1 - exp(-delta/gamma) on the forget support, so that its exact
    excess risk is -gamma * ln(1 - eps) = delta."""
    if delta <= 0.0:
        raise ValueError("delta must be > 0")
    eps = -math.expm1(-delta / gamma)
    return PiecewiseClassifier(
        retain_support=retain_support,
        forget_support=forget_support,
        retain_value=1.0,
        forget_value=eps,
    )


def estimate_excess_risk(
    clf: Classifier,
    m: Mixture,
    bayes: Classifier,
    n_mc: int,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Monte Carlo estimate of L(clf) - L(bayes) with jointly sampled (z, s).

    Returns (delta_hat, std_err).  The population value is nonnegative, so
    delta_hat should not fall below -3 std_err up to MC noise.
    """
    z, s = m.sample_labeled(rng, n_mc)
    return mean_se(cross_entropy_terms(clf, z, s) - cross_entropy_terms(bayes, z, s))


def imbalance_corrected_tilt(clf_mu: Classifier, mu: float, gamma: float, z) -> np.ndarray:
    """Tilt factor restoring consistency when the training data carried
    forget fraction mu instead of the population gamma:

        tilt(z) = mu * f(z) / ((mu - gamma) * f(z) + gamma * (1 - mu))

    Multiplying p(z) by this recovers p_r up to normalization when f is the
    mu-mixture posterior; at mu == gamma it is proportional to f itself.
    """
    if not (0.0 < mu < 1.0 and 0.0 < gamma < 1.0):
        raise ValueError("mu and gamma must lie in (0, 1)")
    f = clf_mu.predict(z)
    denom = (mu - gamma) * f + gamma * (1.0 - mu)
    if np.any(denom <= 0.0):
        raise ValueError("tilt denominator <= 0: classifier output escaped [0, 1]")
    return mu * f / denom
