"""The surrogate classification task.

Quadratic-feature logistic regression over the univariate mixture (features
[1, z, z^2]), the closed-form posteriors of Gaussian and uniform mixtures,
the risk-saturating piecewise witness for disjoint uniform supports, the
exact population cross-entropy and L1 distance of quadratic-logit
classifiers, and Monte Carlo excess-risk estimation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from ._kernels import as_array, log_sigmoid, logistic_loss, mean_se, sigmoid, softplus
from .dist import Mixture, UniformComponent, quadrature, quadrature_domain

PRED_CLAMP = 1e-12  # keeps cross-entropy finite for saturated classifiers
LOG_CLAMP = math.log(PRED_CLAMP)  # the floor of every log_predict
LOGIT_CLAMP = math.log((1.0 - PRED_CLAMP) / PRED_CLAMP)  # the logit of 1 - PRED_CLAMP

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
    """n samples (z_i, s_i); s = 1 marks the retain component."""

    z: np.ndarray
    s: np.ndarray

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

    @property
    def n(self) -> int:
        return self.z.size

    @classmethod
    def from_mixture(cls, m: Mixture, n: int, rng: np.random.Generator) -> "LabeledDataset":
        z, s = m.sample_labeled(rng, n)
        return cls(z=z, s=s)


def _logits(w: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The (k, n) logits w0 + z * (w1 + z * w2) of the k weight rows of w at
    the points z, by Horner's rule in one fresh array."""
    t = z * w[:, 2:3]
    t += w[:, 1:2]
    t *= z
    t += w[:, 0:1]
    return t


@dataclass(frozen=True)
class QuadClassifier:
    """sigmoid(w0 + w1*z + w2*z^2)."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.shape != (3,):
            raise ValueError("weights must be a 3-vector over [1, z, z^2]")
        if not np.isfinite(w).all():
            raise ValueError(f"weights must be finite, got {w}")
        object.__setattr__(self, "weights", w)

    def _logit(self, z) -> np.ndarray:
        return _logits(self.weights[None, :], as_array(z))[0]

    def predict(self, z) -> np.ndarray:
        """sigmoid of the logit, written over the logit's own fresh array."""
        t = self._logit(z)
        return sigmoid(t, out=t)

    def log_predict(self, z) -> np.ndarray:
        """ln f floored at LOG_CLAMP, in place."""
        t = log_sigmoid(self._logit(z))
        return np.maximum(t, LOG_CLAMP, out=t)

    def kinks(self, level: float) -> tuple[float, ...]:
        """The real roots of w0 + w1 z + w2 z^2 = level."""
        w0, w1, w2 = self.weights.tolist()  # Python floats: faster scalar arithmetic
        return _quadratic_roots(w2, w1, w0 - level)


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
        """The piecewise values: retain_value on the retain support,
        forget_value on the forget support and 0 elsewhere."""
        z = as_array(z)
        out = np.zeros_like(z)
        rlo, rhi = self.retain_support
        flo, fhi = self.forget_support
        out[(z >= rlo) & (z <= rhi)] = self.retain_value
        out[(z >= flo) & (z <= fhi)] = self.forget_value
        return out

    def log_predict(self, z) -> np.ndarray:
        """ln f floored at LOG_CLAMP (ln PRED_CLAMP)."""
        return np.log(np.maximum(self.predict(z), PRED_CLAMP))

    def kinks(self, level: float) -> tuple[float, ...]:
        """The four support edges, where f jumps, at any level."""
        return (*self.retain_support, *self.forget_support)


Classifier = Union[QuadClassifier, PiecewiseClassifier]


def _objective(w, X, s, lam):
    """Smooth regularized cross-entropy: the mean logistic loss plus
    lam*|w|^2."""
    t = X @ w
    loss = logistic_loss(t, s)
    sig = sigmoid(t)
    # at lam = 0 the penalty is skipped, not 0 * |w|^2: on separable data
    # |w| grows without bound, and |w|^2 can overflow to inf (0 * inf = nan)
    value = float(loss + lam * (w @ w)) if lam else float(loss)
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
    return QuadClassifier(weights=w), history


def train(data: LabeledDataset, lam: float) -> QuadClassifier:
    """Minimize the regularized cross-entropy over quadratic features.

    Damped Newton with Armijo backtracking from a zero start; the objective
    is convex (strongly convex for lam > 0), so the run is deterministic.
    Stops at gradient norm <= GRAD_TOL or after MAX_ITER steps; raises
    :class:`TrainingError` if the gradient is still above FAIL_GRAD there,
    or is not finite (z^2 overflowed).
    """
    if not 0.0 <= lam < math.inf:
        raise ValueError(f"lam must be finite and >= 0, got {lam}")
    clf, _ = _train(data, lam)
    return clf


def cross_entropy_terms(clf: Classifier, z, s) -> np.ndarray:
    """Per-sample cross-entropy -s ln f(z) - (1 - s) ln(1 - f(z)) for 0/1
    labels s, with the prediction clamped to [PRED_CLAMP, 1 - PRED_CLAMP].
    Both logs are taken over the whole array and each sample keeps the one
    its label selects.  The chain runs in place in two arrays of z's size:
    the prediction, which ends up holding the terms, and ln(1 - f)."""
    p = clf.predict(z)
    np.clip(p, PRED_CLAMP, 1.0 - PRED_CLAMP, out=p)
    log_q = np.negative(p)
    np.log1p(log_q, out=log_q)
    np.log(p, out=p)
    np.copyto(log_q, p, where=np.asarray(s, dtype=bool))
    return np.negative(log_q, out=p)


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


def oracle_classifier(m: Mixture) -> Classifier:
    """The exact posterior for the mixture family in hand: closed-form
    quadratic sigmoid for Gaussians, support indicator for uniforms."""
    if m.is_gaussian:
        return bayes_classifier(m)
    if isinstance(m.retain, UniformComponent) and isinstance(m.forget, UniformComponent):
        return indicator_classifier(m)
    raise TypeError("no closed-form posterior for mixed component families")


def witness_classifier(
    delta: float,
    gamma: float,
    retain_support: tuple[float, float],
    forget_support: tuple[float, float],
) -> PiecewiseClassifier:
    """Risk-saturating classifier: 1 on the retain support and
    eps = 1 - exp(-delta/gamma) on the forget support, so that its exact
    excess risk is -gamma * ln(1 - eps) = delta."""
    if not 0.0 < gamma < 1.0:  # NaN fails too
        raise ValueError(f"gamma must lie in (0, 1), got {gamma}")
    if not 0.0 < delta < math.inf:
        raise ValueError(f"delta must lie in (0, inf), got {delta}")
    eps = -math.expm1(-delta / gamma)
    return PiecewiseClassifier(
        retain_support=retain_support,
        forget_support=forget_support,
        retain_value=1.0,
        forget_value=eps,
    )


def witness_instance(gamma: float, delta: float) -> tuple[Mixture, PiecewiseClassifier]:
    """The lower-bound equality instance: the gamma-mixture of U(2, 3)
    (retain) and U(0, 1) (forget), and its witness classifier at excess
    risk delta."""
    m = Mixture(gamma, UniformComponent(2.0, 3.0), UniformComponent(0.0, 1.0))
    return m, witness_classifier(delta, gamma, m.retain.support(), m.forget.support())


def _quadratic_roots(a2: float, a1: float, a0: float) -> tuple[float, ...]:
    """The finite real roots of a2 z^2 + a1 z + a0, without cancellation:
    q = -(a1 + sign(a1) sqrt(a1^2 - 4 a2 a0)) / 2 gives the roots q / a2 and
    a0 / q (Press et al., Numerical Recipes, 3rd ed., 2007, sec. 5.6).  A
    linear or constant polynomial has at most one root, and none is
    returned for a constant one."""
    if a2 == 0.0:
        roots = (-a0 / a1,) if a1 != 0.0 else ()
    else:
        disc = a1 * a1 - 4.0 * a2 * a0
        if disc < 0.0:
            return ()
        q = -0.5 * (a1 + math.copysign(math.sqrt(disc), a1))
        roots = (q / a2, a0 / q) if q != 0.0 else (0.0,)
    return tuple(r for r in roots if math.isfinite(r))


def _weights(classifiers) -> np.ndarray:
    """The (k, 3) weights of k quadratic-logit classifiers."""
    for clf in classifiers:
        if not isinstance(clf, QuadClassifier):
            raise TypeError(f"need quadratic-logit classifiers, got {type(clf).__name__}")
    return np.array([clf.weights for clf in classifiers], dtype=np.float64).reshape(-1, 3)


def population_cross_entropy(m: Mixture, classifiers) -> np.ndarray:
    """The exact population cross-entropy of each quadratic-logit classifier,
    -int [(1-gamma) p_r ln f + gamma p_f ln(1-f)] with f clamped to
    [PRED_CLAMP, 1 - PRED_CLAMP] as in cross_entropy_terms, one value per
    classifier in order.

    The clamp is a clip of the logit t to [-LOGIT_CLAMP, LOGIT_CLAMP], and
    -ln f = softplus(-t), -ln(1-f) = softplus(t).  All k rows integrate as
    one quadrature over quadrature_domain(m), pre-split also at every
    classifier's clamp kinks, the roots of w0 + w1 z + w2 z^2 = +-LOGIT_CLAMP,
    where the integrand bends."""
    w = _weights(classifiers)
    lo, hi, pts = quadrature_domain(m)
    kinks = [r for clf in classifiers for c in (LOGIT_CLAMP, -LOGIT_CLAMP) for r in clf.kinks(c)]
    log_1mg, log_g = math.log1p(-m.gamma), math.log(m.gamma)

    def integrand(z):
        t = _logits(w, z)
        np.clip(t, -LOGIT_CLAMP, LOGIT_CLAMP, out=t)
        p_r = np.exp(m.retain.log_density(z) + log_1mg)
        p_f = np.exp(m.forget.log_density(z) + log_g)
        return p_r * softplus(-t) + p_f * softplus(t)

    return quadrature(integrand, lo, hi, breakpoints=pts + tuple(kinks))


def exact_excess_risk(clf: QuadClassifier, m: Mixture, bayes: QuadClassifier) -> float:
    """L(clf) - L(bayes) from one two-row population_cross_entropy, floored
    at 0 (the population value is nonnegative; the floor takes off
    quadrature error when clf is the posterior itself)."""
    risk, bayes_risk = population_cross_entropy(m, (clf, bayes))
    return max(float(risk - bayes_risk), 0.0)


def population_l1(m: Mixture, clf: QuadClassifier, other: QuadClassifier) -> float:
    """The exact E_p |f(z) - g(z)| of two quadratic-logit classifiers under
    the mixture: one quadrature over quadrature_domain(m), pre-split also at
    the roots of the logit difference, where |f - g| has its kinks."""
    w = _weights((clf, other))
    lo, hi, pts = quadrature_domain(m)
    kinks = QuadClassifier(w[0] - w[1]).kinks(0.0)

    def integrand(z):
        f = sigmoid(_logits(w, z))
        return np.exp(m.log_density(z)) * np.abs(f[0] - f[1])

    return quadrature(integrand, lo, hi, breakpoints=pts + kinks)


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
    terms = cross_entropy_terms(clf, z, s)
    terms -= cross_entropy_terms(bayes, z, s)
    return mean_se(terms)
