"""Retain and Forget Error.

Retain Error is the forward KL divergence KL(p_r || p_hat), estimated as a
Monte Carlo average of log-density differences under p_r.  Forget Error is
the p_f-weighted L1 distance E_{p_f} |p_r - p_hat|.  Each metric scores
every temperature of an estimator's grid on one shared sample.  Both are
1-d integrals, so each also has an exact form by quadrature, which the
bound-soundness rows measure and the tests hold the Monte Carlo estimates
to.  On the disjoint-uniform witness family both have closed forms,
evaluated here by finite algebra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import mean_se
from .classifier import LOGIT_CLAMP, PiecewiseClassifier
from .dist import (
    Mixture,
    UniformComponent,
    quadrature,
    quadrature_domain,
    sign_change_roots,
)
from .estimator import T3Estimator

FORGET_ROOT_RTOL = 1e-9  # relative width at which exact_forget_error's kinks stop


@dataclass(frozen=True)
class ErrorEstimate:
    value: float
    std_err: float
    n_mc: int

    def __post_init__(self):
        if not self.std_err >= 0.0:  # NaN fails too
            raise ValueError(f"std_err must be >= 0, got {self.std_err}")


def retain_error(e: T3Estimator, n_mc: int, rng: np.random.Generator) -> list[ErrorEstimate]:
    """MC estimate of KL(p_r || p_hat) at every temperature of ``e``: the
    mean of ln p_r(z) - ln p_hat(z) over one sample z ~ p_r, shared across
    the grid (common random numbers).  Works in log densities throughout so
    sharp peaks cannot overflow; ln p_r is computed once and shared with
    the mixture density, and log_predict floors ln f at ln PRED_CLAMP,
    keeping every term finite on the retain support.  The terms are formed
    one T at a time in one buffer (the spent sample), so no (T x n_mc) block is held."""
    m = e.mixture
    z = m.retain.sample(rng, n_mc)
    log_pr = m.retain.log_density(z)
    log_p = m.log_density(z, log_pr)
    log_f = e.classifier.log_predict(z)
    terms = z
    estimates = []
    for T, partition in zip(e.temperatures, e.partitions):
        # log_pr - (log_p / T + log_f - ln Z_T), in that operation order
        np.divide(log_p, T, out=terms)
        terms += log_f
        terms -= math.log(partition)
        np.subtract(log_pr, terms, out=terms)
        estimates.append(ErrorEstimate(*mean_se(terms), n_mc))
    return estimates


def forget_error(e: T3Estimator, n_mc: int, rng: np.random.Generator) -> list[ErrorEstimate]:
    """MC estimate of E_{p_f} |p_r(z) - p_hat(z)| at every temperature of
    ``e``, over one sample z ~ p_f shared across the grid, one T at a time
    in one buffer; ln p_r is computed once, for p_r and for ln p."""
    m = e.mixture
    z = m.forget.sample(rng, n_mc)
    p_r = m.retain.log_density(z)
    log_p = m.log_density(z, p_r)
    np.exp(p_r, out=p_r)
    f = e.classifier.predict(z)
    terms = z
    estimates = []
    for T, partition in zip(e.temperatures, e.partitions):
        # |p_r - exp(log_p / T) * f / Z_T|, in that operation order
        np.divide(log_p, T, out=terms)
        np.exp(terms, out=terms)
        terms *= f
        terms /= partition
        np.subtract(p_r, terms, out=terms)
        np.abs(terms, out=terms)
        estimates.append(ErrorEstimate(*mean_se(terms), n_mc))
    return estimates


def exact_retain_error(e: T3Estimator) -> list[float]:
    """KL(p_r || p_hat) at every temperature of ``e`` by quadrature, with
    ln f floored at ln PRED_CLAMP by log_predict, as in retain_error:

        -H(p_r) - A / T - B + ln Z_T,   A = int p_r ln p,
                                        B = int p_r max(ln f, ln PRED_CLAMP).

    A and B do not depend on T: they are one two-row quadrature over
    quadrature_domain(m), so a temperature's value is the same whatever
    else is in the grid.  It is pre-split also where the floor starts, the
    classifier's kinks at logit -LOGIT_CLAMP.  p_r ln p is read as 0 where
    p_r vanishes (off a uniform support ln p may be -inf, and 0 * inf would
    be NaN)."""
    m, clf = e.mixture, e.classifier
    lo, hi, pts = quadrature_domain(m)
    pts += clf.kinks(-LOGIT_CLAMP)

    def integrand(z):
        log_pr = m.retain.log_density(z)
        p_r = np.exp(log_pr)
        log_p = np.where(p_r > 0.0, m.log_density(z, log_pr), 0.0)
        return p_r * np.stack([log_p, clf.log_predict(z)])

    a, b = quadrature(integrand, lo, hi, breakpoints=pts)
    h_r = m.retain.entropy()
    return [float(-h_r - a / T - b + math.log(z)) for T, z in zip(e.temperatures, e.partitions)]


def exact_forget_error(e: T3Estimator) -> list[float]:
    """E_{p_f} |p_r - p_hat| at every temperature of ``e`` by quadrature,
    one temperature at a time: each integrates over quadrature_domain(m, [T])
    pre-split also at its own kinks, the roots of p_r - p_hat_T (those of
    ln p_r - ln p_hat_T) from dist.sign_change_roots, so a temperature's
    value is the same whatever else is in the grid.  The scan and the
    quadrature also cut at the classifier's kinks at logit 0: a steep fit
    switches on inside the forget spike, and the two kinks it makes there
    can lie closer together than any fixed scan step.  p_hat is formed as
    forget_error forms it, from the unclamped prediction."""
    m, clf = e.mixture, e.classifier
    kinks = clf.kinks(0.0)
    values = []
    for T, partition in zip(e.temperatures, e.partitions):

        def gap(z):
            log_pr = m.retain.log_density(z)
            p_hat = np.exp(m.log_density(z, log_pr) / T)
            p_hat *= clf.predict(z)
            p_hat /= partition
            return np.exp(log_pr) - p_hat

        def integrand(z):
            return np.exp(m.forget.log_density(z)) * np.abs(gap(z))

        lo, hi, pts = quadrature_domain(m, [T])
        pts += kinks
        pts += sign_change_roots(gap, lo, hi, pts, rtol=FORGET_ROOT_RTOL)
        values.append(float(quadrature(integrand, lo, hi, breakpoints=pts)))
    return values


def closed_form_errors(m: Mixture, clf: PiecewiseClassifier) -> tuple[float, float]:
    """Exact (retain, forget) errors of the untempered estimator on the
    disjoint-uniform instance with a piecewise-constant classifier.

    With f = a on the retain support and b on the forget support, the
    partition is N = (1-gamma) a + gamma b, so on the forget support
    p_hat = gamma p_f b / N and

        forget error = ||p_f||_inf * gamma b / N,
        retain error = ln N - ln((1-gamma) a)

    (the estimator on the retain support is p_r (1-gamma) a / N).
    """
    if not (isinstance(m.retain, UniformComponent) and isinstance(m.forget, UniformComponent)):
        raise TypeError("closed forms need uniform components")
    if not isinstance(clf, PiecewiseClassifier):
        raise TypeError("closed forms need a piecewise-constant classifier")
    if m.retain.support() != clf.retain_support or m.forget.support() != clf.forget_support:
        raise ValueError("classifier supports must match the mixture components")
    g = m.gamma
    a = clf.retain_value
    b = clf.forget_value
    part = (1.0 - g) * a + g * b
    forget = m.forget.peak_density() * g * b / part
    retain = math.log(part) - math.log((1.0 - g) * a)
    return retain, forget
