"""Retain and Forget Error.

Retain Error is the forward KL divergence KL(p_r || p_hat), estimated from
Monte Carlo means of log densities under p_r.  Forget Error is
the p_f-weighted L1 distance E_{p_f} |p_r - p_hat|.  Both are 1-d
integrals, so each also has an exact form by quadrature, which the
bound-soundness rows measure and the tests hold the Monte Carlo estimates
to.  Each form scores every temperature of an estimator's grid at once, on
one shared sample or in one quadrature.  On the disjoint-uniform witness
family both have closed forms, evaluated here by finite algebra.
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
from .estimator import T3Estimator, tilted

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
    """MC estimate of KL(p_r || p_hat) at every temperature of ``e``, in one
    pass over one sample z ~ p_r shared across the grid: _retain_kl of the
    means of c = ln p_r - ln f - ln p and a = ln p, each T's standard error
    from their sample (co)variances.  All in log densities, so peaks cannot
    overflow; ln p_r is shared with ln p, and log_predict floors ln f."""
    if n_mc < 2:
        raise ValueError(f"a standard error needs at least 2 draws, got {n_mc}")
    z = e.mixture.retain.sample(rng, n_mc)
    c = e.mixture.retain.log_density(z)
    a = e.mixture.log_density(z, c)
    c -= e.classifier.log_predict(z)
    c -= a
    c_mean, a_mean = (float(np.add.reduce(x, axis=None) / n_mc) for x in (c, a))
    c -= c_mean
    a -= a_mean
    s_cc, s_ca, s_aa = (float(np.add.reduce(np.multiply(x, y, out=z), axis=None) / (n_mc - 1))
                        for x, y in ((c, c), (c, a), (a, a)))  # ufuncs, no BLAS

    def std_err(beta):  # of the mean of c + beta a; the floor absorbs rounding
        return math.sqrt(max(s_cc + 2.0 * beta * s_ca + beta * beta * s_aa, 0.0)) / math.sqrt(n_mc)

    return [ErrorEstimate(kl, std_err(beta), n_mc) for beta, kl in _retain_kl(e, c_mean, a_mean)]


def _retain_kl(e: T3Estimator, c: float, a: float) -> list[tuple[float, float]]:
    """(beta, KL_T) at each temperature of ``e``: with beta = 1 - 1/T,
    KL(p_r || p_hat_T) = c + beta a + ln Z_T for c = E_{p_r}[ln p_r - ln f - ln p]
    and a = E_{p_r}[ln p], affine in 1/T plus the strictly convex ln Z_T."""
    betas = (1.0 - 1.0 / T for T in e.temperatures)
    return [(beta, c + beta * a + math.log(z)) for beta, z in zip(betas, e.partitions)]


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
    gaps = (np.abs(np.subtract(p_r, tilted(log_p, f, T, Z, out=z), out=z), out=z)
            for T, Z in zip(e.temperatures, e.partitions))
    return [ErrorEstimate(*mean_se(gap), n_mc) for gap in gaps]


def exact_retain_error(e: T3Estimator) -> list[float]:
    """KL(p_r || p_hat) at every temperature of ``e`` by quadrature, with
    ln f floored at ln PRED_CLAMP by log_predict, as in retain_error: the
    _retain_kl assembly with c = -H(p_r) - A - B and a = A, where

        A = int p_r ln p,   B = int p_r max(ln f, ln PRED_CLAMP).

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

    a, b = map(float, quadrature(integrand, lo, hi, breakpoints=pts))
    return [kl for _, kl in _retain_kl(e, -m.retain.entropy() - a - b, a)]


def exact_forget_error(e: T3Estimator) -> list[float]:
    """E_{p_f} |p_r - p_hat| at every temperature of ``e`` by quadrature,
    the whole grid at once: one dist.sign_change_roots scan of the (k, n)
    gap p_r - p_hat_T from e.density finds every row's roots, and p_f |gap|
    is one k-row quadrature over quadrature_domain(m, e.temperatures)
    pre-split at all of them.  The scan and the quadrature also cut at the
    classifier's kinks at logit 0: a steep fit switches on inside the forget
    spike, and the two kinks it makes there can lie closer together than any
    fixed scan step.  A temperature's value moves with the rest of the grid
    by quadrature rounding only."""
    m = e.mixture
    lo, hi, pts = quadrature_domain(m, e.temperatures)
    pts += e.classifier.kinks(0.0)

    def gap(z):
        log_pr = m.retain.log_density(z)
        return np.exp(log_pr) - e.density(z, m.log_density(z, log_pr))

    def integrand(z):
        return np.exp(m.forget.log_density(z)) * np.abs(gap(z))

    pts += sign_change_roots(gap, lo, hi, pts, rtol=FORGET_ROOT_RTOL)
    return quadrature(integrand, lo, hi, breakpoints=pts).tolist()


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
