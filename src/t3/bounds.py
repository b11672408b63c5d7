"""Numeric evaluators for every stated bound, and soundness bookkeeping.

Each evaluator takes the instance parameters it needs (gamma, delta, T, the
peak forget density, the analytic retain entropy) and returns the bound's
right-hand side as a float.  The two tempered bounds involve an existential
intermediate temperature tau in [1, T], so each is a sup over tau.  For the
tempered retain bound (thm5) that sup is exact: its bracket is convex in
1/tau, so the max lies at tau = 1 or tau = T and both are evaluated.  The
tempered forget bound (thm4) has no such proof; it returns the maximum over
a 25-point tau grid, which is the sup only where the grid attains it.

All integrals run through the adaptive Gauss-Kronrod oracle over
``dist.quadrature_domain(m, temperatures)``, and the taus of one bound
integrate as one vector-valued quadrature with a row per tau.  The
temperatures each integral passes:

- thm4's tau-tempered oracle partitions and three tau-moments: [T], whose
  window and breakpoints every tau in [1, T] shares, in one quadrature;
- thm4's auxiliary integrals of p^c, one row per k of its k grid (every
  k > T and k >= 2, so c = (k-T)/(T(k-1)) > 0): [max(1/c, 1) for each c],
  the temperatures at which each p^c is a tempered density, in one
  quadrature; the bound takes the minimum of its third term over the grid;
- thm5's two numerators: (1, T), pre-split also at the |ln p| kinks, the
  roots of ln p from ``dist.sign_change_roots``: sign brackets of ln p,
  each refined by interpolation to relative width 1e-14 in about 5 steps
  (at most dist.ROOT_MAX_STEPS).

The measurements the bounds are checked against (``harness``) are exact
too: delta, lemma 1's L1 and both errors come from quadrature, so every
soundness row has a standard error of 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._kernels import check_temperature
from .classifier import oracle_classifier
from .dist import Mixture, quadrature, quadrature_domain, sign_change_roots

DEFAULT_TAU_POINTS = 25
K_OVER_T = (1.02, 1.05, 1.1, 1.2, 1.35, 1.5, 2.0, 3.0, 5.0, 10.0)  # thm4's k grid, over T


@dataclass(frozen=True)
class BoundReport:
    """One soundness comparison.

    The claim is always read as ``measured_value <= bound_value +
    3 * measured_std_err``.  Upper bounds store the measured error on the
    left and the bound on the right; lower bounds (the forget-error lower
    bound, the partition lower bound) swap the roles so the same inequality
    expresses their claim.  A relative 1e-12 slack absorbs the rounding and
    quadrature noise of exact measurements (standard error 0), which on the
    witness equality instances sit on the bound itself.
    """

    bound_name: str
    inputs: dict
    bound_value: float
    measured_value: float
    measured_std_err: float
    sound: bool = field(init=False)

    def __post_init__(self):
        slack = 3.0 * self.measured_std_err + 1e-12 * max(1.0, abs(self.bound_value))
        object.__setattr__(
            self, "sound", bool(self.measured_value <= self.bound_value + slack)
        )


def _check_gamma(gamma: float) -> None:
    if not 0.0 < gamma < 1.0 - 1e-12:
        raise ValueError(f"gamma must lie in (0, 1 - 1e-12), got {gamma}")


def _check_delta(delta: float, zero_ok: bool = True) -> None:
    if not (0.0 <= delta < math.inf and (zero_ok or delta > 0.0)):
        raise ValueError(f"delta must be finite and {'>=' if zero_ok else '>'} 0, got {delta}")


def _check_positive(name: str, value: float) -> None:
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be finite and > 0, got {value}")


def thm1_retain_bound(delta: float, gamma: float) -> float:
    """Retain Error of the untempered estimator: delta / (1 - gamma)."""
    _check_gamma(gamma)
    _check_delta(delta)
    return delta / (1.0 - gamma)


def thm2_forget_bound(delta: float, gamma: float, pf_inf: float) -> float:
    """Forget Error of the untempered estimator:
    ||p_f||_inf * sqrt(2 delta / (1 - gamma))."""
    _check_gamma(gamma)
    _check_delta(delta)
    _check_positive("pf_inf", pf_inf)
    return pf_inf * math.sqrt(2.0 * delta / (1.0 - gamma))


def thm3_forget_lower_bound(delta: float, gamma: float, pf_inf: float) -> float:
    """Worst-case Forget Error at excess risk delta:
    ||p_f||_inf * gamma (1 - e^(-delta/gamma)) / (1 - gamma e^(-delta/gamma)).

    This is exactly the forget error of the saturating witness classifier,
    so the closed-form witness measurement attains it with equality.
    """
    _check_gamma(gamma)
    _check_delta(delta, zero_ok=False)
    _check_positive("pf_inf", pf_inf)
    edg = math.exp(-delta / gamma)
    return pf_inf * gamma * (1.0 - edg) / (1.0 - gamma * edg)


def lemma1_l1_bound(delta: float) -> float:
    """E_p |f_star - f_hat| <= sqrt(delta / 2)."""
    _check_delta(delta)
    return math.sqrt(delta / 2.0)


def lemma2_partition_lower_bound(m: Mixture, delta: float, T: float) -> float:
    """Lower bound on the partition Z = integral of p^(1/T) f_hat:

        (1-gamma)^((T+1)/T) * exp(((T-1)/T) H(p_r) - (delta - g ln g)/(1-g))
    """
    check_temperature(T)
    _check_delta(delta)
    g = m.gamma
    h_r = m.retain.entropy()
    return (1.0 - g) ** ((T + 1.0) / T) * math.exp(
        (T - 1.0) / T * h_r - (delta - g * math.log(g)) / (1.0 - g)
    )


def default_tau_grid(T: float) -> np.ndarray:
    return np.linspace(1.0, T, DEFAULT_TAU_POINTS) if T > 1.0 else np.array([1.0])


def _tempering_bias(m: Mixture, T: float, taus) -> np.ndarray:
    """(1 - 1/T) * ||p_f||_{2, p_r^(tau)} * Std_{p_r^(tau)}[ln p] at every tau
    of ``taus`` (all in [1, T]).

    One quadrature over the domain of [T], which every tau shares, gives
    the tau-tempered oracle's partition and its three unnormalised
    moments: with w = p^(1/tau) f* (one row per tau, f* the oracle
    classifier), the blocks of rows [w, w p_f^2, w ln p, w ln^2 p].  Each
    moment is its block divided by the first.  ln p is read as 0 where w
    vanishes (off uniform supports ln p = -inf, and 0 * inf would be NaN)."""
    taus = np.asarray(taus, dtype=np.float64)
    if T == 1.0:
        return np.zeros(taus.size)
    oracle = oracle_classifier(m)
    lo, hi, seeds = quadrature_domain(m, [T])

    def integrand(z):
        lp = m.log_density(z)
        w = np.exp(lp / taus[:, None]) * oracle.predict(z)
        lp = np.where(w > 0.0, lp, 0.0)
        w_lp = w * lp
        return np.concatenate([w, w * np.exp(2.0 * m.forget.log_density(z)), w_lp, w_lp * lp])

    part, pf2, m1, m2 = quadrature(integrand, lo, hi, breakpoints=seeds).reshape(4, taus.size)
    pf2, m1, m2 = pf2 / part, m1 / part, m2 / part
    var = np.maximum(m2 - m1 * m1, 0.0)
    return (1.0 - 1.0 / T) * np.sqrt(np.maximum(pf2, 0.0)) * np.sqrt(var)


def _power_integrals(m: Mixture, cs) -> np.ndarray:
    """integral of p^c for every c > 0 of the array ``cs``, one row per c,
    over the domain of [max(1/c, 1) for c in cs]: the smallest c's window."""
    lo, hi, seeds = quadrature_domain(m, [max(1.0 / c, 1.0) for c in cs])
    return quadrature(lambda z: np.exp(cs[:, None] * m.log_density(z)), lo, hi, breakpoints=seeds)


def thm4_forget_bound(m: Mixture, delta: float, T: float) -> float:
    """Forget Error bound for the T-tempered estimator:

        max_tau (1 - 1/T) ||p_f||_{2,p_r^(tau)} Std_{p_r^(tau)}[ln p]
        + ||p_f||_inf^(1/T) (delta/2)^(1/(2T)) / A(T, gamma)
        + min_k ||p_f||_inf^(1/T) (int p^((k-T)/(T(k-1))))^((k-1)/k)
              * (delta/2)^(1/(2k)) / (A(T, gamma)^2 exp(-delta/(1-gamma)))

    with A(T, gamma) the lemma 2 partition lower bound at delta = 0.  The
    third term is a bound at every k > T with k >= 2, so its minimum over
    k = max(T * K_OVER_T, 2) is one too.  Each such k has exponent
    c = (k-T)/(T(k-1)) > 0, so its integral of p^c is finite, whatever the
    window.  k in (T, 2) for T < 2 is left out: that needs the paper's
    exact condition on k, which its abstract does not state.
    """
    check_temperature(T)
    _check_delta(delta)
    ks = np.maximum(T * np.asarray(K_OVER_T), 2.0)

    bias = float(np.max(_tempering_bias(m, T, default_tau_grid(T))))

    g = m.gamma
    pf_inf = m.forget.peak_density()
    a_coef = lemma2_partition_lower_bound(m, 0.0, T)
    half_delta = delta / 2.0
    term2 = pf_inf ** (1.0 / T) * half_delta ** (1.0 / (2.0 * T)) / a_coef

    power_ints = _power_integrals(m, (ks - T) / (T * (ks - 1.0)))
    term3 = (
        pf_inf ** (1.0 / T)
        * np.min(power_ints ** ((ks - 1.0) / ks) * half_delta ** (1.0 / (2.0 * ks)))
        / (a_coef ** 2 * math.exp(-delta / (1.0 - g)))
    )
    return bias + term2 + float(term3)


def thm5_retain_bound(m: Mixture, delta: float, T: float) -> float:
    """Retain Error bound for the T-tempered estimator:

        delta/(1-gamma) + (1 - 1/T) * max_{tau in [1, T]} [
            (int p^(1/tau) |ln p|) / lemma2(m, delta, tau) - H(p_r) ]

    The bias coefficient vanishes at T = 1, reproducing the untempered bound.

    The max over [1, T] is attained at tau = 1 or tau = T, so only those two
    are evaluated.  Proof: put beta = 1/tau in [1/T, 1].  The numerator
    N(beta) = int e^(beta ln p) |ln p| is log-convex in beta, by Holder:
    N(s b1 + (1-s) b2) <= N(b1)^s N(b2)^(1-s) for s in [0, 1].  The
    denominator is (1-gamma)^(1+beta) exp((1-beta) H(p_r) - const), so its
    log is affine in beta.  Hence N / lemma2 = exp(convex - affine) is convex
    in beta, the bracket is convex too, and a convex function on an interval
    is maximal at an endpoint.

    Both numerators are one two-row quadrature over the domain of (1, T),
    pre-split also at the |ln p| kinks.  |ln p| is read as 0 where p
    vanishes (off uniform supports ln p = -inf, and 0 * inf would be NaN).
    """
    check_temperature(T)
    base = thm1_retain_bound(delta, m.gamma)
    if T == 1.0:
        return base

    taus = np.array([1.0, T])
    lo, hi, seeds = quadrature_domain(m, taus)
    seeds += sign_change_roots(m.log_density, lo, hi, seeds)

    def integrand(z):
        lp = m.log_density(z)
        return np.exp(lp / taus[:, None]) * np.abs(np.where(np.isneginf(lp), 0.0, lp))

    num = quadrature(integrand, lo, hi, breakpoints=seeds)
    denom = np.array([lemma2_partition_lower_bound(m, delta, tau) for tau in taus])
    worst = float(np.max(num / denom - m.retain.entropy()))
    return base + (1.0 - 1.0 / T) * worst


def prop1_risk_bound(
    n: int, phi_star_norm: float, expected_feature_sq_norm: float
) -> tuple[float, float]:
    """Tuned regularization and the resulting expected excess-risk bound for
    regularized logistic regression on n i.i.d. samples:

        lambda_star = (1/|phi*|) sqrt(2 E|phi(z)|^2 / n)
        bound       = 2 |phi*| sqrt(2 E|phi(z)|^2 / n)
    """
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    _check_positive("phi_star_norm", phi_star_norm)
    _check_positive("expected_feature_sq_norm", expected_feature_sq_norm)
    root = math.sqrt(2.0 * expected_feature_sq_norm / n)
    return root / phi_star_norm, 2.0 * phi_star_norm * root


def tempered_gaussian_log_integral(v: float, tau: float) -> float:
    """Analytic value of the integral of N(0, v)^(1/tau) |ln N(0, v)|:

        (2 pi v)^((tau-1)/(2 tau)) * sqrt(tau) * (tau/2 + ln(2 pi v)/2)

    valid for v >= 1/(2 pi), the regime where ln N(0, v) <= 0 everywhere.
    The sqrt(tau) factor is the same one that appears in the tempered
    normalizer (N^(1/tau) = (2 pi v)^((tau-1)/(2 tau)) sqrt(tau) N(0, tau v));
    quadrature confirms it across the whole (v, tau) grid.
    """
    if not 1.0 / (2.0 * math.pi) <= v < math.inf:
        raise ValueError(
            f"v must be finite and >= 1/(2 pi) so the log-density is nonpositive, got {v}"
        )
    check_temperature(tau)
    tp = 2.0 * math.pi * v
    return tp ** ((tau - 1.0) / (2.0 * tau)) * math.sqrt(tau) * (tau / 2.0 + 0.5 * math.log(tp))
