"""Built-in property suite behind ``t3 check``: one PASS/FAIL line per
property, no test-runner dependency.  The pytest suite covers the same
ground in more depth; this is the quick self-contained smoke check."""

from __future__ import annotations

import math

import numpy as np

from . import bounds as B
from . import tinylm as tl
from .classifier import (
    LabeledDataset,
    bayes_classifier,
    estimate_excess_risk,
    reg_loss_and_grad,
    train,
    witness_classifier,
)
from .dist import GaussianComponent, Mixture, UniformComponent, integration_window, quadrature, quadrature_seeds
from .estimator import build
from .harness import derive_seed
from .metrics import closed_form_errors, forget_error, retain_error


def _default_mixture(v_f: float = 1e-3) -> Mixture:
    return Mixture(0.1, GaussianComponent(1.0, 1.0), GaussianComponent(0.0, v_f))


def check_tempering_normalizer() -> bool:
    for v in (0.3, 1.0, 2.5):
        g = GaussianComponent(0.2, v)
        for T in (1.0, 1.5, 2.0, 3.0):
            _, c = g.temper(T)
            lo, hi = 0.2 - 12 * math.sqrt(T * v), 0.2 + 12 * math.sqrt(T * v)
            q = quadrature(lambda z: np.exp(g.log_density(z) / T), lo, hi, tol=1e-10)
            if abs(q - c) / c > 1e-8:
                return False
    return True


def check_mixture_normalization() -> bool:
    for v_f in (1e-6, 1e-3, 1.0):
        m = _default_mixture(v_f)
        q = quadrature(
            m.density, *integration_window(m), tol=1e-10, breakpoints=quadrature_seeds(m)
        )
        if abs(q - 1.0) > 1e-8:
            return False
    return True


def check_sampling_moments() -> bool:
    rng = np.random.default_rng(derive_seed(7, 1))
    g = GaussianComponent(1.0, 1.0)
    z = g.sample(rng, 10**6)
    return abs(float(z.mean()) - 1.0) < 4e-3 and abs(float(z.var()) - 1.0) < 6e-3


def check_gradient() -> bool:
    rng = np.random.default_rng(derive_seed(7, 2))
    z = rng.normal(size=100)
    s = (rng.random(100) < 0.8).astype(int)
    h = 1e-5
    for _ in range(5):
        w = rng.normal(size=3)
        _, g = reg_loss_and_grad(w, z, s, 1e-3)
        fd = np.array(
            [
                (reg_loss_and_grad(w + h * e, z, s, 1e-3)[0] - reg_loss_and_grad(w - h * e, z, s, 1e-3)[0])
                / (2 * h)
                for e in np.eye(3)
            ]
        )
        if np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-12) > 1e-5:
            return False
    return True


def check_oracle_recovery() -> bool:
    m = _default_mixture(1.0)
    est = build(m, bayes_classifier(m), 1.0)
    rng = np.random.default_rng(derive_seed(7, 3))
    ret = retain_error(est, m, 100_000, rng)
    fog = forget_error(est, m, 100_000, rng)
    return abs(ret.value) <= 3 * ret.std_err + 1e-6 and abs(fog.value) <= 3 * fog.std_err + 1e-6


def check_witness_equality() -> bool:
    for gamma in (0.05, 0.2, 0.5):
        for delta in (1e-4, 1e-2, 0.1):
            m = Mixture(gamma, UniformComponent(2.0, 3.0), UniformComponent(0.0, 1.0))
            wit = witness_classifier(delta, gamma, (2.0, 3.0), (0.0, 1.0))
            _, fog = closed_form_errors(m, wit)
            lb = B.thm3_forget_lower_bound(delta, gamma, 1.0)
            if abs(fog - lb) > 1e-12:
                return False
    return True


def check_excess_risk_nonneg() -> bool:
    m = _default_mixture(1e-2)
    rng = np.random.default_rng(derive_seed(7, 4))
    data = LabeledDataset.from_mixture(m, 200, rng)
    clf = train(data, 1e-3)
    d, se = estimate_excess_risk(clf, m, bayes_classifier(m), 100_000, rng)
    return d >= -3 * se


def check_bound_soundness_spot() -> bool:
    m = _default_mixture(1e-2)
    rng = np.random.default_rng(derive_seed(7, 5))
    data = LabeledDataset.from_mixture(m, 100, rng)
    clf = train(data, 1e-3)
    d, se = estimate_excess_risk(clf, m, bayes_classifier(m), 100_000, rng)
    d_up = d + 3 * se
    est = build(m, clf, 1.0)
    ret = retain_error(est, m, 100_000, rng)
    fog = forget_error(est, m, 100_000, rng)
    pf = m.forget.peak_density()
    return (
        ret.value <= B.thm1_retain_bound(d_up, 0.1) + 3 * ret.std_err
        and fog.value <= B.thm2_forget_bound(d_up, 0.1, pf) + 3 * fog.std_err
        and est.partition >= B.lemma2_partition_lower_bound(m, d_up, 1.0)
    )


def check_analytic_log_integral() -> bool:
    for v in (1 / (2 * math.pi), 1.0, 4.0):
        for tau in (1.0, 2.0, 3.0):
            g = GaussianComponent(0.0, v)
            lim = 12 * math.sqrt(tau * v)
            q = quadrature(
                lambda z: np.exp(g.log_density(z) / tau) * np.abs(g.log_density(z)),
                -lim,
                lim,
                tol=1e-10,
            )
            a = B.tempered_gaussian_log_integral(v, tau)
            if abs(q - a) / a > 1e-6:
                return False
    return True


def check_tilted_softmax() -> bool:
    corpus = tl.demo_corpus()
    lm = tl.fit_lm(corpus.all_docs(), 2, 1e-3, corpus.vocab)
    zero = tl.HeadClassifier.zero(corpus.vocab, 2, 8)
    for qa in corpus.pairs("retain")[:4]:
        for T in (1.0, 1.7, 2.5):
            w = tl.tilted_next_token(lm, zero, qa.question, T)
            if abs(float(w.sum()) - 1.0) > 1e-12:
                return False
        if not np.array_equal(tl.tilted_next_token(lm, zero, qa.question, 1.0), lm.next_dist(qa.question)):
            return False
    return True


def check_ks_matches_brute_force() -> bool:
    rng = np.random.default_rng(derive_seed(7, 6))
    for _ in range(20):
        a = rng.normal(size=rng.integers(3, 30))
        b = rng.normal(size=rng.integers(3, 30))
        d = tl.ks_statistic(a, b)
        pooled = np.concatenate([a, b])
        brute = max(abs(np.mean(a <= t) - np.mean(b <= t)) for t in pooled)
        if abs(d - brute) > 1e-15:
            return False
    return True


CHECKS = [
    ("tempered Gaussian normalizer matches quadrature", check_tempering_normalizer),
    ("mixture density integrates to one", check_mixture_normalization),
    ("sample moments match analytic values", check_sampling_moments),
    ("loss gradient matches finite differences", check_gradient),
    ("exact posterior at T=1 recovers the retain density", check_oracle_recovery),
    ("witness forget error equals the lower-bound formula", check_witness_equality),
    ("excess risk estimate is nonnegative within noise", check_excess_risk_nonneg),
    ("untempered bounds hold on a trained classifier", check_bound_soundness_spot),
    ("tempered |log density| integral identity", check_analytic_log_integral),
    ("tilted next-token distributions normalize; T=1 identity", check_tilted_softmax),
    ("KS statistic equals brute-force maximum", check_ks_matches_brute_force),
]


def run_checks() -> int:
    """Run every check, print one PASS/FAIL line each and a summary; return
    the process exit code."""
    failures = 0
    for name, fn in CHECKS:
        try:
            ok = fn()
        except Exception as exc:  # a crash is a failure with context
            print(f"FAIL {name}: {exc!r}")
            failures += 1
            continue
        print(f"{'PASS' if ok else 'FAIL'} {name}")
        failures += 0 if ok else 1
    print(f"{len(CHECKS) - failures}/{len(CHECKS)} checks passed")
    return 1 if failures else 0
