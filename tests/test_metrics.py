"""Retain and Forget Error estimators against closed forms and quadrature."""

import copy
import math
from dataclasses import replace

import numpy as np
import pytest

from t3.classifier import (
    LOGIT_CLAMP,
    PRED_CLAMP,
    LabeledDataset,
    PiecewiseClassifier,
    QuadClassifier,
    bayes_classifier,
    train,
    witness_classifier,
)
from t3.dist import (
    GaussianComponent,
    Mixture,
    UniformComponent,
    quadrature,
    quadrature_domain,
)
from t3.estimator import T3Estimator, build
from t3.metrics import (
    ErrorEstimate,
    closed_form_errors,
    exact_forget_error,
    exact_retain_error,
    forget_error,
    retain_error,
)
from t3.bounds import thm3_forget_lower_bound

DEFAULT = Mixture(0.1, GaussianComponent(1.0, 1.0), GaussianComponent(0.0, 1.0))
WITNESS_MIX = Mixture(0.1, UniformComponent(2.0, 3.0), UniformComponent(0.0, 1.0))

# the constant-integrand witness cases have zero MC spread; allow fp dust
FP_GUARD = 1e-9


def _log_estimate(est, z):
    """ln p_hat(z) of a one-temperature estimator from its definition, the
    classifier clamped at 1e-12."""
    ((T, partition),) = zip(est.temperatures, est.partitions)
    logf = np.maximum(est.classifier.log_predict(z), math.log(1e-12))
    return est.mixture.log_density(z) / T + logf - math.log(partition)


def test_error_estimate_rejects_negative_se():
    for bad in (-1.0, math.nan):
        with pytest.raises(ValueError):
            ErrorEstimate(value=0.0, std_err=bad, n_mc=10)


@pytest.mark.parametrize("metric", [retain_error, forget_error])
def test_single_draw_has_no_standard_error(metric):
    est = build(DEFAULT, bayes_classifier(DEFAULT), [1.0])
    with pytest.raises(ValueError, match="at least 2 draws"):
        metric(est, 1, np.random.default_rng(0))


@pytest.mark.parametrize("metric", [retain_error, forget_error])
def test_grid_call_equals_one_temperature_calls(metric):
    # one sample scores every T: a k-temperature call is, bit for bit, k
    # one-temperature calls (each with that T's partition) on copies of the
    # same rng state
    clf = QuadClassifier(weights=np.array([0.5, -0.3, 0.2]))
    est = build(DEFAULT, clf, (1.0, 1.3, 2.0, 3.0))
    rng = np.random.default_rng(21)
    one_t = [
        metric(replace(est, temperatures=(T,), partitions=(z_val,)), 2_000, copy.deepcopy(rng))
        for T, z_val in zip(est.temperatures, est.partitions)
    ]
    assert metric(est, 2_000, rng) == [e for (e,) in one_t]


class TestOracleRecovery:
    def test_retain_error_zero(self):
        est = build(DEFAULT, bayes_classifier(DEFAULT), [1.0])
        (r,) = retain_error(est, 10**5, np.random.default_rng(0))
        assert abs(r.value) <= 3 * r.std_err + 1e-6

    def test_forget_error_zero(self):
        est = build(DEFAULT, bayes_classifier(DEFAULT), [1.0])
        (f,) = forget_error(est, 10**5, np.random.default_rng(1))
        assert abs(f.value) <= 3 * f.std_err + 1e-6


class TestWitnessInstance:
    def _setup(self, gamma=0.1, delta=0.01):
        m = Mixture(gamma, UniformComponent(2.0, 3.0), UniformComponent(0.0, 1.0))
        wit = witness_classifier(delta, gamma, (2.0, 3.0), (0.0, 1.0))
        return m, wit

    def test_closed_forms_frozen_values(self):
        m, wit = self._setup()
        ret, fog = closed_form_errors(m, wit)
        # frozen: eps = 1 - e^{-0.1}; forget = 0.1 eps / (0.9 + 0.1 eps)
        np.testing.assert_allclose(fog, 0.0104629885509414, rtol=1e-9)
        np.testing.assert_allclose(ret, math.log(0.909516258196404 / 0.9), rtol=1e-9)

    def test_zero_epsilon_gives_zero_errors(self):
        m, _ = self._setup()
        clf = PiecewiseClassifier((2.0, 3.0), (0.0, 1.0), retain_value=1.0, forget_value=0.0)
        ret, fog = closed_form_errors(m, clf)
        assert ret == 0.0 and fog == 0.0

    def test_mc_matches_closed_forms(self):
        m, wit = self._setup()
        est = build(m, wit, [1.0])
        ret_cf, fog_cf = closed_form_errors(m, wit)
        rng = np.random.default_rng(5)
        (r,) = retain_error(est, 10**5, rng)
        (f,) = forget_error(est, 10**5, rng)
        assert abs(r.value - ret_cf) <= 3 * r.std_err + FP_GUARD
        assert abs(f.value - fog_cf) <= 3 * f.std_err + FP_GUARD

    def test_grid_equality_with_lower_bound_formula(self):
        for gamma in np.linspace(0.05, 0.5, 5):
            for delta in np.logspace(-4, -1, 5):
                m, wit = self._setup(float(gamma), float(delta))
                _, fog = closed_form_errors(m, wit)
                lb = thm3_forget_lower_bound(float(delta), float(gamma), 1.0)
                assert abs(fog - lb) <= 1e-12

    def test_mc_grid_within_noise(self):
        rng = np.random.default_rng(9)
        for gamma in np.linspace(0.05, 0.5, 5):
            for delta in np.logspace(-4, -1, 5):
                m, wit = self._setup(float(gamma), float(delta))
                est = build(m, wit, [1.0])
                _, fog_cf = closed_form_errors(m, wit)
                (f,) = forget_error(est, 20_000, rng)
                assert abs(f.value - fog_cf) <= 3 * f.std_err + FP_GUARD

    def test_rejects_mismatched_supports(self):
        m, _ = self._setup()
        clf = PiecewiseClassifier((5.0, 6.0), (0.0, 1.0), retain_value=1.0, forget_value=0.1)
        with pytest.raises(ValueError):
            closed_form_errors(m, clf)

    def test_rejects_gaussian_mixture(self):
        wit = witness_classifier(0.01, 0.1, (2.0, 3.0), (0.0, 1.0))
        with pytest.raises(TypeError):
            closed_form_errors(DEFAULT, wit)


class TestSwappedComponents:
    def test_forget_posterior_estimator_has_large_retain_error(self):
        # tilt by 1 - f*: the estimate collapses onto p_f
        m = Mixture(0.1, GaussianComponent(1.0, 1.0), GaussianComponent(0.0, 1e-3))
        bayes = bayes_classifier(m)
        anti = QuadClassifier(weights=-bayes.weights)
        est = build(m, anti, [1.0])
        rng = np.random.default_rng(3)
        (r,) = retain_error(est, 10**5, rng)
        assert r.value >= 1.0

        # quadrature oracle for the same clamped KL the metric measures; the
        # 1e-12 classifier clamp kinks the integrand where the quadratic
        # log-odds crosses ln(1e-12), so those roots become breakpoints
        def integrand(z):
            pr = np.exp(m.retain.log_density(z))
            return pr * (m.retain.log_density(z) - _log_estimate(est, z))

        w0, w1, w2 = anti.weights
        clamp_roots = np.roots([w2, w1, w0 - math.log(1e-12)])
        clamp_roots = tuple(float(rt) for rt in clamp_roots if abs(rt.imag) < 1e-12)
        lo, hi, seeds = quadrature_domain(m)
        kl = quadrature(integrand, lo, hi, tol=1e-8, breakpoints=seeds + clamp_roots)
        assert abs(r.value - kl) <= 4 * r.std_err


class TestProperties:
    def test_forget_error_invariant_to_classifier_scale(self):
        m = WITNESS_MIX
        rng_draws = np.random.default_rng(7)
        z_f = m.forget.sample(rng_draws, 50_000)
        values = []
        for scale in (0.1, 1.0, 10.0):
            clf = PiecewiseClassifier(
                (2.0, 3.0), (0.0, 1.0), retain_value=min(1.0, 0.08 * scale), forget_value=0.02 * scale
            )
            est = build(m, clf, [1.0])
            terms = np.abs(np.exp(m.retain.log_density(z_f)) - est.density(z_f)[0])
            values.append(float(np.mean(terms)))
        np.testing.assert_allclose(values[0], values[1], rtol=1e-12)
        np.testing.assert_allclose(values[0], values[2], rtol=1e-12)

    def test_retain_error_matches_quadrature_on_random_instances(self):
        rng = np.random.default_rng(11)
        for i in range(20):
            inst = np.random.default_rng(2000 + i)
            m = Mixture(
                float(inst.uniform(0.05, 0.4)),
                GaussianComponent(float(inst.uniform(0.5, 1.5)), float(inst.uniform(0.5, 2.0))),
                GaussianComponent(float(inst.uniform(-0.5, 0.5)), float(10 ** inst.uniform(-3, 0))),
            )
            clf = QuadClassifier(weights=inst.normal(scale=0.6, size=3) + np.array([1.0, 0, 0]))
            T = float(inst.choice([1.0, 1.5, 2.0]))
            est = build(m, clf, [T])

            def integrand(z):
                pr = np.exp(m.retain.log_density(z))
                return pr * (m.retain.log_density(z) - _log_estimate(est, z))

            lo, hi, seeds = quadrature_domain(m, [T])
            exact = quadrature(integrand, lo, hi, tol=1e-8, breakpoints=seeds)
            (r,) = retain_error(est, 10**5, rng)
            assert abs(r.value - exact) <= 4 * r.std_err

    def test_tempering_bias_only_when_classifier_exact(self):
        # disjoint supports, f = indicator: forget error at T equals the
        # quadrature of the tempered-oracle mismatch under p_f
        m = WITNESS_MIX
        clf = PiecewiseClassifier((2.0, 3.0), (0.0, 1.0), retain_value=1.0, forget_value=0.0)
        for T in (1.0, 2.0):
            est = build(m, clf, [T])

            def integrand(z):
                pf = np.exp(m.forget.log_density(z))
                pr = np.exp(m.retain.log_density(z))
                return pf * np.abs(pr - est.density(z)[0])

            lo, hi, seeds = quadrature_domain(m, [T])
            exact = quadrature(integrand, lo, hi, tol=1e-10, breakpoints=seeds)
            (f,) = forget_error(est, 50_000, np.random.default_rng(13))
            assert abs(f.value - exact) <= 3 * f.std_err + FP_GUARD


def _grid_estimator(m, clf, temperatures):
    """The estimator over ``temperatures`` with each Z from its own one-row
    build, as the bound-soundness rows make it."""
    parts = tuple(build(m, clf, [T]).partitions[0] for T in temperatures)
    return T3Estimator(m, clf, tuple(temperatures), parts)


class TestExactErrors:
    """exact_retain_error and exact_forget_error at their zero and equality
    cases, against independent closed forms, and row by row."""

    @pytest.mark.parametrize("v_f", [1e-6, 1e-4, 1e-2, 1.0])
    def test_bayes_untempered_errors_vanish(self, v_f):
        m = Mixture(0.1, GaussianComponent(1.0, 1.0), GaussianComponent(0.0, v_f))
        est = build(m, bayes_classifier(m), [1.0])
        (retain,), (forget,) = exact_retain_error(est), exact_forget_error(est)
        assert abs(retain) <= 1e-12 and abs(forget) <= 1e-12

    def test_witness_forget_error_is_the_closed_form(self):
        for gamma in np.linspace(0.05, 0.5, 5):
            for delta in np.logspace(-4, -1, 5):
                m = Mixture(float(gamma), UniformComponent(2.0, 3.0), UniformComponent(0.0, 1.0))
                wit = witness_classifier(float(delta), float(gamma), (2.0, 3.0), (0.0, 1.0))
                retain_cf, forget_cf = closed_form_errors(m, wit)
                est = build(m, wit, [1.0])
                (forget,), (retain,) = exact_forget_error(est), exact_retain_error(est)
                assert abs(forget - forget_cf) <= 1e-12 * forget_cf
                assert abs(retain - retain_cf) <= 1e-12

    @pytest.mark.parametrize("metric", [exact_retain_error, exact_forget_error])
    def test_a_temperature_is_the_same_in_any_grid(self, metric):
        m = Mixture(0.1, GaussianComponent(1.0, 1.0), GaussianComponent(0.0, 1e-3))
        clf = QuadClassifier(weights=np.array([2.0, -0.5, 3.0]))
        grid = metric(_grid_estimator(m, clf, (1.0, 1.5, 3.0)))
        assert grid == [metric(_grid_estimator(m, clf, (T,)))[0] for T in (1.0, 1.5, 3.0)]

    def test_forget_error_matches_a_kink_free_quadrature(self):
        # the same integral on a window cut at the kinks found by brute force
        m = Mixture(0.2, GaussianComponent(1.0, 0.5), GaussianComponent(-0.3, 0.05))
        clf = QuadClassifier(weights=np.array([1.0, 2.0, 5.0]))
        for T in (1.0, 2.0):
            est = build(m, clf, [T])
            lo, hi, seeds = quadrature_domain(m, [T])
            z = np.linspace(lo, hi, 2_000_001)
            gap = np.exp(m.retain.log_density(z)) - est.density(z)[0]
            kinks = tuple(z[np.flatnonzero(np.diff(np.sign(gap)))])

            def integrand(x):
                return np.exp(m.forget.log_density(x)) * np.abs(
                    np.exp(m.retain.log_density(x)) - est.density(x)[0])

            expected = quadrature(integrand, lo, hi, tol=1e-12, breakpoints=seeds + kinks)
            np.testing.assert_allclose(exact_forget_error(est), [expected], rtol=1e-9)

    def test_a_saturated_classifier_pays_the_clamp(self):
        # f = sigmoid(-40) ~ 4.2e-18 < PRED_CLAMP everywhere: Z = f, p_hat = p,
        # and the floored ln f makes the retain error KL(p_r || p) + ln(f / c)
        m = Mixture(0.1, GaussianComponent(1.0, 1.0), GaussianComponent(0.0, 1e-2))
        clf = QuadClassifier(weights=np.array([-40.0, 0.0, 0.0]))
        est = build(m, clf, [1.0])
        lo, hi, seeds = quadrature_domain(m)

        def kl_terms(z):
            log_pr = m.retain.log_density(z)
            return np.exp(log_pr) * (log_pr - m.log_density(z))

        kl = quadrature(kl_terms, lo, hi, tol=1e-12, breakpoints=seeds)
        f = 1.0 / (1.0 + math.exp(40.0))
        np.testing.assert_allclose(est.partitions, [f], rtol=1e-9)
        (retain,) = exact_retain_error(est)
        np.testing.assert_allclose(retain, kl + math.log(f / PRED_CLAMP), rtol=1e-9)

    def test_the_clamp_kinks_match_monte_carlo(self):
        # a logit that crosses -LOGIT_CLAMP in the retain bulk: ln f is
        # floored below z = 0.5, and the Monte Carlo estimate, which floors
        # each term, agrees within 4 SE
        m = Mixture(0.1, GaussianComponent(1.0, 1.0), GaussianComponent(0.0, 1e-2))
        clf = QuadClassifier(weights=np.array([-LOGIT_CLAMP - 10.0, 20.0, 0.0]))
        est = _grid_estimator(m, clf, (1.0, 2.0))
        mc = retain_error(est, 10**5, np.random.default_rng(4))
        for exact, r in zip(exact_retain_error(est), mc):
            assert abs(exact - r.value) <= 4 * r.std_err


class TestMonteCarloAgainstExact:
    """The Monte Carlo metrics against the exact errors on random Gaussian
    instances with trained classifiers.  Fixed before the first run: 40
    instances, T in (1, 1.5, 2), 10^5 draws per metric, k = 4 SE, and no
    failing instance; one trial's values share draws, so instances are
    counted, not values."""

    K = 4.0
    INSTANCES = 40
    TEMPERATURES = (1.0, 1.5, 2.0)

    def test_every_instance_within_k_standard_errors(self):
        failing = []
        for i in range(self.INSTANCES):
            rng = np.random.default_rng(7_000 + i)
            m = Mixture(
                float(rng.uniform(0.05, 0.5)),
                GaussianComponent(float(rng.uniform(0.5, 1.5)), float(rng.uniform(0.5, 2.0))),
                GaussianComponent(float(rng.uniform(-0.5, 0.5)), float(10.0 ** rng.uniform(-4, 0))),
            )
            n, lam = int(rng.integers(50, 400)), float(10.0 ** rng.uniform(-6, -1))
            clf = train(LabeledDataset.from_mixture(m, n, rng), lam)
            est = _grid_estimator(m, clf, self.TEMPERATURES)
            z = [(mc.value - exact) / mc.std_err
                 for exact_fn, mc_fn in ((exact_retain_error, retain_error),
                                         (exact_forget_error, forget_error))
                 for exact, mc in zip(exact_fn(est), mc_fn(est, 10**5, rng))]
            if max(map(abs, z)) > self.K:
                failing.append((i, [round(v, 2) for v in z]))
        assert failing == []
