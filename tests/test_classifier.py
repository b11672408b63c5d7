"""Training, the closed-form posterior, the witness, the cross-entropy terms
and excess risk."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from t3._kernels import mean_se
from t3.classifier import (
    PRED_CLAMP,
    LabeledDataset,
    PiecewiseClassifier,
    QuadClassifier,
    TrainingError,
    _objective,
    _train,
    bayes_classifier,
    cross_entropy_terms,
    estimate_excess_risk,
    indicator_classifier,
    quadratic_features,
    train,
    witness_classifier,
    witness_instance,
)
from t3.dist import GaussianComponent, Mixture, UniformComponent, quadrature, quadrature_domain

DEFAULT = Mixture(0.1, GaussianComponent(1.0, 1.0), GaussianComponent(0.0, 1.0))


def _dataset(m, n, seed):
    return LabeledDataset.from_mixture(m, n, np.random.default_rng(seed))


class TestLabeledDataset:
    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError):
            LabeledDataset(z=np.arange(3.0), s=np.array([0, 1, 2]))

    def test_rejects_nonfinite_z(self):
        with pytest.raises(ValueError, match="finite"):
            LabeledDataset(z=np.array([0.0, np.nan, 1.0]), s=np.array([0, 1, 1]))


class TestTrain:
    def test_one_class_degenerate_saturates(self):
        rng = np.random.default_rng(0)
        d = LabeledDataset(z=rng.normal(1, 1, 200), s=np.ones(200, dtype=int))
        clf = train(d, 0.0)
        assert float(clf.predict(d.z).min()) > 1.0 - 1e-6

    def test_large_sample_consistency_against_bayes(self):
        d = _dataset(DEFAULT, 10**5, 7)
        clf = train(d, 1e-4)
        bayes = bayes_classifier(DEFAULT)
        assert float(np.max(np.abs(clf.weights - bayes.weights))) < 0.1

    def test_huge_lambda_shrinks_weights(self):
        d = _dataset(DEFAULT, 2000, 3)
        clf = train(d, 1e6)
        assert float(np.linalg.norm(clf.weights)) <= 1e-3

    def test_deterministic(self):
        d = _dataset(DEFAULT, 500, 11)
        a = train(d, 1e-3)
        b = train(d, 1e-3)
        np.testing.assert_array_equal(a.weights, b.weights)

    def test_monotone_objective(self):
        d = _dataset(DEFAULT, 500, 13)
        _, history = _train(d, 1e-3)
        diffs = np.diff(history)
        assert np.all(diffs <= 1e-14)

    def test_overflowing_features_fail_loudly(self):
        # z^2 overflows to inf, so the gradient is NaN; training must raise
        # instead of returning the zero start
        d = LabeledDataset(z=np.array([1e200, 0.0, 1.0]), s=np.array([1, 0, 1]))
        with np.errstate(all="ignore"), pytest.raises(TrainingError):
            train(d, 1e-3)

    # On data at the mixture's scale, with any labels and admissible lam,
    # training returns finite weights; one overflowing z (z^2 = inf) makes the
    # gradient non-finite, and only then does it raise TrainingError.  Far off
    # that scale the absolute FAIL_GRAD can fail on finite gradients: at
    # |z| ~ 1e3 with lam = 0, separable data run to MAX_ITER and stop at a
    # gradient norm of 3.9e-4 after ~10 s (noted in CHANGES.md).
    @settings(max_examples=100, deadline=None)
    @given(
        z=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=40),
        labels=st.lists(st.integers(0, 1), min_size=41, max_size=41),
        lam=st.one_of(st.just(0.0), st.floats(1e-12, 1e6)),
        overflow=st.one_of(st.none(), st.floats(1.4e154, 1e308), st.floats(-1e308, -1.4e154)),
    )
    # one point, lam = 0: the weights reach ~1e161, so |w|^2 overflows
    @example(z=[1.2208195839870186e-81], labels=[0] * 41, lam=0.0, overflow=None)
    def test_weights_are_finite_or_the_gradient_was_not(self, z, labels, lam, overflow):
        z = z + ([] if overflow is None else [overflow])
        d = LabeledDataset(z=np.array(z), s=np.array(labels[: len(z)]))
        if overflow is None:
            assert np.isfinite(train(d, lam).weights).all()
        else:
            with np.errstate(all="ignore"), pytest.raises(TrainingError, match="norm (nan|inf) "):
                train(d, lam)

    def test_rejects_negative_lambda(self):
        for lam in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match=f"lam must be finite and >= 0, got {lam}"):
                train(_dataset(DEFAULT, 10, 0), lam)


class TestLoss:
    def test_perfect_classifier_near_zero(self):
        clf = QuadClassifier(weights=np.array([0.0, 100.0, 0.0]))
        assert np.mean(cross_entropy_terms(clf, np.array([-2.0, 2.0]), np.array([0, 1]))) <= 1e-11

    def test_constant_half_is_ln2(self):
        rng = np.random.default_rng(1)
        z, s = rng.normal(size=50), (rng.random(50) < 0.3).astype(int)
        clf = QuadClassifier(weights=np.zeros(3))
        np.testing.assert_allclose(np.mean(cross_entropy_terms(clf, z, s)), math.log(2.0), rtol=1e-14)

    def test_matches_hand_rolled_sum(self):
        z = np.array([-1.0, 0.0, 0.5, 1.5, 3.0])
        s = np.array([0, 1, 1, 0, 1])
        w = np.array([0.2, -0.4, 0.1])
        clf = QuadClassifier(weights=w)
        total = 0.0
        for zi, si in zip(z, s):
            p = 1.0 / (1.0 + math.exp(-(w[0] + w[1] * zi + w[2] * zi * zi)))
            total += -si * math.log(p) - (1 - si) * math.log(1 - p)
        np.testing.assert_allclose(np.mean(cross_entropy_terms(clf, z, s)), total / 5.0, rtol=1e-14)
        # the training objective: the same mean plus lam*|w|^2
        np.testing.assert_allclose(
            _objective(w, quadratic_features(z), s, 0.05)[0],
            total / 5.0 + 0.05 * float(w @ w),
            rtol=1e-14,
        )


def _masked_cross_entropy(clf, z, s):
    # the former formula: the two-division sigmoid of the left-to-right logit
    # (or the piecewise values), clamped, then each log taken under a mask
    if isinstance(clf, QuadClassifier):
        w0, w1, w2 = clf.weights
        t = w0 + z * (w1 + z * w2)
        e = np.exp(-np.abs(t))
        p = np.where(t >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))
    else:
        p = clf.predict(z)
    p = np.clip(p, PRED_CLAMP, 1.0 - PRED_CLAMP)
    retain = np.asarray(s) == 1
    out = np.log(p, out=np.empty_like(p), where=retain)
    np.log1p(-p, out=out, where=~retain)
    return np.negative(out, out=out)


class TestCrossEntropyBits:
    @pytest.mark.parametrize(
        "clf",
        [
            QuadClassifier(weights=np.array([0.3, -1.2, 0.8])),
            QuadClassifier(weights=np.array([-5.0, 400.0, -90.0])),  # saturates: the clamp acts
            witness_classifier(0.01, 0.1, (2.0, 3.0), (0.0, 1.0)),
            PiecewiseClassifier((2.0, 3.0), (0.0, 1.0), retain_value=0.7, forget_value=0.0),
        ],
    )
    def test_matches_masked_formula(self, clf):
        rng = np.random.default_rng(8)
        z = rng.uniform(-1.0, 4.0, 4_001)
        s = (rng.random(z.size) < 0.6).astype(np.int64)
        ref = _masked_cross_entropy(clf, z, s)
        np.testing.assert_array_equal(cross_entropy_terms(clf, z, s), ref)
        # bool labels, and the inputs left alone
        z_copy = z.copy()
        np.testing.assert_array_equal(cross_entropy_terms(clf, z, s.astype(bool)), ref)
        np.testing.assert_array_equal(z, z_copy)


class TestGradient:
    def test_matches_central_finite_differences(self):
        rng = np.random.default_rng(2)
        X = quadratic_features(rng.normal(size=200))
        s = (rng.random(200) < 0.8).astype(int)
        h = 1e-5
        for _ in range(20):
            w = rng.normal(size=3)
            _, g, _ = _objective(w, X, s, 1e-3)
            fd = np.array(
                [
                    (_objective(w + h * e, X, s, 1e-3)[0] - _objective(w - h * e, X, s, 1e-3)[0])
                    / (2 * h)
                    for e in np.eye(3)
                ]
            )
            rel = np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-12)
            assert rel <= 1e-5


class TestBayesClassifier:
    def test_default_instance_weights(self):
        bayes = bayes_classifier(DEFAULT)
        np.testing.assert_allclose(
            bayes.weights, [math.log(9.0) - 0.5, 1.0, 0.0], rtol=1e-14, atol=1e-15
        )
        # predict agrees with (1-gamma) p_r / p on a grid
        z = np.linspace(-4, 6, 101)
        direct = 0.9 * np.exp(DEFAULT.retain.log_density(z)) / np.exp(DEFAULT.log_density(z))
        np.testing.assert_allclose(bayes.predict(z), direct, atol=1e-12)

    def test_indistinguishable_components_predict_half(self):
        m = Mixture(0.5, GaussianComponent(0.0, 1.0), GaussianComponent(0.0, 1.0))
        bayes = bayes_classifier(m)
        z = np.linspace(-5, 5, 21)
        np.testing.assert_allclose(bayes.predict(z), 0.5, atol=1e-15)

    def test_bayes_identity_pointwise(self):
        m = Mixture(0.27, GaussianComponent(0.4, 2.0), GaussianComponent(-1.0, 0.3))
        bayes = bayes_classifier(m)
        z = np.linspace(-6, 7, 101)
        np.testing.assert_allclose(
            bayes.predict(z) * np.exp(m.log_density(z)),
            (1 - 0.27) * np.exp(m.retain.log_density(z)),
            atol=1e-12,
        )

    def test_rejects_uniform_components(self):
        m = Mixture(0.1, UniformComponent(2, 3), UniformComponent(0, 1))
        with pytest.raises(TypeError):
            bayes_classifier(m)

    def test_rejects_a_forget_variance_whose_weight_overflows(self):
        # a valid mixture, but w2 = 1 / (2 v_f) = inf
        m = Mixture(0.1, GaussianComponent(1.0, 1.0), GaussianComponent(0.0, 1e-320))
        with pytest.raises(ValueError, match="weights must be finite"):
            bayes_classifier(m)

    @pytest.mark.parametrize(
        "w", [[math.nan, 0.0, 0.0], [0.0, math.inf, 0.0], [0.0, 0.0, -math.inf]]
    )
    def test_classifier_rejects_nonfinite_weights(self, w):
        with pytest.raises(ValueError, match="weights must be finite"):
            QuadClassifier(weights=np.array(w))


class TestWitness:
    def test_epsilon_value(self):
        wit = witness_classifier(0.01, 0.1, (2.0, 3.0), (0.0, 1.0))
        np.testing.assert_allclose(wit.forget_value, 1.0 - math.exp(-0.1), rtol=1e-12)

    def test_epsilon_vanishes_with_delta(self):
        eps = [
            witness_classifier(d, 0.1, (2.0, 3.0), (0.0, 1.0)).forget_value
            for d in (1e-2, 1e-4, 1e-6)
        ]
        assert eps[0] > eps[1] > eps[2]
        assert eps[2] < 2e-5

    def test_mc_excess_risk_matches_delta(self):
        delta = 0.01
        m, wit = witness_instance(0.1, delta)
        d_hat, se = estimate_excess_risk(wit, m, indicator_classifier(m), 10**5, np.random.default_rng(5))
        assert abs(d_hat - delta) <= 3 * se + 1e-3

    def test_rejects_overlapping_supports(self):
        with pytest.raises(ValueError):
            PiecewiseClassifier((0.0, 2.0), (1.0, 3.0))


class TestExcessRisk:
    def test_bayes_vs_itself_is_zero(self):
        bayes = bayes_classifier(DEFAULT)
        d_hat, se = estimate_excess_risk(bayes, DEFAULT, bayes, 10**5, np.random.default_rng(0))
        assert d_hat == 0.0 and se == 0.0

    def test_constant_half_matches_quadrature(self):
        clf = QuadClassifier(weights=np.zeros(3))
        bayes = bayes_classifier(DEFAULT)
        d_hat, se = estimate_excess_risk(clf, DEFAULT, bayes, 2 * 10**5, np.random.default_rng(9))

        # quadrature oracle for E[l(0.5) - l(f*)] under the joint law
        def integrand(z):
            f = bayes.predict(z)
            p = np.exp(DEFAULT.log_density(z))
            l_half = math.log(2.0)
            f = np.clip(f, 1e-300, 1 - 1e-16)
            l_star = -(f * np.log(f) + (1 - f) * np.log1p(-f))
            return p * (l_half - l_star)

        lo, hi, seeds = quadrature_domain(DEFAULT)
        exact = quadrature(integrand, lo, hi, tol=1e-10, breakpoints=seeds)
        assert abs(d_hat - exact) <= 3 * se

    def test_trained_classifier_nonnegative(self):
        d = _dataset(DEFAULT, 300, 21)
        clf = train(d, 1e-3)
        d_hat, se = estimate_excess_risk(clf, DEFAULT, bayes_classifier(DEFAULT), 10**5, np.random.default_rng(3))
        assert d_hat >= -3 * se

    def test_single_draw_has_no_standard_error(self):
        clf = QuadClassifier(weights=np.zeros(3))
        with pytest.raises(ValueError, match="at least 2 draws"):
            estimate_excess_risk(clf, DEFAULT, bayes_classifier(DEFAULT), 1, np.random.default_rng(0))

    def test_a_warm_call_peaks_under_4_2_float_arrays(self):
        # the sample (z and its mask), the first classifier's terms and the
        # second's two in-place arrays: the peak traced allocation stays
        # under 4.2 float64 arrays of n_mc, so no n-sized temporary is added
        n = 100_000
        clf, bayes = QuadClassifier(weights=np.array([0.4, -1.5, 2.0])), bayes_classifier(DEFAULT)
        estimate_excess_risk(clf, DEFAULT, bayes, n, np.random.default_rng(0))
        tracemalloc.start()
        try:
            estimate_excess_risk(clf, DEFAULT, bayes, n, np.random.default_rng(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.2 * 8 * n


class TestLemma1Property:
    def test_l1_error_bounded_by_sqrt_half_delta(self):
        rng = np.random.default_rng(31)
        bayes = bayes_classifier(DEFAULT)
        for seed in range(5):
            d = _dataset(DEFAULT, 150, 100 + seed)
            clf = train(d, 1e-3)
            d_hat, d_se = estimate_excess_risk(clf, DEFAULT, bayes, 10**5, rng)
            z = DEFAULT.sample(rng, 10**5)
            l1, l1_se = mean_se(np.abs(bayes.predict(z) - clf.predict(z)))
            bound = math.sqrt(max(d_hat + 3 * d_se, 0.0) / 2.0)
            assert l1 <= bound + 3 * l1_se
