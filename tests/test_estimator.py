"""Partition estimation, pointwise density, and the tempered oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from t3.classifier import QuadClassifier, bayes_classifier, train, witness_classifier, LabeledDataset
from t3.dist import (
    GaussianComponent,
    Mixture,
    UniformComponent,
    integration_window,
    quadrature,
    quadrature_seeds,
)
from t3.estimator import build, partitions, tempered_oracle
from t3 import bounds as B
from t3 import tinylm as tl
from t3.bounds import lemma2_partition_lower_bound
from t3.classifier import estimate_excess_risk

DEFAULT = Mixture(0.1, GaussianComponent(1.0, 1.0), GaussianComponent(0.0, 1.0))
NEAR_ONE = QuadClassifier(weights=np.array([40.0, 0.0, 0.0]))  # sigmoid(40) ~ 1 - 4e-18


class TestBuild:
    def test_bayes_partition_is_one_minus_gamma(self):
        est = build(DEFAULT, bayes_classifier(DEFAULT), 1.0)
        np.testing.assert_allclose(est.partition, 0.9, atol=1e-8)

    def test_constant_classifier_partition_is_tempered_mass(self):
        est = build(DEFAULT, NEAR_ONE, 2.0)
        lo, hi = integration_window(DEFAULT, 2.0)
        expected = quadrature(
            lambda z: np.exp(DEFAULT.log_density(z) / 2.0),
            lo,
            hi,
            tol=1e-10,
            breakpoints=quadrature_seeds(DEFAULT, 2.0),
        )
        np.testing.assert_allclose(est.partition, expected, rtol=1e-8)

    def test_rejects_t_below_one(self):
        with pytest.raises(ValueError):
            build(DEFAULT, NEAR_ONE, 0.99)


class TestPartitions:
    @pytest.mark.parametrize("T", [1.0, 1.37, 2.0, 3.0])
    def test_one_temperature_is_the_scalar_quadrature_bit_for_bit(self, T):
        clf = QuadClassifier(weights=np.array([0.5, -0.3, 0.2]))
        spike = Mixture(0.1, GaussianComponent(1.0, 1.0), GaussianComponent(0.0, 1e-6))
        wit = witness_classifier(0.01, 0.1, (2.0, 3.0), (0.0, 1.0))
        witness = Mixture(0.1, UniformComponent(2.0, 3.0), UniformComponent(0.0, 1.0))
        for m, c in ((DEFAULT, clf), (spike, clf), (witness, wit)):
            scalar = quadrature(
                lambda z: np.exp(m.log_density(z) / T) * c.predict(z),
                *integration_window(m, T),
                breakpoints=quadrature_seeds(m, T),
            )
            (z_val,) = partitions(m, c, [T])
            assert z_val == scalar == build(m, c, T).partition

    # The reference is build at a tighter tolerance: at the default 1e-10,
    # a scalar build misses its own tolerance on ~1% of such draws (by up to
    # 2e-9), which would measure build's error rather than the grid's.
    @settings(max_examples=40, deadline=None)
    @given(
        gamma=st.floats(0.05, 0.5),
        means=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
        log_variances=st.tuples(st.floats(-1.0, 0.5), st.floats(-6.0, 0.0)),
        weights=st.tuples(*[st.floats(-1.0, 1.0)] * 3),
        temperatures=st.lists(st.floats(1.0, 3.0), min_size=1, max_size=6),
    )
    def test_every_row_matches_build(self, gamma, means, log_variances, weights, temperatures):
        m = Mixture(
            gamma,
            GaussianComponent(means[0], 10.0 ** log_variances[0]),
            GaussianComponent(means[1], 10.0 ** log_variances[1]),
        )
        clf = QuadClassifier(weights=np.array(weights))
        z_vals = partitions(m, clf, temperatures)
        assert z_vals.shape == (len(temperatures),) and np.all(z_vals > 0.0)
        ref = [build(m, clf, T, tol=1e-13).partition for T in temperatures]
        np.testing.assert_allclose(z_vals, ref, rtol=1e-9, atol=0.0)


class TestDensity:
    def test_bayes_t1_recovers_retain_density(self):
        est = build(DEFAULT, bayes_classifier(DEFAULT), 1.0)
        z = np.linspace(-4.0, 6.0, 101)
        np.testing.assert_allclose(
            est.density(z), np.exp(DEFAULT.retain.log_density(z)), atol=1e-8
        )

    def test_zero_classifier_region_gives_zero(self):
        m = Mixture(0.1, UniformComponent(2.0, 3.0), UniformComponent(0.0, 1.0))
        wit = witness_classifier(1e-9, 0.1, (2.0, 3.0), (0.0, 1.0))
        est = build(m, wit, 1.0)
        assert est.density(np.array([0.5]))[0] < 1e-8

    def test_witness_forget_support_closed_form(self):
        gamma, delta = 0.1, 0.01
        m = Mixture(gamma, UniformComponent(2.0, 3.0), UniformComponent(0.0, 1.0))
        wit = witness_classifier(delta, gamma, (2.0, 3.0), (0.0, 1.0))
        est = build(m, wit, 1.0)
        eps = wit.forget_value
        expected = gamma * 1.0 * eps / ((1 - gamma) + gamma * eps)
        z = np.array([0.1, 0.5, 0.9])
        np.testing.assert_allclose(est.density(z), expected, atol=1e-12)

    def test_normalization_across_t_and_classifiers(self):
        rng = np.random.default_rng(2)
        for T in (1.0, 1.7, 2.5):
            clf = QuadClassifier(weights=rng.normal(scale=0.5, size=3))
            est = build(DEFAULT, clf, T)
            lo, hi = integration_window(DEFAULT, T)
            q = quadrature(
                lambda z: est.density(z), lo, hi, tol=1e-9, breakpoints=quadrature_seeds(DEFAULT, T)
            )
            np.testing.assert_allclose(q, 1.0, atol=1e-6)

    def test_tilt_ratio_partition_free(self):
        clf = QuadClassifier(weights=np.array([0.5, -0.3, 0.2]))
        T = 1.8
        est = build(DEFAULT, clf, T)
        z1, z2 = np.array([0.3]), np.array([1.9])
        lhs = est.density(z1) / est.density(z2)
        rhs = (
            np.exp(DEFAULT.log_density(z1) / T) * clf.predict(z1)
        ) / (np.exp(DEFAULT.log_density(z2) / T) * clf.predict(z2))
        np.testing.assert_allclose(lhs, rhs, rtol=1e-10)


class TestTemperedOracle:
    def test_tau_one_is_retain_density(self):
        est = tempered_oracle(DEFAULT, 1.0)
        z = np.linspace(-4, 6, 101)
        np.testing.assert_allclose(est.density(z), np.exp(DEFAULT.retain.log_density(z)), atol=1e-8)

    @pytest.mark.parametrize("tau", [1.0, 1.5, 2.0, 3.0])
    def test_normalized(self, tau):
        est = tempered_oracle(DEFAULT, tau)
        lo, hi = integration_window(DEFAULT, tau)
        q = quadrature(
            lambda z: est.density(z), lo, hi, tol=1e-9, breakpoints=quadrature_seeds(DEFAULT, tau)
        )
        np.testing.assert_allclose(q, 1.0, atol=1e-6)

    def test_log_density_expectation_matches_importance_sampling(self):
        # E_{p_r^(2)}[ln p] by quadrature vs self-normalized IS from the mixture
        tau = 2.0
        est = tempered_oracle(DEFAULT, tau)
        lo, hi = integration_window(DEFAULT, tau)
        expected = quadrature(
            lambda z: est.density(z) * DEFAULT.log_density(z),
            lo,
            hi,
            tol=1e-9,
            breakpoints=quadrature_seeds(DEFAULT, tau),
        )
        rng = np.random.default_rng(4)
        z = DEFAULT.sample(rng, 10**6)
        w = est.density(z) / DEFAULT.density(z)
        vals = DEFAULT.log_density(z)
        mean_w = float(np.mean(w))
        est_mc = float(np.mean(w * vals)) / mean_w
        # delta-method standard error for the ratio estimator
        resid = w * (vals - est_mc) / mean_w
        se = float(np.std(resid, ddof=1) / math.sqrt(z.size))
        assert abs(est_mc - expected) <= 4 * se


class TestLemma2Soundness:
    @pytest.mark.parametrize("T", [1.0, 1.5, 2.0])
    def test_partition_respects_lower_bound(self, T):
        rng = np.random.default_rng(8)
        bayes = bayes_classifier(DEFAULT)
        for seed in range(5):
            data = LabeledDataset.from_mixture(DEFAULT, 200, np.random.default_rng(300 + seed))
            clf = train(data, 1e-3)
            d_hat, d_se = estimate_excess_risk(clf, DEFAULT, bayes, 10**5, rng)
            est = build(DEFAULT, clf, T)
            bound = lemma2_partition_lower_bound(DEFAULT, d_hat + 3 * d_se, T)
            assert est.partition >= bound


def _tilted_next_token(T):
    lm = tl.fit_lm([["a", "b"]], order=1, smoothing=1e-3, vocab=("a", "b"))
    head = tl.HeadClassifier(np.zeros((1, 2)), np.zeros((2, 1)))
    return tl.tilted_next_token(lm, head, ["a"], T)


TEMPERATURE_ENTRY_POINTS = {
    "build": lambda T: build(DEFAULT, NEAR_ONE, T),
    "partitions": lambda T: partitions(DEFAULT, NEAR_ONE, [1.0, T]),
    "tempered_oracle": lambda T: tempered_oracle(DEFAULT, T),
    "GaussianComponent.temper": lambda T: GaussianComponent(0.0, 1.0).temper(T),
    "UniformComponent.temper": lambda T: UniformComponent(0.0, 1.0).temper(T),
    "lemma2_partition_lower_bound": lambda T: B.lemma2_partition_lower_bound(DEFAULT, 0.01, T),
    "thm4_forget_bound": lambda T: B.thm4_forget_bound(DEFAULT, 0.01, T),
    "thm5_retain_bound": lambda T: B.thm5_retain_bound(DEFAULT, 0.01, T),
    "tempered_gaussian_log_integral": lambda T: B.tempered_gaussian_log_integral(1.0, T),
    "tilted_next_token": _tilted_next_token,
}


@pytest.mark.parametrize("T", [math.nan, math.inf, 0.99])
@pytest.mark.parametrize("entry", sorted(TEMPERATURE_ENTRY_POINTS))
def test_rejects_temperature_outside_one_to_inf(entry, T):
    with pytest.raises(ValueError, match="temperature"):
        TEMPERATURE_ENTRY_POINTS[entry](T)
