"""Partition estimation over a temperature grid, pointwise density, and the
tempered oracle."""

import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from t3.classifier import QuadClassifier, bayes_classifier, train, witness_classifier, LabeledDataset
from t3.dist import (
    GaussianComponent,
    Mixture,
    UniformComponent,
    quadrature,
    quadrature_domain,
)
from t3.estimator import build, tilted
from t3 import bounds as B
from t3 import tinylm as tl
from t3.bounds import lemma2_partition_lower_bound
from t3.classifier import estimate_excess_risk

DEFAULT = Mixture(0.1, GaussianComponent(1.0, 1.0), GaussianComponent(0.0, 1.0))
NEAR_ONE = QuadClassifier(weights=np.array([40.0, 0.0, 0.0]))  # sigmoid(40) ~ 1 - 4e-18


def _tempered_oracle(tau):
    """The tau-tempered oracle estimate p^(1/tau) * f_star / Z; at tau = 1
    this is exactly p_r."""
    return build(DEFAULT, bayes_classifier(DEFAULT), [tau])


def _one_t_quadrature(f, m, T, tol=1e-10):
    """f integrated over the quadrature domain of the one temperature T."""
    lo, hi, seeds = quadrature_domain(m, [T])
    return quadrature(f, lo, hi, tol=tol, breakpoints=seeds)


class TestBuild:
    def test_bayes_partition_is_one_minus_gamma(self):
        est = build(DEFAULT, bayes_classifier(DEFAULT), [1.0])
        np.testing.assert_allclose(est.partitions, [0.9], atol=1e-8)

    def test_constant_classifier_partition_is_tempered_mass(self):
        est = build(DEFAULT, NEAR_ONE, [2.0])
        expected = _one_t_quadrature(lambda z: np.exp(DEFAULT.log_density(z) / 2.0), DEFAULT, 2.0)
        np.testing.assert_allclose(est.partitions, [expected], rtol=1e-8)

    def test_rejects_t_below_one(self):
        with pytest.raises(ValueError):
            build(DEFAULT, NEAR_ONE, [0.99])

    def test_rejects_a_partition_count_that_differs_from_the_grid(self):
        est = build(DEFAULT, NEAR_ONE, [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="one partition per temperature, got 1 for 3"):
            replace(est, partitions=est.partitions[:1])

    @pytest.mark.parametrize("T", [0.5, math.nan, math.inf])
    def test_estimator_names_a_bad_temperature(self, T):
        est = build(DEFAULT, NEAR_ONE, [1.0, 2.0])
        with pytest.raises(ValueError, match=rf"temperatures\[1\]: .*got {T}"):
            replace(est, temperatures=(1.0, T))

    @pytest.mark.parametrize("z", [-1.0, 0.0, math.nan, math.inf])
    def test_estimator_names_a_bad_partition(self, z):
        # a negative Z once gave a forget error of 0.459, and 0 a "math domain error"
        est = build(DEFAULT, NEAR_ONE, [1.0, 2.0])
        with pytest.raises(ValueError, match=rf"partitions\[1\] must be finite and > 0, got {z}"):
            replace(est, partitions=(est.partitions[0], z))


class TestPartitions:
    @pytest.mark.parametrize("T", [1.0, 1.37, 2.0, 3.0])
    def test_one_temperature_is_the_scalar_quadrature_bit_for_bit(self, T):
        clf = QuadClassifier(weights=np.array([0.5, -0.3, 0.2]))
        spike = Mixture(0.1, GaussianComponent(1.0, 1.0), GaussianComponent(0.0, 1e-6))
        wit = witness_classifier(0.01, 0.1, (2.0, 3.0), (0.0, 1.0))
        witness = Mixture(0.1, UniformComponent(2.0, 3.0), UniformComponent(0.0, 1.0))
        for m, c in ((DEFAULT, clf), (spike, clf), (witness, wit)):
            scalar = _one_t_quadrature(lambda z: np.exp(m.log_density(z) / T) * c.predict(z), m, T)
            assert build(m, c, [T]).partitions == (scalar,)

    # The reference is a one-T quadrature at a tighter tolerance, so the
    # comparison measures the grid's error and not the reference's; that a
    # build meets its own 1e-10 tolerance is the next test's property.
    @settings(max_examples=40, deadline=None)
    @given(
        gamma=st.floats(0.05, 0.5),
        means=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
        log_variances=st.tuples(st.floats(-1.0, 0.5), st.floats(-6.0, 0.0)),
        weights=st.tuples(*[st.floats(-1.0, 1.0)] * 3),
        temperatures=st.lists(st.floats(1.0, 3.0), min_size=1, max_size=6),
    )
    def test_every_row_matches_a_tight_quadrature(
        self, gamma, means, log_variances, weights, temperatures
    ):
        m = Mixture(
            gamma,
            GaussianComponent(means[0], 10.0 ** log_variances[0]),
            GaussianComponent(means[1], 10.0 ** log_variances[1]),
        )
        clf = QuadClassifier(weights=np.array(weights))
        est = build(m, clf, temperatures)
        assert est.temperatures == tuple(temperatures)
        assert len(est.partitions) == len(temperatures) and min(est.partitions) > 0.0
        ref = [
            _one_t_quadrature(lambda z: np.exp(m.log_density(z) / T) * clf.predict(z), m, T, 1e-13)
            for T in temperatures
        ]
        np.testing.assert_allclose(est.partitions, ref, rtol=1e-9, atol=0.0)

    # Every row lies within the build's 1e-10 of a tol = 1e-13 quadrature.
    # The explicit draws were missed by adaptive Simpson and by Gauss-Kronrod
    # with the outer seeds at +-6 stddev, whose panel beyond a narrow spike
    # did not see the 1e-9 of the spike's mass past the seed.
    @settings(max_examples=100, deadline=None)
    @given(
        gamma=st.floats(0.05, 0.5),
        means=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
        log_v_r=st.floats(-1.0, 0.5),
        log_v_f=st.floats(-6.0, 0.0),
        weights=st.tuples(*[st.floats(-1.0, 1.0)] * 3),
        temperatures=st.lists(st.floats(1.0, 3.0), min_size=1, max_size=4),
    )
    # adaptive Simpson missed it by 5.1e-10
    @example(
        gamma=0.14456099024709534,
        means=(1.5664833442338373, -1.2105715700178203),
        log_v_r=-0.6259446533060757,
        log_v_f=-3.818728481494582,
        weights=(0.10376398644020002, -0.707667046701765, 0.6790639984836009),
        temperatures=[2.9461058984891135],
    )
    # Gauss-Kronrod with the +-6 stddev seeds missed it by 3.0e-10
    @example(
        gamma=0.4860889187531543,
        means=(1.7824189514006616, -0.8812333342971774),
        log_v_r=-0.9153615616959476,
        log_v_f=-4.695341477660241,
        weights=(0.7212696191372256, -0.28693110974892, 0.7932209620442052),
        temperatures=[1.1025179082675904],
    )
    def test_every_row_meets_the_build_tolerance(
        self, gamma, means, log_v_r, log_v_f, weights, temperatures
    ):
        m = Mixture(
            gamma,
            GaussianComponent(means[0], 10.0 ** log_v_r),
            GaussianComponent(means[1], 10.0 ** log_v_f),
        )
        clf = QuadClassifier(weights=np.array(weights))
        est = build(m, clf, temperatures)
        for T, z in zip(temperatures, est.partitions):
            ref = _one_t_quadrature(
                lambda x: np.exp(m.log_density(x) / T) * clf.predict(x), m, T, 1e-13
            )
            assert abs(z - ref) <= 1e-10, (T, z, ref)

    def test_bayes_partition_is_one_minus_gamma_on_random_mixtures(self):
        # at T = 1, p * f_star = (1 - gamma) p_r, so Z = 1 - gamma exactly
        rng = np.random.default_rng(15)
        worst = 0.0
        for _ in range(300):
            gamma = rng.uniform(0.05, 0.5)
            mu_r, mu_f = rng.uniform(-2.0, 2.0, 2)
            m = Mixture(
                gamma,
                GaussianComponent(mu_r, 10.0 ** rng.uniform(-1.0, 0.5)),
                GaussianComponent(mu_f, 10.0 ** rng.uniform(-6.0, 0.0)),
            )
            (z,) = build(m, bayes_classifier(m), [1.0]).partitions
            worst = max(worst, abs(z - (1.0 - gamma)))
        assert worst <= 1e-10


class TestQuadratureWork:
    """Integrand points per job on the default mixture (v_f = 1e-3), so a
    quadrature that does more work shows without timing.  Each ceiling lies
    halfway between the Gauss-Kronrod count and the adaptive-Simpson count
    it replaced (in brackets)."""

    MIXTURE = Mixture(0.1, GaussianComponent(1.0, 1.0), GaussianComponent(0.0, 1e-3))

    @pytest.fixture
    def points(self, monkeypatch):
        import t3.bounds
        import t3.estimator

        count = [0]
        quad = t3.estimator.quadrature

        def counted(f, *args, **kwargs):
            def g(z):
                count[0] += z.size
                return f(z)

            return quad(g, *args, **kwargs)

        monkeypatch.setattr(t3.estimator, "quadrature", counted)
        monkeypatch.setattr(t3.bounds, "quadrature", counted)
        return count

    @pytest.mark.parametrize(
        "job, ceiling",
        [
            ("build", 4_553),  # 2,880 (6,226)
            ("thm4_forget_bound", 12_253),  # 5,175 (19,331)
            ("thm5_retain_bound", 5_981),  # 3,510 (8,452)
        ],
    )
    def test_points_stay_under_the_ceiling(self, points, job, ceiling):
        m = self.MIXTURE
        if job == "build":
            build(m, bayes_classifier(m), [round(1.0 + 0.1 * i, 10) for i in range(21)])
        else:
            getattr(B, job)(m, 0.01, 2.0)
        assert 0 < points[0] <= ceiling


class TestDensity:
    def test_bayes_t1_recovers_retain_density(self):
        est = build(DEFAULT, bayes_classifier(DEFAULT), [1.0])
        z = np.linspace(-4.0, 6.0, 101)
        np.testing.assert_allclose(
            est.density(z), [np.exp(DEFAULT.retain.log_density(z))], atol=1e-8
        )

    def test_zero_classifier_region_gives_zero(self):
        m = Mixture(0.1, UniformComponent(2.0, 3.0), UniformComponent(0.0, 1.0))
        wit = witness_classifier(1e-9, 0.1, (2.0, 3.0), (0.0, 1.0))
        est = build(m, wit, [1.0])
        assert est.density(np.array([0.5]))[0, 0] < 1e-8

    def test_witness_forget_support_closed_form(self):
        gamma, delta = 0.1, 0.01
        m = Mixture(gamma, UniformComponent(2.0, 3.0), UniformComponent(0.0, 1.0))
        wit = witness_classifier(delta, gamma, (2.0, 3.0), (0.0, 1.0))
        est = build(m, wit, [1.0])
        eps = wit.forget_value
        expected = gamma * 1.0 * eps / ((1 - gamma) + gamma * eps)
        z = np.array([0.1, 0.5, 0.9])
        np.testing.assert_allclose(est.density(z), [[expected] * 3], atol=1e-12)

    def test_normalization_across_t_and_classifiers(self):
        rng = np.random.default_rng(2)
        grid = (1.0, 1.7, 2.5)
        for _ in range(3):
            clf = QuadClassifier(weights=rng.normal(scale=0.5, size=3))
            est = build(DEFAULT, clf, grid)
            lo, hi, seeds = quadrature_domain(DEFAULT, grid)
            q = quadrature(est.density, lo, hi, tol=1e-9, breakpoints=seeds)
            np.testing.assert_allclose(q, [1.0] * len(grid), atol=1e-6)

    def test_tilt_ratio_partition_free(self):
        clf = QuadClassifier(weights=np.array([0.5, -0.3, 0.2]))
        grid = np.array([1.0, 1.8, 3.0])[:, None]
        est = build(DEFAULT, clf, grid[:, 0])
        z1, z2 = np.array([0.3]), np.array([1.9])
        lhs = est.density(z1) / est.density(z2)
        rhs = (
            np.exp(DEFAULT.log_density(z1) / grid) * clf.predict(z1)
        ) / (np.exp(DEFAULT.log_density(z2) / grid) * clf.predict(z2))
        np.testing.assert_allclose(lhs, rhs, rtol=1e-10)


class TestTilted:
    """tilted is the one formula for p_hat: bit for bit the expressions that
    density, forget_error and exact_forget_error's gap formed before it."""

    CLF = QuadClassifier(weights=np.array([0.5, -0.3, 0.2]))
    GRID = (1.0, 1.3, 2.0, 3.0)

    def test_density_block(self):
        est = build(DEFAULT, self.CLF, self.GRID)
        z = np.linspace(-6.0, 8.0, 1_001)
        log_p = DEFAULT.log_density(z)
        base = np.exp(log_p / np.array(est.temperatures)[:, None])
        former = base * self.CLF.predict(z) / np.array(est.partitions)[:, None]
        assert np.array_equal(est.density(z), former)
        assert np.array_equal(est.density(z, log_p), former)
        # the (k, 1) columns density forms once are not fields: equality and
        # the field list are those of a fresh estimator
        assert [f.name for f in fields(est)] == ["mixture", "classifier", "temperatures", "partitions"]
        assert replace(est) == est

    def test_density_rejects_log_p_of_other_points(self):
        est = build(DEFAULT, self.CLF, self.GRID)
        log_p = DEFAULT.log_density(np.linspace(0.0, 1.0, 5))
        with pytest.raises(ValueError, match=r"^log_p has shape \(5,\), z has shape \(1,\)$"):
            est.density(np.array([0.5]), log_p)

    def test_one_temperature_into_a_buffer(self):
        est = build(DEFAULT, self.CLF, self.GRID)
        z = DEFAULT.forget.sample(np.random.default_rng(5), 10_000)
        log_p, f = DEFAULT.log_density(z), self.CLF.predict(z)
        for T, partition in zip(est.temperatures, est.partitions):
            former = np.divide(log_p, T)
            np.exp(former, out=former)
            former *= f
            former /= partition
            buffer = np.empty_like(z)
            assert tilted(log_p, f, T, partition, out=buffer) is buffer
            assert np.array_equal(buffer, former)
            fresh = np.exp(log_p / T)
            fresh *= f
            fresh /= partition
            assert np.array_equal(tilted(log_p, f, T, partition), fresh)


class TestTemperedOracle:
    def test_tau_one_is_retain_density(self):
        est = _tempered_oracle(1.0)
        z = np.linspace(-4, 6, 101)
        np.testing.assert_allclose(est.density(z)[0], np.exp(DEFAULT.retain.log_density(z)), atol=1e-8)

    @pytest.mark.parametrize("tau", [1.0, 1.5, 2.0, 3.0])
    def test_normalized(self, tau):
        est = _tempered_oracle(tau)
        q = _one_t_quadrature(lambda z: est.density(z)[0], DEFAULT, tau, 1e-9)
        np.testing.assert_allclose(q, 1.0, atol=1e-6)

    def test_log_density_expectation_matches_importance_sampling(self):
        # E_{p_r^(2)}[ln p] by quadrature vs self-normalized IS from the mixture
        tau = 2.0
        est = _tempered_oracle(tau)
        expected = _one_t_quadrature(
            lambda z: est.density(z)[0] * DEFAULT.log_density(z), DEFAULT, tau, 1e-9
        )
        rng = np.random.default_rng(4)
        z = DEFAULT.sample_labeled(rng, 10**6)[0]
        w = est.density(z)[0] / np.exp(DEFAULT.log_density(z))
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
            (z_val,) = build(DEFAULT, clf, [T]).partitions
            assert z_val >= lemma2_partition_lower_bound(DEFAULT, d_hat + 3 * d_se, T)


def _tilted_next_token(T):
    lm = tl.fit_lm([["a", "b"]], order=1, smoothing=1e-3, vocab=("a", "b"))
    head = tl.HeadClassifier(np.zeros((1, 2)), np.zeros((2, 1)))
    return tl.tilted_next_token(lm, head, ["a"], T)


TEMPERATURE_ENTRY_POINTS = {
    "build": lambda T: build(DEFAULT, NEAR_ONE, [1.0, T]),
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


def test_build_rejects_an_empty_temperature_grid():
    with pytest.raises(ValueError, match="nonempty temperature grid"):
        build(DEFAULT, NEAR_ONE, [])
