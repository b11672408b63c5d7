"""Component densities, the mixture, tempering, sampling, and quadrature."""

import math

import numpy as np
import pytest

from t3.dist import (
    GaussianComponent,
    Mixture,
    QuadratureError,
    UniformComponent,
    integration_window,
    quadrature,
    quadrature_seeds,
)

STD_NORM_LOGPEAK = -0.9189385332046727  # -ln(2 pi)/2, direct formula


class TestLogDensity:
    def test_standard_normal_at_zero(self):
        np.testing.assert_allclose(
            GaussianComponent(0.0, 1.0).log_density(0.0), STD_NORM_LOGPEAK, rtol=1e-14
        )

    def test_unit_uniform_inside(self):
        assert UniformComponent(0.0, 1.0).log_density(0.5)[0] == 0.0

    def test_unit_uniform_outside(self):
        assert UniformComponent(0.0, 1.0).log_density(2.0)[0] == -math.inf

    def test_mixture_is_weighted_sum(self):
        m = Mixture(0.3, GaussianComponent(1.0, 2.0), GaussianComponent(-1.0, 0.5))
        z = np.linspace(-4, 5, 50)
        direct = 0.7 * np.exp(m.retain.log_density(z)) + 0.3 * np.exp(m.forget.log_density(z))
        np.testing.assert_allclose(m.density(z), direct, rtol=1e-12)

    def test_mixture_with_uniform_component_off_support(self):
        m = Mixture(0.1, UniformComponent(2.0, 3.0), UniformComponent(0.0, 1.0))
        np.testing.assert_allclose(m.density(5.0), 0.0, atol=0.0)
        np.testing.assert_allclose(m.density(0.5), 0.1, rtol=1e-12)


class TestSampling:
    def test_mixture_label_fraction(self):
        m = Mixture(0.1, GaussianComponent(1.0, 1.0), GaussianComponent(0.0, 1.0))
        rng = np.random.default_rng(42)
        _, s = m.sample_labeled(rng, 10**6)
        # binomial standard error: 3 * sqrt(0.1*0.9/1e6)
        assert abs(float(np.mean(s == 0)) - 0.1) < 3.0 * math.sqrt(0.09 / 1e6)

    def test_gaussian_mean_clt(self):
        z = GaussianComponent(1.0, 1.0).sample(np.random.default_rng(7), 10**6)
        assert abs(float(z.mean()) - 1.0) < 3.0 / 1000.0

    def test_same_seed_reproduces(self):
        m = Mixture(0.25, GaussianComponent(0.0, 1.0), UniformComponent(3.0, 4.0))
        a = m.sample(np.random.default_rng(123), 1000)
        b = m.sample(np.random.default_rng(123), 1000)
        np.testing.assert_array_equal(a, b)

    def test_moment_match_within_standard_errors(self):
        g = GaussianComponent(-0.5, 2.3)
        z = g.sample(np.random.default_rng(5), 10**6)
        se_mean = math.sqrt(2.3 / 1e6)
        se_var = 2.3 * math.sqrt(2.0 / 1e6)
        assert abs(z.mean() - (-0.5)) < 4 * se_mean
        assert abs(z.var(ddof=1) - 2.3) < 4 * se_var


class TestTempering:
    def test_identity_at_t1(self):
        g = GaussianComponent(0.0, 1.0)
        tempered, c = g.temper(1.0)
        assert tempered == g
        assert c == 1.0

    def test_normalizer_value_t2(self):
        _, c = GaussianComponent(0.0, 1.0).temper(2.0)
        # frozen from quadrature of N(0,1)^(1/2) over [-12, 12]
        np.testing.assert_allclose(c, 2.2390302698404954, rtol=1e-12)

    def test_pointwise_identity_random_points(self):
        rng = np.random.default_rng(3)
        g = GaussianComponent(0.7, 1.8)
        for T in (1.0, 1.5, 2.0, 3.0):
            tempered, c = g.temper(T)
            z = rng.normal(0.7, 3.0, size=10)
            lhs = np.exp(g.log_density(z) / T)
            rhs = c * np.exp(tempered.log_density(z))
            np.testing.assert_allclose(lhs, rhs, rtol=1e-12)

    def test_rejects_t_below_one(self):
        with pytest.raises(ValueError):
            GaussianComponent(0, 1).temper(0.5)

    def test_quadrature_matches_analytic_normalizer(self):
        for mu, v in ((0.0, 1.0), (1.0, 0.5), (-2.0, 3.0)):
            g = GaussianComponent(mu, v)
            for T in (1.0, 1.5, 2.0, 3.0):
                _, c = g.temper(T)
                half = 12.0 * math.sqrt(T * v)
                q = quadrature(lambda z: np.exp(g.log_density(z) / T), mu - half, mu + half, tol=1e-10)
                np.testing.assert_allclose(q, c, rtol=1e-8)

    def test_uniform_temper_constant(self):
        u = UniformComponent(0.0, 2.0)
        tempered, c = u.temper(2.0)
        assert tempered == u
        np.testing.assert_allclose(c, 2.0 ** 0.5, rtol=1e-14)


class TestEntropy:
    def test_unit_gaussian(self):
        np.testing.assert_allclose(
            GaussianComponent(3.0, 1.0).entropy(), 0.5 * math.log(2 * math.pi * math.e), rtol=1e-14
        )

    def test_cross_check_by_quadrature(self):
        g = GaussianComponent(0.0, 1.0)

        def neg_p_log_p(z):
            lp = g.log_density(z)
            return -np.exp(lp) * lp

        q = quadrature(neg_p_log_p, -12, 12, tol=1e-10)
        np.testing.assert_allclose(q, g.entropy(), rtol=1e-9)

    def test_unit_interval_uniform(self):
        assert UniformComponent(0.0, 1.0).entropy() == 0.0

    def test_zero_crossing_variance(self):
        np.testing.assert_allclose(
            GaussianComponent(0.0, 1.0 / (2 * math.pi * math.e)).entropy(), 0.0, atol=1e-15
        )


class TestPeakDensity:
    def test_gaussian_matches_grid_max(self):
        for v in (0.3, 1.0, 4.0):
            g = GaussianComponent(0.5, v)
            grid = np.linspace(0.5 - 5 * math.sqrt(v), 0.5 + 5 * math.sqrt(v), 20001)
            assert abs(g.peak_density() - float(np.max(g.density(grid)))) < 1e-10

    def test_uniform_is_inverse_width(self):
        assert UniformComponent(1.0, 3.0).peak_density() == 0.5


class TestQuadrature:
    def test_normal_density_integrates_to_one(self):
        g = GaussianComponent(0.0, 1.0)
        q = quadrature(lambda z: g.density(z), -12, 12, tol=1e-12)
        np.testing.assert_allclose(q, 1.0, atol=1e-10)

    def test_odd_integrand_vanishes(self):
        g = GaussianComponent(0.0, 1.0)
        q = quadrature(lambda z: z * g.density(z), -12, 12, tol=1e-12)
        assert abs(q) < 1e-10

    def test_sqrt_density_matches_temper_constant(self):
        g = GaussianComponent(0.0, 1.0)
        q = quadrature(lambda z: np.exp(0.5 * g.log_density(z)), -12, 12, tol=1e-10)
        np.testing.assert_allclose(q, 2.2390302698404954, atol=1e-8)

    def test_nonconvergence_signals(self):
        # a jump with no breakpoint never meets the budget
        with pytest.raises(QuadratureError):
            quadrature(lambda z: np.where(z < 1 / 3, 0.0, 1.0), 0.0, 1.0, tol=1e-12)

    def test_breakpoints_resolve_jumps(self):
        q = quadrature(
            lambda z: np.where(z < 1 / 3, 0.0, 1.0), 0.0, 1.0, tol=1e-12, breakpoints=(1 / 3,)
        )
        np.testing.assert_allclose(q, 2.0 / 3.0, atol=1e-12)


class TestMixtureInvariants:
    @pytest.mark.parametrize("v_f", [1e-6, 1e-3, 1.0])
    @pytest.mark.parametrize("gamma", [0.05, 0.1, 0.5])
    def test_density_integrates_to_one(self, gamma, v_f):
        m = Mixture(gamma, GaussianComponent(1.0, 1.0), GaussianComponent(0.0, v_f))
        lo, hi = integration_window(m)
        q = quadrature(m.density, lo, hi, tol=1e-10, breakpoints=quadrature_seeds(m))
        np.testing.assert_allclose(q, 1.0, atol=1e-8)

    def test_uniform_pair_integrates_to_one(self):
        m = Mixture(0.2, UniformComponent(2.0, 3.0), UniformComponent(0.0, 1.0))
        lo, hi = integration_window(m)
        q = quadrature(m.density, lo, hi, tol=1e-10, breakpoints=quadrature_seeds(m))
        np.testing.assert_allclose(q, 1.0, atol=1e-10)

    def test_rejects_bad_gamma(self):
        with pytest.raises(ValueError):
            Mixture(0.0, GaussianComponent(0, 1), GaussianComponent(1, 1))

    @pytest.mark.parametrize(
        "component, params",
        [
            (GaussianComponent, (math.nan, 1.0)),
            (GaussianComponent, (math.inf, 1.0)),
            (GaussianComponent, (0.0, math.inf)),
            (UniformComponent, (-math.inf, 0.0)),
            (UniformComponent, (0.0, math.inf)),
        ],
    )
    def test_components_reject_nonfinite_parameters(self, component, params):
        with pytest.raises(ValueError):
            component(*params)

    def test_window_covers_tempered_spread(self):
        m = Mixture(0.1, GaussianComponent(1.0, 1.0), GaussianComponent(0.0, 4.0))
        lo1, hi1 = integration_window(m, 1.0)
        lo3, hi3 = integration_window(m, 3.0)
        assert lo3 < lo1 and hi3 > hi1
