"""Component densities, the mixture, tempering, sampling, and quadrature."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from t3.dist import (
    MAX_EVALUATIONS,
    DrawBuffers,
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

    # The buffer samplers rely on these numpy facts: rng.normal(mu, sd, n) is
    # mu + sd * standard_normal and rng.uniform(lo, hi, n) is lo + (hi - lo) *
    # random, element for element, from the same stream.  A numpy build where
    # either fails would move every sample's bits.
    @pytest.mark.parametrize(
        "comp, direct",
        [
            (GaussianComponent(-0.7, 2.3), lambda rng, n: rng.normal(-0.7, math.sqrt(2.3), n)),
            (GaussianComponent(3e5, 1e-9), lambda rng, n: rng.normal(3e5, math.sqrt(1e-9), n)),
            (UniformComponent(-1.5, 4.25), lambda rng, n: rng.uniform(-1.5, 4.25, n)),
            (UniformComponent(1e3, 1e3 + 1e-6), lambda rng, n: rng.uniform(1e3, 1e3 + 1e-6, n)),
        ],
    )
    def test_buffer_draws_match_numpy_samplers(self, comp, direct):
        n = 10_001
        a, b = np.random.default_rng(11), np.random.default_rng(11)
        buf = np.empty(n)
        assert comp.sample(a, n, out=buf) is buf
        np.testing.assert_array_equal(buf, direct(b, n))
        np.testing.assert_array_equal(comp.sample(a, n), direct(b, n))
        assert a.random() == b.random()  # the stream advanced alike

    def test_sample_labeled_matches_fresh_array_formula(self):
        m = Mixture(0.3, GaussianComponent(1.0, 0.5), UniformComponent(-2.0, 0.0))
        n = 5_000
        z, s = m.sample_labeled(np.random.default_rng(4), n)
        rng = np.random.default_rng(4)
        s_ref = rng.random(n) < 0.7
        z_r, z_f = rng.normal(1.0, math.sqrt(0.5), n), rng.uniform(-2.0, 0.0, n)
        np.testing.assert_array_equal(s, s_ref)
        np.testing.assert_array_equal(z, np.where(s_ref, z_r, z_f))
        # into caller buffers: the same bits, returned in those buffers
        work = DrawBuffers.empty(n)
        z_b, s_b = m.sample_labeled(np.random.default_rng(4), n, out=work)
        assert z_b is work.z_f and s_b is work.s
        np.testing.assert_array_equal(z_b, z)
        np.testing.assert_array_equal(s_b, s)

    def test_buffers_of_the_wrong_size_are_rejected(self):
        with pytest.raises(ValueError, match=r"shape \(10,\)"):
            GaussianComponent(0.0, 1.0).sample(np.random.default_rng(0), 10, out=np.empty(9))
        with pytest.raises(ValueError, match=r"shape \(10,\)"):
            Mixture(0.5, GaussianComponent(0.0, 1.0), GaussianComponent(1.0, 1.0)).sample_labeled(
                np.random.default_rng(0), 10, out=DrawBuffers.empty(12)
            )

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

    def test_evaluation_cap_bounds_open_panels(self):
        # noise-like at every panel width the depth limit allows, so the depth
        # limit alone would let it open 2^21 panels (4.2M evaluations)
        calls = []

        def noise(z):
            calls.append(z.size)
            return np.sin(1e15 * z)

        with pytest.raises(QuadratureError, match=f"would pass {MAX_EVALUATIONS} integrand"):
            quadrature(noise, 0.0, 1.0, tol=1e-10)
        assert sum(calls) <= MAX_EVALUATIONS

    def test_value_cap_counts_points_times_rows(self):
        # one row of sin(1000 z) converges on ~350k points; three rows of it
        # would take ~1.05M values, past the cap, though each row converges
        def rows(k):
            return lambda z: np.tile(np.sin(1000.0 * z), (k, 1))

        one = quadrature(rows(1), 0.0, 1.0, tol=1e-12)
        np.testing.assert_allclose(quadrature(rows(2), 0.0, 1.0, tol=1e-12), [one[0]] * 2, rtol=1e-12)
        with pytest.raises(QuadratureError, match=f"would pass {MAX_EVALUATIONS} integrand"):
            quadrature(rows(3), 0.0, 1.0, tol=1e-12)

    def test_row_blocks_return_arrays_and_one_row_equals_1d(self):
        g = GaussianComponent(0.0, 1.0)
        scalar = quadrature(g.density, -12, 12)
        assert isinstance(scalar, float)
        one = quadrature(lambda z: g.density(z)[None, :], -12, 12)
        assert one.shape == (1,) and one[0] == scalar
        two = quadrature(lambda z: np.vstack([g.density(z), z * z * g.density(z)]), -12, 12)
        assert two.shape == (2,)
        np.testing.assert_allclose(two, [1.0, 1.0], atol=1e-9)

    def test_one_unconverged_row_fails_the_call(self):
        def rows(z):
            return np.vstack([z * z, np.where(z < 1 / 3, 0.0, 1.0)])

        np.testing.assert_allclose(quadrature(lambda z: z * z, 0.0, 1.0, tol=1e-12), 1 / 3)
        with pytest.raises(QuadratureError, match="did not converge"):
            quadrature(rows, 0.0, 1.0, tol=1e-12)

    def test_nonfinite_value_fails_fast_naming_row_and_point(self):
        with pytest.raises(QuadratureError, match=r"returned -inf in row 0 at z=0\.0"):
            quadrature(lambda z: np.where(z > 0.0, z, -np.inf), 0.0, 1.0)
        calls = []

        def rows(z):
            calls.append(z.copy())
            return np.vstack([np.sin(20.0 * z), np.where(z == 0.625, np.nan, z)])

        with pytest.raises(QuadratureError, match=r"returned nan in row 1 at z=0\.625"):
            quadrature(rows, 0.0, 1.0)
        # a, mid and b; level 0's quarter points; then level 1's, which hold 0.625
        assert len(calls) == 3
        assert 0.625 in calls[-1] and not any(0.625 in z for z in calls[:-1])

    def test_one_call_per_level_and_one_row_equals_1d(self):
        # on [0, 1] with no breakpoints, level d evaluates f at odd multiples
        # of 2^-(d + 2), so each call after the first must be one whole level
        def bump(z):
            return np.exp(-30.0 * (z - 0.3) ** 2)

        def counted(f):
            calls = []

            def g(z):
                calls.append(z.copy())
                return f(z)

            return g, calls

        flat, calls = counted(bump)
        q = quadrature(flat, 0.0, 1.0, tol=1e-12)
        exact = math.sqrt(math.pi / 30.0) / 2.0 * (
            math.erf(math.sqrt(30.0) * 0.7) + math.erf(math.sqrt(30.0) * 0.3)
        )
        np.testing.assert_allclose(q, exact, atol=1e-12)
        np.testing.assert_array_equal(calls[0], [0.0, 0.5, 1.0])
        assert len(calls) >= 5  # a multi-level run
        for d, z in enumerate(calls[1:]):
            ticks = z * 2.0 ** (d + 2)
            np.testing.assert_array_equal(ticks % 2.0, 1.0)

        row, row_calls = counted(lambda z: bump(z)[None, :])
        one = quadrature(row, 0.0, 1.0, tol=1e-12)
        assert one.shape == (1,) and one[0] == q
        assert len(row_calls) == len(calls)

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


# Any float at all, NaN, infinities and subnormals included.
ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)
TEMPERATURES = st.floats(1.0, 1e6)


def _finite(*values):
    return all(np.isfinite(v).all() for v in values)


def _check_component(c, T):
    """A built component has finite outputs near its center, a finite
    sample and peak density, and tempers to a finite constant (or names why
    it cannot)."""
    center = c.mean if isinstance(c, GaussianComponent) else 0.5 * (c.lo + c.hi)
    z = np.array([center - 0.5 * c.stddev(), center, center + 0.5 * c.stddev()])
    assert _finite(c.log_density(z), c.sample(np.random.default_rng(0), 64), c.peak_density())
    try:
        tempered, constant = c.temper(T)
    except ValueError:
        return
    assert _finite(constant, tempered.peak_density())


class TestConstructorProperties:
    @settings(max_examples=300, deadline=None)
    @given(mean=ANY_FLOAT, variance=ANY_FLOAT, T=TEMPERATURES)
    @example(mean=0.0, variance=1e308, T=1.5)  # 2*pi*v overflows the normalizer
    @example(mean=1e308, variance=5e-324, T=2.0)
    def test_gaussian_is_finite_or_named_error(self, mean, variance, T):
        try:
            c = GaussianComponent(mean, variance)
        except ValueError as exc:
            assert "mean" in str(exc) or "variance" in str(exc)
            return
        _check_component(c, T)

    @settings(max_examples=300, deadline=None)
    @given(lo=ANY_FLOAT, hi=ANY_FLOAT, T=TEMPERATURES)
    @example(lo=0.0, hi=5e-324, T=2.0)  # the density 1 / width overflows
    @example(lo=-1e308, hi=1e308, T=2.0)  # the width overflows
    def test_uniform_is_finite_or_named_error(self, lo, hi, T):
        try:
            c = UniformComponent(lo, hi)
        except ValueError as exc:
            assert "lo < hi" in str(exc)
            return
        _check_component(c, T)

    @settings(max_examples=200, deadline=None)
    @given(
        gamma=ANY_FLOAT,
        params=st.tuples(*[st.floats(-1e3, 1e3), st.floats(1e-6, 1e3)] * 2),
        uniform_forget=st.booleans(),
    )
    def test_mixture_is_finite_or_named_error(self, gamma, params, uniform_forget):
        mu_r, v_r, x_f, w_f = params
        forget = UniformComponent(x_f, x_f + w_f) if uniform_forget else GaussianComponent(x_f, w_f)
        try:
            m = Mixture(gamma, GaussianComponent(mu_r, v_r), forget)
        except ValueError as exc:
            assert "gamma" in str(exc)
            return
        centers = np.array([mu_r, x_f + 0.5 * w_f if uniform_forget else x_f])
        z, s = m.sample_labeled(np.random.default_rng(1), 64)
        assert _finite(m.log_density(centers), z) and s.dtype == bool
