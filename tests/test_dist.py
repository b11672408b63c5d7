"""Component densities, the mixture, tempering, sampling, and quadrature."""

import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from t3.dist import (
    MAX_EVALUATIONS,
    ROOT_MAX_STEPS,
    GaussianComponent,
    Mixture,
    QuadratureError,
    UniformComponent,
    quadrature,
    quadrature_domain,
    sign_change_roots,
)

STD_NORM_LOGPEAK = -0.9189385332046727  # -ln(2 pi)/2, direct formula

# The Gauss-Kronrod 7/15 pair on [-1, 1] as QUADPACK's dqk15 tabulates it:
# the positive Kronrod nodes descending to 0, their weights, and the Gauss
# weights on nodes 1, 3, 5 and 7 of that list.
_XGK = [0.991455371120812639, 0.949107912342758525, 0.864864423359769073,
        0.741531185599394440, 0.586087235467691130, 0.405845151377397167,
        0.207784955007898468, 0.0]
_WGK = [0.022935322010529225, 0.063092092629978553, 0.104790010322250184,
        0.140653259715525919, 0.169004726639267903, 0.190350578064785410,
        0.204432940075298892, 0.209482141084727828]
_WG = [0.129484966168869693, 0.279705391489276668, 0.381830050505118945,
       0.417959183673469388]
GK_NODES = np.array([-x for x in _XGK[:-1]] + _XGK[::-1])
GK_KRONROD = np.array(_WGK[:-1] + _WGK[::-1])
GK_GAUSS = np.array([0.0, _WG[0], 0.0, _WG[1], 0.0, _WG[2], 0.0, _WG[3],
                     0.0, _WG[2], 0.0, _WG[1], 0.0, _WG[0], 0.0])


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
        np.testing.assert_allclose(np.exp(m.log_density(z)), direct, rtol=1e-12)

    def test_mixture_with_uniform_component_off_support(self):
        m = Mixture(0.1, UniformComponent(2.0, 3.0), UniformComponent(0.0, 1.0))
        np.testing.assert_allclose(np.exp(m.log_density(5.0)), 0.0, atol=0.0)
        np.testing.assert_allclose(np.exp(m.log_density(0.5)), 0.1, rtol=1e-12)


SPIKES = [Mixture(0.1, GaussianComponent(1.0, 1.0), GaussianComponent(0.0, v_f))
          for v_f in (1e-12, 1e-9, 1e-6, 1e-3, 1.0, 1e2)]
WITNESSES = [
    Mixture(0.1, UniformComponent(2.0, 3.0), UniformComponent(0.0, 1.0)),
    Mixture(0.45, UniformComponent(-1.0, 0.5), UniformComponent(0.5, 0.5 + 1e-6)),
    Mixture(0.3, GaussianComponent(0.0, 1e-2), UniformComponent(-0.1, 0.1)),
]


def _mixture_points(m, rng):
    # draws from both components, each component's center, and a wide spread
    return np.concatenate([
        m.sample_labeled(rng, 4000)[0],
        m.forget.sample(rng, 1000),
        rng.uniform(-40.0, 40.0, 1000),
        [0.0, 0.5, 1.0, 2.0, 3.0, -1e3, 1e3],
    ])


class TestMixtureLogDensity:
    """The log-sum-exp of Mixture.log_density against np.logaddexp."""

    @staticmethod
    def _logaddexp(m, z):
        a = math.log1p(-m.gamma) + m.retain.log_density(z)
        b = math.log(m.gamma) + m.forget.log_density(z)
        return np.logaddexp(a, b)

    @pytest.mark.parametrize("m", SPIKES + WITNESSES)
    def test_within_two_ulp_of_logaddexp(self, m):
        z = _mixture_points(m, np.random.default_rng(5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = m.log_density(z)
        ref = self._logaddexp(m, z)
        finite = np.isfinite(ref)
        np.testing.assert_array_equal(got[~finite], ref[~finite])
        assert finite.any()
        got, ref = got[finite], ref[finite]
        assert np.max(np.abs(got - ref) / np.spacing(np.maximum(1.0, np.abs(ref)))) <= 2.0

    @pytest.mark.parametrize("m", WITNESSES[:2])
    def test_exactly_minus_inf_off_both_supports(self, m):
        z = np.array([-5.0, 1.5 if m is WITNESSES[0] else 0.7, 10.0, -1e300, 1e300])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = m.log_density(z)
        assert np.all(got == -np.inf)

    def test_nan_propagates(self):
        assert np.isnan(SPIKES[3].log_density(np.array([0.0, np.nan]))[1])

    @pytest.mark.parametrize("m", SPIKES + WITNESSES)
    def test_passing_log_retain_gives_the_same_bits(self, m):
        z = _mixture_points(m, np.random.default_rng(6))
        log_retain = m.retain.log_density(z)
        kept = log_retain.copy()
        got = m.log_density(z, log_retain)
        np.testing.assert_array_equal(got.view(np.uint64), m.log_density(z).view(np.uint64))
        np.testing.assert_array_equal(log_retain, kept)  # the caller's array is left alone

    @pytest.mark.parametrize("shape", [(), (4,), (1, 5), (5, 1)])
    def test_rejects_a_log_retain_of_another_shape(self, shape):
        m, z = SPIKES[3], np.linspace(-1.0, 1.0, 5)
        with pytest.raises(ValueError, match=re.escape(
                f"log_retain has shape {shape}, z has shape (5,)")):
            m.log_density(z, np.zeros(shape))

    @pytest.mark.parametrize("m", [SPIKES[3], WITNESSES[0]])
    def test_allocates_at_most_three_arrays(self, m):
        # the weighted component log-densities and the result; the
        # log-sum-exp runs in place, so the peak traced allocation stays at
        # three float64 arrays of n
        n = 100_000
        z = m.sample_labeled(np.random.default_rng(0), n)[0]
        m.log_density(z)
        tracemalloc.start()
        try:
            m.log_density(z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.01 * 8 * n


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
        a = m.sample_labeled(np.random.default_rng(123), 1000)[0]
        b = m.sample_labeled(np.random.default_rng(123), 1000)[0]
        np.testing.assert_array_equal(a, b)

    # The samplers scale and shift one buffer of standard draws in place, and
    # rely on these numpy facts: rng.normal(mu, sd, n) is mu + sd *
    # standard_normal and rng.uniform(lo, hi, n) is lo + (hi - lo) * random,
    # element for element, from the same stream.  A numpy build where either
    # fails would move every sample's bits.
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

    def test_a_warm_call_peaks_under_2_2_float_arrays(self):
        # the label uniforms are dropped once the mask is formed, so at most
        # the mask and the two component draws are live: the peak traced
        # allocation stays under 2.2 float64 arrays of n (holding the
        # uniforms too would make it 3.13)
        n = 100_000
        m = Mixture(0.1, GaussianComponent(1.0, 1.0), GaussianComponent(0.0, 1e-3))
        m.sample_labeled(np.random.default_rng(0), n)
        tracemalloc.start()
        try:
            m.sample_labeled(np.random.default_rng(1), n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.2 * 8 * n

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
            assert abs(g.peak_density() - float(np.max(np.exp(g.log_density(grid))))) < 1e-10

    def test_uniform_is_inverse_width(self):
        assert UniformComponent(1.0, 3.0).peak_density() == 0.5


class TestQuadrature:
    def test_normal_density_integrates_to_one(self):
        g = GaussianComponent(0.0, 1.0)
        q = quadrature(lambda z: np.exp(g.log_density(z)), -12, 12, tol=1e-12)
        np.testing.assert_allclose(q, 1.0, atol=1e-10)

    def test_odd_integrand_vanishes(self):
        g = GaussianComponent(0.0, 1.0)
        q = quadrature(lambda z: z * np.exp(g.log_density(z)), -12, 12, tol=1e-12)
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
        # limit alone would let it open 2^20 panels at its last level (31M
        # evaluations in all); the cap is checked before each call
        calls = []

        def noise(z):
            calls.append(z.size)
            return np.sin(1e15 * z)

        with pytest.raises(QuadratureError, match=f"would pass {MAX_EVALUATIONS} integrand"):
            quadrature(noise, 0.0, 1.0, tol=1e-10)
        assert sum(calls) <= MAX_EVALUATIONS

    def test_value_cap_counts_points_times_rows(self):
        # k rows of an integrand that one row converges on in n points take
        # k * n values: the largest k within the cap converges, k + 1 rows of
        # it pass the cap, though each row converges
        points = []

        def rows(k):
            def f(z):
                points.append(z.size)
                return np.tile(np.sin(1000.0 * z), (k, 1))

            return f

        one = quadrature(rows(1), 0.0, 1.0, tol=1e-12)
        k = MAX_EVALUATIONS // sum(points)
        assert k >= 2
        np.testing.assert_allclose(quadrature(rows(k), 0.0, 1.0, tol=1e-12), [one[0]] * k, rtol=1e-12)
        with pytest.raises(QuadratureError, match=f"would pass {MAX_EVALUATIONS} integrand"):
            quadrature(rows(k + 1), 0.0, 1.0, tol=1e-12)

    def test_row_blocks_return_arrays_and_one_row_equals_1d(self):
        g = GaussianComponent(0.0, 1.0)

        def density(z):
            return np.exp(g.log_density(z))

        scalar = quadrature(density, -12, 12)
        assert isinstance(scalar, float)
        one = quadrature(lambda z: density(z)[None, :], -12, 12)
        assert one.shape == (1,) and one[0] == scalar
        two = quadrature(lambda z: np.vstack([density(z), z * z * density(z)]), -12, 12)
        assert two.shape == (2,)
        np.testing.assert_allclose(two, [1.0, 1.0], atol=1e-9)

    def test_one_unconverged_row_fails_the_call(self):
        def rows(z):
            return np.vstack([z * z, np.where(z < 1 / 3, 0.0, 1.0)])

        np.testing.assert_allclose(quadrature(lambda z: z * z, 0.0, 1.0, tol=1e-12), 1 / 3)
        with pytest.raises(QuadratureError, match="did not converge"):
            quadrature(rows, 0.0, 1.0, tol=1e-12)

    def test_nonfinite_value_fails_fast_naming_row_and_point(self):
        # 0.5 is the center node of level 0's one panel [0, 1]
        with pytest.raises(QuadratureError, match=r"returned -inf in row 0 at z=0\.5"):
            quadrature(lambda z: np.where(z < 0.5, z, -np.inf), 0.0, 1.0)
        calls = []

        def rows(z):
            calls.append(z.copy())
            return np.vstack([np.sin(20.0 * z), np.where(z == 0.75, np.nan, z)])

        with pytest.raises(QuadratureError, match=r"returned nan in row 1 at z=0\.75"):
            quadrature(rows, 0.0, 1.0)
        # level 0's nodes; then level 1's, which hold 0.75, the center of
        # [0.5, 1], and are the last call
        assert len(calls) == 2
        assert 0.75 in calls[-1] and 0.75 not in calls[0]

    def test_one_call_per_level_and_one_row_equals_1d(self):
        # on [0, 1] with no breakpoints, call d holds exactly the 15 nodes of
        # each panel open at level d (width 2^-d, budget tol * 2^-d); the
        # panels open at level d + 1 are the halves of those whose |K15 - G7|
        # missed the budget, and q is the K15 sum of the closed ones
        tol = 1e-12

        def bump(z):
            return np.exp(-30.0 * (z - 0.3) ** 2)

        def counted(f):
            calls = []

            def g(z):
                calls.append(z.copy())
                return f(z)

            return g, calls

        flat, calls = counted(bump)
        q = quadrature(flat, 0.0, 1.0, tol=tol)
        exact = math.sqrt(math.pi / 30.0) / 2.0 * (
            math.erf(math.sqrt(30.0) * 0.7) + math.erf(math.sqrt(30.0) * 0.3)
        )
        np.testing.assert_allclose(q, exact, atol=1e-12)
        assert len(calls) >= 3  # a multi-level run
        centers, closed_sum = np.array([0.5]), 0.0
        for d, z in enumerate(calls):
            h = 2.0 ** -(d + 1)
            panels = z.reshape(-1, 15)
            panels = panels[np.argsort(panels[:, 7])]
            np.testing.assert_array_equal(panels, np.sort(centers)[:, None] + h * GK_NODES)
            fv = bump(panels)
            kronrod, gauss = h * (fv @ GK_KRONROD), h * (fv @ GK_GAUSS)
            closed = np.abs(kronrod - gauss) <= tol * 2.0 * h
            closed_sum += kronrod[closed].sum()
            open_centers = panels[~closed, 7]
            centers = np.concatenate([open_centers - h / 2.0, open_centers + h / 2.0])
        assert centers.size == 0
        np.testing.assert_allclose(q, closed_sum, rtol=1e-14)

        row, row_calls = counted(lambda z: bump(z)[None, :])
        one = quadrature(row, 0.0, 1.0, tol=tol)
        assert one.shape == (1,) and one[0] == q
        assert len(row_calls) == len(calls)

    @pytest.mark.parametrize(
        "lo, hi, tol, name",
        [
            (0.0, 1.0, -1.0, "tol"),
            (0.0, 1.0, 0.0, "tol"),
            (0.0, 1.0, math.nan, "tol"),
            (0.0, 1.0, math.inf, "tol"),
            (-math.inf, 1.0, 1e-10, "lo"),
            (math.nan, 1.0, 1e-10, "lo"),
            (0.0, math.inf, 1e-10, "hi"),
        ],
    )
    def test_bad_input_fails_before_any_integrand_call(self, lo, hi, tol, name):
        calls = []

        def f(z):
            calls.append(z.size)
            return z

        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            quadrature(f, lo, hi, tol=tol)
        assert calls == []

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
        lo, hi, seeds = quadrature_domain(m)
        q = quadrature(lambda z: np.exp(m.log_density(z)), lo, hi, tol=1e-10, breakpoints=seeds)
        np.testing.assert_allclose(q, 1.0, atol=1e-8)

    def test_uniform_pair_integrates_to_one(self):
        m = Mixture(0.2, UniformComponent(2.0, 3.0), UniformComponent(0.0, 1.0))
        lo, hi, seeds = quadrature_domain(m)
        q = quadrature(lambda z: np.exp(m.log_density(z)), lo, hi, tol=1e-10, breakpoints=seeds)
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
        lo1, hi1, _ = quadrature_domain(m, [1.0])
        lo3, hi3, _ = quadrature_domain(m, [3.0])
        assert lo3 < lo1 and hi3 > hi1


def _reference_window(m, T=1.0):
    """The window quadrature_domain replaced, as it was: the reference its
    window must equal at the largest T."""
    comps = (m.retain, m.forget)
    means, stds = [], []
    lo_edges, hi_edges = [], []
    for c in comps:
        if isinstance(c, GaussianComponent):
            means.append(c.mean)
            stds.append(math.sqrt(T * c.variance))
        else:
            means.append(0.5 * (c.lo + c.hi))
            stds.append(c.stddev())
            lo_edges.append(c.lo)
            hi_edges.append(c.hi)
    smax = max(stds)
    lo = min(means) - 12.0 * smax
    hi = max(means) + 12.0 * smax
    if lo_edges:
        lo = min(lo, min(lo_edges))
        hi = max(hi, max(hi_edges))
    return lo, hi


def _reference_breakpoints(m, T=1.0):
    """The per-T breakpoints quadrature_domain replaced, as they were: the
    reference whose union over the grid its breakpoints must equal."""
    pts = []
    for c in (m.retain, m.forget):
        if isinstance(c, UniformComponent):
            pts.extend((c.lo, c.hi))
        else:
            s = math.sqrt(T * c.variance)
            pts.extend((c.mean - 7.0 * s, c.mean - s, c.mean, c.mean + s, c.mean + 7.0 * s))
    return tuple(sorted(pts))


def _random_component(rng, family):
    if family is GaussianComponent:
        mean, log_variance = rng.uniform(-3.0, 3.0), rng.uniform(-6.0, 1.0)
        return GaussianComponent(float(mean), float(10.0 ** log_variance))
    lo = float(rng.uniform(-3.0, 3.0))
    return UniformComponent(lo, lo + float(10.0 ** rng.uniform(-2.0, 1.0)))


class TestQuadratureDomain:
    @pytest.mark.parametrize(
        "families",
        [
            (GaussianComponent, GaussianComponent),
            (UniformComponent, UniformComponent),
            (GaussianComponent, UniformComponent),
            (UniformComponent, GaussianComponent),
        ],
        ids=["gauss", "uniform", "gauss-uniform", "uniform-gauss"],
    )
    @pytest.mark.parametrize("n_temps", [1, 2, 21])
    def test_equals_the_window_and_seeds_it_replaced(self, families, n_temps):
        rng = np.random.default_rng(n_temps)
        for i in range(25):
            gamma = float(rng.uniform(0.05, 0.95))
            m = Mixture(gamma, *(_random_component(rng, f) for f in families))
            temps = rng.uniform(1.0, 5.0, n_temps)  # unsorted, so the max is not last
            grid = temps if i % 2 else temps.tolist()
            lo, hi, breakpoints = quadrature_domain(m, grid)
            assert (lo, hi) == _reference_window(m, max(grid))
            assert set(breakpoints) == {s for T in grid for s in _reference_breakpoints(m, T)}
            assert list(breakpoints) == sorted(set(breakpoints))


    def test_names_an_empty_temperature_grid(self):
        m = Mixture(0.1, GaussianComponent(1.0, 1.0), GaussianComponent(0.0, 1.0))
        with pytest.raises(ValueError, match="quadrature_domain needs at least one temperature"):
            quadrature_domain(m, ())


class TestSignChangeRoots:
    def test_rows_batch_as_one_call_per_row(self):
        # the roots of a k-row g are the sorted union of its rows' roots, bit
        # for bit: every bracket bisects on its own row
        rows = [lambda z: np.cos(3.0 * z), lambda z: z * z - 2.0, lambda z: np.tanh(z - 0.3)]
        seeds = (-1.0, 0.0, 1.0)
        batched = sign_change_roots(lambda z: np.stack([r(z) for r in rows]), -4.0, 4.0, seeds)
        alone = [sign_change_roots(r, -4.0, 4.0, seeds) for r in rows]
        assert batched == tuple(sorted(x for roots in alone for x in roots))
        np.testing.assert_allclose(alone[1], [-math.sqrt(2.0), math.sqrt(2.0)], rtol=1e-14)
        np.testing.assert_allclose(alone[2], [0.3], rtol=0.0, atol=1e-14)
        assert len(alone[0]) == 8

    @pytest.mark.parametrize("rtol", [1e-14, 1e-9, 1e-3])
    def test_each_root_stops_at_its_own_tolerance(self, rtol):
        roots = sign_change_roots(lambda z: np.sin(np.pi * z / 1e3), 1e2, 3.9e3, rtol=rtol)
        np.testing.assert_allclose(roots, [1e3, 2e3, 3e3], rtol=rtol, atol=0.0)

    def test_bisection_has_a_fixed_cap(self):
        calls = []

        def g(z):
            calls.append(z.size)
            return np.where(z < 0.1, -1.0, 1.0)

        # a tolerance no bracket can meet runs the cap out: the scan plus
        # ROOT_MAX_STEPS steps.  g is a step, so no interpolant ever passes
        # the safety test and no step can land on an exact zero
        (root,) = sign_change_roots(g, -1.0, 1.0, rtol=0.0)
        assert len(calls) == 1 + ROOT_MAX_STEPS
        assert root == pytest.approx(0.1, abs=1e-15)

    def test_an_exact_zero_between_opposite_signs_is_a_root(self):
        # +-1 are points of a 4096-point scan of [-5, 5], and 0.5 a
        # breakpoint; a zero between values of one sign is no sign change
        assert sign_change_roots(lambda z: z * z - 1.0, -5.0, 5.0, (-1.0, 1.0)) == (-1.0, 1.0)
        np.testing.assert_allclose(sign_change_roots(lambda z: z * z - 1.0, -5.0, 5.0),
                                   [-1.0, 1.0], rtol=1e-14)
        assert sign_change_roots(lambda z: z - 0.5, -1.0, 1.0, breakpoints=(0.5,)) == (0.5,)
        assert sign_change_roots(lambda z: (z - 0.5) ** 2, -1.0, 1.0, (0.5,)) == ()

    def test_zero_and_nan_values_never_bracket(self):
        def g(z):
            return np.where(np.abs(z) < 1.0, np.nan, np.where(z > 2.0, 0.0, np.sign(z)))

        assert sign_change_roots(g, -3.0, 3.0) == ()

    def test_uniform_components_raise_no_warning(self):
        # off both supports ln p is -inf; the scan and bisection compare signs
        # only, so under the suite's error::RuntimeWarning nothing is raised
        m = Mixture(0.3, UniformComponent(2.0, 3.0), UniformComponent(0.0, 1.0))
        lo, hi, pts = quadrature_domain(m, [2.0])
        assert sign_change_roots(m.log_density, lo, hi, pts) == ()
        m = Mixture(0.3, GaussianComponent(0.0, 0.01), UniformComponent(-0.1, 0.1))
        lo, hi, pts = quadrature_domain(m)
        assert len(sign_change_roots(m.log_density, lo, hi, pts)) == 2

    @pytest.mark.parametrize(
        "lo, hi, rtol, match",
        [
            (math.nan, 1.0, 1e-9, "lo must be finite, got nan"),
            (-math.inf, 1.0, 1e-9, "lo must be finite, got -inf"),
            (0.0, math.inf, 1e-9, "hi must be finite, got inf"),
            (1.0, 1.0, 1e-9, re.escape("need lo < hi, got [1.0, 1.0]")),
            (2.0, 1.0, 1e-9, re.escape("need lo < hi, got [2.0, 1.0]")),
            (0.0, 1.0, math.nan, "rtol must be >= 0, got nan"),
            (0.0, 1.0, -1e-9, "rtol must be >= 0, got -1e-09"),
        ],
    )
    def test_names_a_bad_window_or_tolerance_before_calling_g(self, lo, hi, rtol, match):
        def g(z):
            raise AssertionError("g called")

        with pytest.raises(ValueError, match=match):
            sign_change_roots(g, lo, hi, rtol=rtol)

    def test_zero_tolerance_is_legal_and_an_exact_zero_is_the_root(self):
        (root,) = sign_change_roots(lambda z: z - 0.25, -1.0, 1.0, rtol=0.0)
        assert root == 0.25


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
