"""Every bound evaluator against arithmetic, quadrature, and cross-module
identities."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from t3 import bounds as B
from t3 import dist
from t3.classifier import oracle_classifier, witness_classifier
from t3.dist import (
    ROOT_SCAN_POINTS,
    GaussianComponent,
    Mixture,
    UniformComponent,
    quadrature,
    quadrature_domain,
    sign_change_roots,
)
from t3.estimator import build
from t3.metrics import closed_form_errors

GAUSS = Mixture(0.1, GaussianComponent(1.0, 1.0), GaussianComponent(0.0, 1e-3))
FLAT = Mixture(0.1, GaussianComponent(1.0, 1.0), GaussianComponent(0.0, 1.0))
WITNESS = Mixture(0.1, UniformComponent(2.0, 3.0), UniformComponent(0.0, 1.0))


class TestRetainUpper:
    def test_zero_delta(self):
        assert B.thm1_retain_bound(0.0, 0.3) == 0.0

    def test_arithmetic(self):
        np.testing.assert_allclose(B.thm1_retain_bound(0.05, 0.1), 0.05 / 0.9, rtol=1e-15)

    def test_rejects_gamma_near_one(self):
        with pytest.raises(ValueError):
            B.thm1_retain_bound(0.1, 1.0 - 1e-13)


class TestForgetUpper:
    def test_zero_delta(self):
        assert B.thm2_forget_bound(0.0, 0.1, 398.94) == 0.0

    def test_sharp_peak_arithmetic(self):
        pf_inf = (2 * math.pi * 1e-6) ** -0.5
        np.testing.assert_allclose(pf_inf, 398.9422804014327, rtol=1e-12)
        val = B.thm2_forget_bound(0.01, 0.1, pf_inf)
        np.testing.assert_allclose(val, pf_inf * math.sqrt(0.02 / 0.9), rtol=1e-14)
        assert abs(val - 59.47) < 0.01

    def test_unit_peak_sqrt2(self):
        np.testing.assert_allclose(B.thm2_forget_bound(0.5, 0.5, 1.0), math.sqrt(2.0), rtol=1e-14)


class TestForgetLower:
    def test_frozen_value(self):
        np.testing.assert_allclose(
            B.thm3_forget_lower_bound(0.01, 0.1, 1.0), 0.0104629885509414, rtol=1e-9
        )

    def test_small_delta_linear_rate(self):
        # ~ pf_inf * delta / (1 - gamma) as delta -> 0
        delta = 1e-5
        lin = delta / 0.9
        ratio = B.thm3_forget_lower_bound(delta, 0.1, 1.0) / lin
        assert abs(ratio - 1.0) < 0.01

    def test_equality_with_witness_closed_form(self):
        for gamma in np.linspace(0.05, 0.5, 5):
            for delta in np.logspace(-4, -1, 5):
                wit = witness_classifier(float(delta), float(gamma), (2.0, 3.0), (0.0, 1.0))
                m = Mixture(float(gamma), UniformComponent(2.0, 3.0), UniformComponent(0.0, 1.0))
                _, fog = closed_form_errors(m, wit)
                assert abs(fog - B.thm3_forget_lower_bound(float(delta), float(gamma), 1.0)) <= 1e-12

    def test_rejects_zero_delta(self):
        with pytest.raises(ValueError):
            B.thm3_forget_lower_bound(0.0, 0.1, 1.0)


class TestLemma1:
    @pytest.mark.parametrize("delta,expected", [(0.0, 0.0), (0.02, 0.1), (2.0, 1.0)])
    def test_values(self, delta, expected):
        np.testing.assert_allclose(B.lemma1_l1_bound(delta), expected, atol=1e-15)


DELTA_EVALUATORS = {
    "thm1": lambda d: B.thm1_retain_bound(d, 0.1),
    "thm2": lambda d: B.thm2_forget_bound(d, 0.1, 1.0),
    "thm3": lambda d: B.thm3_forget_lower_bound(d, 0.1, 1.0),
    "lemma1": B.lemma1_l1_bound,
    "lemma2": lambda d: B.lemma2_partition_lower_bound(FLAT, d, 2.0),
    "thm4": lambda d: B.thm4_forget_bound(FLAT, d, 2.0),
    "thm5": lambda d: B.thm5_retain_bound(FLAT, d, 2.0),
}


class TestDeltaGuard:
    @pytest.mark.parametrize("delta", [-0.01, math.nan, math.inf])
    @pytest.mark.parametrize("name", DELTA_EVALUATORS)
    def test_rejects_a_negative_or_nonfinite_delta(self, name, delta):
        # a negative delta made thm4's bound complex, inf divided by zero in
        # it, and NaN gave a NaN bound everywhere
        with pytest.raises(ValueError, match="delta"):
            DELTA_EVALUATORS[name](delta)


class TestLemma2:
    def test_arithmetic_t1(self):
        val = B.lemma2_partition_lower_bound(FLAT, 0.0, 1.0)
        expected = 0.81 * math.exp(0.1 * math.log(0.1) / 0.9)
        np.testing.assert_allclose(val, expected, rtol=1e-12)
        assert abs(val - 0.6272) < 2e-4

    @pytest.mark.parametrize("T", [1.0, 2.0])
    def test_delta_enters_as_exp_minus_delta_over_one_minus_gamma(self, T):
        # the only delta-dependence; equal values at every delta passed the
        # monotonicity test below
        val = B.lemma2_partition_lower_bound(FLAT, 0.05, T)
        at_zero = B.lemma2_partition_lower_bound(FLAT, 0.0, T)
        np.testing.assert_allclose(val, at_zero * math.exp(-0.05 / 0.9), rtol=1e-14)

    def test_bayes_partition_dominates(self):
        # the exact-posterior partition at T = 1 is 1 - gamma
        assert 0.9 >= B.lemma2_partition_lower_bound(FLAT, 0.0, 1.0)

    def test_monotone_nonincreasing_in_delta(self):
        vals = [B.lemma2_partition_lower_bound(FLAT, d, 1.5) for d in (0.0, 0.01, 0.1, 1.0)]
        assert all(vals[i + 1] <= vals[i] for i in range(len(vals) - 1))


class TestTemperedForgetBound:
    def test_t1_reduces_to_sqrt_delta_order(self):
        # at T = 1 the bias vanishes and k = 2 makes the power integral that of p, i.e. 1
        val = B.thm4_forget_bound(FLAT, 0.01, 1.0)
        a = B.lemma2_partition_lower_bound(FLAT, 0.0, 1.0)
        pf = FLAT.forget.peak_density()
        expected = pf * (0.005 ** 0.5) / a + pf * (0.005 ** 0.25) / (a * a * math.exp(-0.01 / 0.9))
        np.testing.assert_allclose(val, expected, rtol=1e-12)

    def test_disjoint_supports_zero_bias(self):
        for bias in B._tempering_bias(WITNESS, 2.0, [1.0, 1.5, 2.0]):
            assert bias == 0.0


CONFIG_FAMILY = [
    Mixture(0.1, GaussianComponent(1.0, 1.0), GaussianComponent(0.0, v_f))
    for v_f in (1e-6, 1e-4, 1e-2, 1.0)
]


def _thm4_at_k2(m, delta, T):
    """thm4 with its third term at k = 2 alone, assembled as before the k
    grid: the bias, the second term and a one-row integral of p^c."""
    bias = float(np.max(B._tempering_bias(m, T, B.default_tau_grid(T))))
    pf_inf = m.forget.peak_density()
    a_coef = B.lemma2_partition_lower_bound(m, 0.0, T)
    half_delta = delta / 2.0
    term2 = pf_inf ** (1.0 / T) * half_delta ** (1.0 / (2.0 * T)) / a_coef
    c = (2.0 - T) / T  # (k - T) / (T (k - 1)) at k = 2
    lo, hi, seeds = quadrature_domain(m, [max(1.0 / c, 1.0)])
    power_int = quadrature(lambda z: np.exp(c * m.log_density(z)), lo, hi, breakpoints=seeds)
    term3 = (
        pf_inf ** (1.0 / T)
        * power_int ** 0.5
        * half_delta ** 0.25
        / (a_coef ** 2 * math.exp(-delta / (1.0 - m.gamma)))
    )
    return bias + term2 + term3


class TestThm4KGrid:
    @pytest.mark.parametrize("T", [1.0, 1.1, 1.5])
    @pytest.mark.parametrize("delta", [1e-4, 1e-2])
    @pytest.mark.parametrize("m", CONFIG_FAMILY + [WITNESS])
    def test_k2_row_is_the_minimum_up_to_t_1_5(self, m, delta, T):
        # the grid clamps every k at or below 2 to 2, and at T <= 1.5 that
        # row is the smallest, so the bound is the former k = 2 assembly
        np.testing.assert_allclose(B.thm4_forget_bound(m, delta, T), _thm4_at_k2(m, delta, T),
                                   rtol=1e-12)

    @pytest.mark.parametrize("T", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("v_f", [1e-6, 1e-3, 1.0])
    def test_does_not_depend_on_the_quadrature_window(self, monkeypatch, v_f, T):
        # k = T made the integral of p^0 diverge, and the window's length
        # stood in for it: 12 -> 24 stddevs raised the bound by up to 29% at
        # T = 2 and 42% at T = 3
        m = Mixture(0.1, GaussianComponent(1.0, 1.0), GaussianComponent(0.0, v_f))
        monkeypatch.setattr(dist, "WINDOW_STDDEVS", 12.0)
        narrow = B.thm4_forget_bound(m, 0.01, T)
        monkeypatch.setattr(dist, "WINDOW_STDDEVS", 24.0)
        np.testing.assert_allclose(B.thm4_forget_bound(m, 0.01, T), narrow, rtol=1e-9)


class TestOnePassTemperingBias:
    """_tempering_bias takes the tau-tempered oracle's partitions and its
    three moments from one quadrature; it must agree with the four-pass
    form: the partitions from one ``build`` over the tau grid, then one
    quadrature over the domain of [T] per normalised moment."""

    @staticmethod
    def _four_pass(m, T, taus):
        oracle = build(m, oracle_classifier(m), taus)
        lo, hi, seeds = quadrature_domain(m, [T])

        def moment(weight):
            def integrand(z):
                lp = m.log_density(z)
                d = oracle.density(z, lp)
                return d * weight(z, np.where(d > 0.0, lp, 0.0))

            return quadrature(integrand, lo, hi, breakpoints=seeds)

        pf2 = moment(lambda z, lp: np.exp(2.0 * m.forget.log_density(z)))
        m1 = moment(lambda z, lp: lp)
        m2 = moment(lambda z, lp: lp * lp)
        return (1.0 - 1.0 / T) * np.sqrt(pf2) * np.sqrt(np.maximum(m2 - m1 * m1, 0.0))

    @pytest.mark.parametrize("v_f", [1e-6, 1e-4, 1e-2, 1.0])
    @pytest.mark.parametrize("T", [1.1, 2.0, 3.0])
    def test_every_tau_matches_the_four_pass_form(self, v_f, T):
        m = Mixture(0.1, GaussianComponent(1.0, 1.0), GaussianComponent(0.0, v_f))
        taus = B.default_tau_grid(T)
        np.testing.assert_allclose(B._tempering_bias(m, T, taus), self._four_pass(m, T, taus),
                                   rtol=1e-12, atol=0.0)


class TestTemperedRetainBound:
    def test_t1_is_untempered_bound(self):
        np.testing.assert_allclose(B.thm5_retain_bound(FLAT, 0.01, 1.0), 0.01 / 0.9, rtol=1e-15)

    def test_zero_delta_t1_is_zero(self):
        assert B.thm5_retain_bound(FLAT, 0.0, 1.0) == 0.0

    @pytest.mark.parametrize("gamma", [0.1, 0.3])
    @pytest.mark.parametrize("T", [1.5, 2.0, 3.0])
    def test_uniform_pair_matches_closed_form(self, gamma, T):
        # p is 1 - gamma on [2, 3], gamma on [0, 1] and 0 elsewhere, where
        # |ln p| counts as 0; H(p_r) = 0
        m = Mixture(gamma, UniformComponent(2.0, 3.0), UniformComponent(0.0, 1.0))

        def bracket(tau):
            num = ((1 - gamma) ** (1 / tau) * abs(math.log(1 - gamma))
                   + gamma ** (1 / tau) * abs(math.log(gamma)))
            return num / B.lemma2_partition_lower_bound(m, 0.01, tau)

        expected = 0.01 / (1 - gamma) + (1 - 1 / T) * max(bracket(1.0), bracket(T))
        np.testing.assert_allclose(B.thm5_retain_bound(m, 0.01, T), expected, rtol=1e-14)


def _scalar_crossings(g, lo, hi, seeds=(), rtol=1e-14):
    """The sign changes of a one-row g one at a time, from the same scan
    (each piece between seeds on its own ROOT_SCAN_POINTS evenly spaced
    points, a scan point where g is exactly 0 between values of opposite
    sign counting as a root) and under the same stopping rule, one scalar
    call per bisection step: the reference the batched, interpolating
    dist.sign_change_roots must match, root for root and each to its
    tolerance."""
    edges = [lo, *sorted({s for s in seeds if lo < s < hi}), hi]
    steps = np.arange(ROOT_SCAN_POINTS) / ROOT_SCAN_POINTS
    z = np.array([a + (b - a) * t for a, b in zip(edges, edges[1:]) for t in steps] + [hi])
    s = np.sign(g(z))
    roots = [float(z[i + 1]) for i in np.flatnonzero((s[1:-1] == 0) & (s[:-2] * s[2:] < 0))]
    for i in np.flatnonzero(s[:-1] * s[1:] < 0):
        a, b, sa = float(z[i]), float(z[i + 1]), s[i]
        for _ in range(80):
            mid = 0.5 * (a + b)
            sm = np.sign(g(np.array([mid]))[0])
            if sa * sm <= 0.0:
                b = mid
            else:
                a, sa = mid, sm
            if b - a < rtol * max(1.0, abs(mid)):
                break
        roots.append(0.5 * (a + b))
    return sorted(roots)


SPIKE = Mixture(0.1, GaussianComponent(1.0, 1.0), GaussianComponent(0.0, 1e-6))


class TestUnitDensityCrossings:
    """dist.sign_change_roots on ln p, the kinks of thm5's |ln p| integrand."""

    @pytest.mark.parametrize(
        "m",
        [
            GAUSS,
            FLAT,
            WITNESS,
            Mixture(0.3, GaussianComponent(0.0, 0.01), UniformComponent(-0.1, 0.1)),
            SPIKE,
        ],
    )
    def test_batched_roots_equal_scalar_bisection(self, m):
        seeds = quadrature_domain(m, B.default_tau_grid(3.0))[2]
        for tau in B.default_tau_grid(3.0):
            lo, hi, _ = quadrature_domain(m, [float(tau)])
            roots = sign_change_roots(m.log_density, lo, hi, seeds)
            reference = _scalar_crossings(m.log_density, lo, hi, seeds)
            assert len(roots) == len(reference)
            for r, ref in zip(roots, reference):
                assert abs(r - ref) <= 1e-14 * max(1.0, abs(ref))
            if m is GAUSS:
                assert len(roots) == 2

    @pytest.mark.parametrize("T", [1.1, 1.5, 2.0, 3.0])
    def test_spike_roots_found_through_the_seeds(self, T):
        # ln p > 0 only on |z| < 0.0028; the pieces between the spike's
        # core seeds are scanned on as many points as the wide tails
        lo, hi, seeds = quadrature_domain(SPIKE, B.default_tau_grid(T))
        roots = sign_change_roots(SPIKE.log_density, lo, hi, seeds)
        assert len(roots) == 2
        assert -0.003 < roots[0] < -0.002 and 0.002 < roots[1] < 0.003
        np.testing.assert_allclose(SPIKE.log_density(np.array(roots)), 0.0, atol=1e-9)



def _quadratic_row(c, d):
    return lambda z: (z - c) ** 2 - d


def _log_density_row(gamma, mu_r, v_r, mu_f, v_f, level):
    m = Mixture(gamma, GaussianComponent(mu_r, v_r), GaussianComponent(mu_f, v_f))
    return lambda z: m.log_density(z) - level


ROOT_ROWS = st.one_of(
    st.builds(_quadratic_row, st.floats(-3.0, 3.0), st.floats(0.05, 4.0)),
    st.builds(_log_density_row, st.floats(0.05, 0.95), st.floats(-2.0, 2.0), st.floats(0.1, 2.0),
              st.floats(-2.0, 2.0), st.floats(0.1, 2.0), st.floats(-6.0, 0.0)),
)


class TestSignChangeRootsProperty:
    @settings(max_examples=100, deadline=None)
    @given(rows=st.lists(ROOT_ROWS, min_size=1, max_size=3),
           rtol=st.sampled_from([1e-14, 1e-9, 1e-6]))
    def test_rows_match_scalar_bisection(self, rows, rtol):
        lo, hi = -5.0, 5.0
        reference = []
        for row in rows:
            found = np.array(_scalar_crossings(row, lo, hi, rtol=rtol))
            # a crossing so shallow that rounding noise in g moves it by
            # more than rtol has no unique root for the two methods to share
            assume(np.all(np.abs(row(found + 1e-6) - row(found - 1e-6)) > 1e-6))
            reference += found.tolist()
        reference.sort()
        roots = sign_change_roots(lambda z: np.stack([row(z) for row in rows]), lo, hi,
                                  rtol=rtol)
        assert len(roots) == len(reference)
        for r, ref in zip(roots, reference):
            assert abs(r - ref) <= rtol * max(1.0, abs(ref))

class TestTauGridBatching:
    """The batched tau grids against a per-tau loop of scalar quadratures."""

    @staticmethod
    def _thm4_bias_loop(m, T):
        biases = []
        for tau in B.default_tau_grid(T):
            oracle = build(m, oracle_classifier(m), [float(tau)])
            lo, hi, seeds = quadrature_domain(m, [T])

            def d(z):
                return oracle.density(z)[0]

            pf2 = quadrature(lambda z: d(z) * np.exp(2 * m.forget.log_density(z)), lo, hi,
                             breakpoints=seeds)
            m1 = quadrature(lambda z: d(z) * m.log_density(z), lo, hi, breakpoints=seeds)
            m2 = quadrature(lambda z: d(z) * m.log_density(z) ** 2, lo, hi, breakpoints=seeds)
            biases.append((1 - 1 / T) * math.sqrt(pf2) * math.sqrt(max(m2 - m1 * m1, 0.0)))
        return max(biases)

    @staticmethod
    def _thm5_loop(m, delta, T):
        worst = -math.inf
        for tau in map(float, B.default_tau_grid(T)):
            lo, hi, seeds = quadrature_domain(m, [1.0, tau])
            seeds += sign_change_roots(m.log_density, lo, hi, seeds)
            num = quadrature(lambda z: np.exp(m.log_density(z) / tau) * np.abs(m.log_density(z)),
                             lo, hi, breakpoints=seeds)
            worst = max(worst, num / B.lemma2_partition_lower_bound(m, delta, tau)
                        - m.retain.entropy())
        return delta / (1 - m.gamma) + (1 - 1 / T) * worst

    @pytest.mark.parametrize("m", [GAUSS, FLAT, SPIKE])
    @pytest.mark.parametrize("T", [1.5, 3.0])
    def test_thm4_bias_matches_per_tau_loop(self, m, T):
        batched = float(np.max(B._tempering_bias(m, T, B.default_tau_grid(T))))
        np.testing.assert_allclose(batched, self._thm4_bias_loop(m, T), rtol=1e-8)

    @pytest.mark.parametrize("m", [GAUSS, FLAT, SPIKE])
    @pytest.mark.parametrize("T", [1.5, 3.0])
    def test_thm5_matches_per_tau_loop(self, m, T):
        np.testing.assert_allclose(
            B.thm5_retain_bound(m, 0.01, T), self._thm5_loop(m, 0.01, T), rtol=1e-8
        )

    @pytest.mark.parametrize("T", [1.1, 1.5, 2.0, 3.0])
    def test_thm5_finite_at_sharpest_forget_variance(self, T):
        assert math.isfinite(B.thm5_retain_bound(SPIKE, 0.01, T))


class TestSupOverTau:
    """thm5 evaluates its bracket at tau = 1 and tau = T only, which its
    convexity in 1/tau makes the sup; thm4 keeps a 25-point grid, checked
    here against a fine grid."""

    @staticmethod
    def _thm5_on_grid(m, delta, T):
        # the bracket maximized over the 25-point tau grid, one batched quadrature
        taus = B.default_tau_grid(T)
        lo, hi, seeds = quadrature_domain(m, taus)
        seeds += sign_change_roots(m.log_density, lo, hi, seeds)

        def integrand(z):
            lp = m.log_density(z)
            return np.exp(lp / taus[:, None]) * np.abs(lp)

        num = quadrature(integrand, lo, hi, breakpoints=seeds)
        denom = np.array([B.lemma2_partition_lower_bound(m, delta, tau) for tau in taus])
        worst = float(np.max(num / denom - m.retain.entropy()))
        return delta / (1.0 - m.gamma) + (1.0 - 1.0 / T) * worst

    @pytest.mark.parametrize("v_f", [1e-6, 1e-4, 1e-3, 1e-2, 0.3, 1.0])
    @pytest.mark.parametrize("T", [1.5, 2.0, 3.0])
    def test_thm5_endpoints_equal_the_grid_maximum(self, v_f, T):
        # the grid maximum sits at tau = T on all of these
        m = Mixture(0.1, GaussianComponent(1.0, 1.0), GaussianComponent(0.0, v_f))
        np.testing.assert_allclose(
            B.thm5_retain_bound(m, 0.01, T), self._thm5_on_grid(m, 0.01, T), rtol=1e-12
        )

    def test_thm5_keeps_tau_one_where_it_is_the_maximum(self):
        # a sharp retain component and a sharper spike: the max is at tau = 1
        m = Mixture(0.1, GaussianComponent(1.0, 1e-2), GaussianComponent(0.0, 1e-6))
        np.testing.assert_allclose(
            B.thm5_retain_bound(m, 0.01, 1.5), self._thm5_on_grid(m, 0.01, 1.5), rtol=1e-12
        )

    @settings(max_examples=20, deadline=None)
    @given(
        gamma=st.floats(0.05, 0.5),
        log10_v_f=st.floats(-6.0, 0.0),
        T=st.floats(1.05, 3.0),
    )
    def test_thm4_grid_maximum_matches_a_fine_grid(self, gamma, log10_v_f, T):
        m = Mixture(gamma, GaussianComponent(1.0, 1.0), GaussianComponent(0.0, 10.0 ** log10_v_f))
        grid = float(np.max(B._tempering_bias(m, T, B.default_tau_grid(T))))
        # 201 taus in chunks of at most DEFAULT_TAU_POINTS rows, the grid's own
        # row count, so that each quadrature stays under MAX_EVALUATIONS
        fine_taus = np.linspace(1.0, T, 8 * B.DEFAULT_TAU_POINTS + 1)
        chunks = np.array_split(fine_taus, 9)
        assert max(len(c) for c in chunks) <= B.DEFAULT_TAU_POINTS
        fine = max(float(np.max(B._tempering_bias(m, T, c))) for c in chunks)
        assert fine <= grid * (1.0 + 1e-9)


POSITIVE_INPUTS = {
    "thm2 pf_inf": ("pf_inf", lambda x: B.thm2_forget_bound(0.01, 0.1, x)),
    "thm3 pf_inf": ("pf_inf", lambda x: B.thm3_forget_lower_bound(0.01, 0.1, x)),
    "prop1 phi_star_norm": ("phi_star_norm", lambda x: B.prop1_risk_bound(100, x, 1.0)),
    "prop1 expected_feature_sq_norm": (
        "expected_feature_sq_norm", lambda x: B.prop1_risk_bound(100, 1.0, x)
    ),
    "log integral v": ("v", lambda x: B.tempered_gaussian_log_integral(x, 2.0)),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
@pytest.mark.parametrize("case", sorted(POSITIVE_INPUTS))
def test_rejects_a_nonpositive_or_nonfinite_input(case, value):
    # NaN and inf passed every one of these checks, and -1 both pf_inf ones,
    # giving a NaN, infinite or negative bound; prop1's error named no input
    name, evaluate = POSITIVE_INPUTS[case]
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        evaluate(value)


class TestProposition1:
    def test_rate_identity(self):
        _, b1 = B.prop1_risk_bound(100, 1.7, 3.3)
        _, b4 = B.prop1_risk_bound(400, 1.7, 3.3)
        np.testing.assert_allclose(b4, b1 / 2.0, rtol=1e-12)

    def test_arithmetic(self):
        lam_star, bound = B.prop1_risk_bound(100, 1.0, 2.0)
        np.testing.assert_allclose(lam_star, 0.2, rtol=1e-14)
        np.testing.assert_allclose(bound, 0.4, rtol=1e-14)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            B.prop1_risk_bound(0, 1.0, 1.0)


class TestTemperedLogIntegral:
    def test_tau_one_equals_entropy(self):
        np.testing.assert_allclose(
            B.tempered_gaussian_log_integral(1.0, 1.0),
            0.5 + 0.5 * math.log(2 * math.pi),
            rtol=1e-14,
        )

    def test_log_term_vanishes_at_minimum_variance(self):
        # at v = 1/(2 pi) the ln(2 pi v) term is 0, leaving sqrt(tau) * tau / 2
        val = B.tempered_gaussian_log_integral(1.0 / (2 * math.pi), 2.0)
        np.testing.assert_allclose(val, math.sqrt(2.0), rtol=1e-14)

    @pytest.mark.parametrize("v", [1.0 / (2 * math.pi), 1.0, 4.0])
    @pytest.mark.parametrize("tau", [1.0, 2.0, 3.0])
    def test_matches_quadrature(self, v, tau):
        g = GaussianComponent(0.0, v)
        half = 12.0 * math.sqrt(tau * v)

        def integrand(z):
            lp = g.log_density(z)
            return np.exp(lp / tau) * np.abs(lp)

        q = quadrature(integrand, -half, half, tol=1e-10)
        np.testing.assert_allclose(q, B.tempered_gaussian_log_integral(v, tau), rtol=1e-6)

    def test_rejects_small_variance(self):
        with pytest.raises(ValueError):
            B.tempered_gaussian_log_integral(0.1, 1.0)


class TestBoundReport:
    def test_sound_flag(self):
        r = B.BoundReport("x", {}, bound_value=1.0, measured_value=1.1, measured_std_err=0.05)
        assert r.sound  # 1.1 <= 1.0 + 0.15
        r2 = B.BoundReport("x", {}, bound_value=1.0, measured_value=1.2, measured_std_err=0.05)
        assert not r2.sound
