"""Properties of the shared sigmoid, softplus and log-sigmoid formulas, the
bits of gauss_logpdf, sigmoid, softplus and mean_se against the formulas
they replace, the memory gauss_logpdf allocates, and the steps the shared
Armijo line search tries and accepts."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from t3 import _kernels as K

# finite logits in +-1e4 reach far past exp's overflow point (~709) on both tails
LOGITS = arrays(np.float64, st.integers(1, 64), elements=st.floats(-1e4, 1e4))
EXTREMES = np.array([-1e4, -50.0, 0.0, 50.0, 1e4])


@given(LOGITS)
@example(EXTREMES)
def test_sigmoid_is_symmetric_and_in_range(t):
    s = K.sigmoid(t)
    assert np.all(np.isfinite(s) & (s >= 0.0) & (s <= 1.0))
    np.testing.assert_allclose(s + K.sigmoid(-t), 1.0, rtol=0.0, atol=1e-15)


@given(LOGITS)
@example(EXTREMES)
def test_log_sigmoid_is_negated_softplus_and_finite(t):
    sp, log_s = K.softplus(t), K.log_sigmoid(t)
    assert np.all(np.isfinite(sp) & (sp >= np.maximum(t, 0.0)))
    assert np.all(np.isfinite(log_s) & (log_s <= 0.0))
    np.testing.assert_array_equal(log_s, -K.softplus(-t))


def _two_division_sigmoid(t):
    # the former formula: 1 / (1 + e) for t >= 0 and e / (1 + e) below, with
    # e = e^-|t| floored at e^-700 as in the kernel
    e = np.exp(np.maximum(-np.abs(t), -700.0))
    return np.where(t >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


def test_sigmoid_bits_match_the_two_division_form():
    special = np.array([0.0, 1e-300, 745.0, 1e308, np.inf])
    t = np.concatenate([special, -special, np.random.default_rng(3).normal(scale=20.0, size=500)])
    ref = _two_division_sigmoid(t).view(np.uint64)
    np.testing.assert_array_equal(K.sigmoid(t).view(np.uint64), ref)
    # the floored tail: e^-700 / (1 + e^-700) rounds to e^-700
    assert K.sigmoid(-special[2:]).tolist() == [math.exp(-700.0)] * 3
    # in place over t itself, as QuadClassifier.predict calls it
    in_place = t.copy()
    assert K.sigmoid(in_place, out=in_place) is in_place
    np.testing.assert_array_equal(in_place.view(np.uint64), ref)
    assert np.isnan(K.sigmoid(np.array([np.nan]))[0])


def test_softplus_bits_match_the_fresh_array_form_and_run_in_place():
    special = np.array([0.0, 1e-300, 27.6, 745.0, 1e308, np.inf])
    t = np.concatenate([special, -special, np.random.default_rng(4).normal(scale=20.0, size=500)])
    # the former formula: max(t, 0) + ln(1 + e^-|t|) in fresh arrays
    ref = (np.maximum(t, 0.0) + np.log1p(np.exp(np.maximum(-np.abs(t), -700.0)))).view(np.uint64)
    np.testing.assert_array_equal(K.softplus(t).view(np.uint64), ref)
    in_place = t.copy()
    assert K.softplus(in_place, out=in_place) is in_place
    np.testing.assert_array_equal(in_place.view(np.uint64), ref)


def test_exp_floor_sets_the_tail_values_exactly():
    # below -700 the exponent is floored, so every tail value is the one at
    # e^-700 exactly; at -700 and above, e^-|t| is np.exp's own value
    e700 = math.exp(-700.0)
    tail = np.array([700.5, 707.5, 708.0, 745.0, 1e4, 1e308, np.inf])
    assert K.sigmoid(-tail).tolist() == [e700] * tail.size
    assert K.sigmoid(tail).tolist() == [1.0] * tail.size
    assert K.softplus(-tail).tolist() == [e700] * tail.size
    assert K.softplus(tail).tolist() == tail.tolist()
    assert K.log_sigmoid(tail).tolist() == [-e700] * tail.size
    inside = np.array([-700.0, -699.5, -50.0, -1.0])
    e = np.exp(inside)
    assert K.sigmoid(inside).tolist() == (e / (1.0 + e)).tolist()
    assert K.softplus(inside).tolist() == np.log1p(e).tolist()
    for f in (K.sigmoid, K.softplus, K.log_sigmoid):
        out = f(np.array([np.nan, -1e4, 1e4]))
        assert np.isnan(out[0]) and np.all(np.isfinite(out[1:]))


@pytest.mark.parametrize("n", [2, 3, 1000, 100_001])
def test_mean_se_bits_match_numpy(n):
    terms = np.random.default_rng(n).lognormal(sigma=2.0, size=n) - 1.0
    copy = terms.copy()
    mean, se = K.mean_se(terms)
    assert mean == float(np.mean(terms))
    assert se == float(np.std(terms, ddof=1) / np.sqrt(n))
    np.testing.assert_array_equal(terms, copy)  # the input is left alone


def _subtracted_gauss_logpdf(z, mu, v):
    # the former formula: c - (z - mu)^2 / (2v), four fresh arrays
    return -0.5 * (K.LOG_2PI + np.log(v)) - np.square(z - mu) / (2.0 * v)


@pytest.mark.parametrize("seed", range(4))
def test_gauss_logpdf_bits_match_the_subtracted_form(seed):
    rng = np.random.default_rng(seed)
    for _ in range(25):
        mu = float(rng.uniform(-10.0, 10.0))
        v = float(10.0 ** rng.uniform(-12.0, 2.0))
        z = np.concatenate([
            rng.uniform(-1e3, 1e3, 200),
            rng.normal(mu, np.sqrt(v), 200),
            [mu, -1e3, 1e3],
        ])
        got = K.gauss_logpdf(z, mu, v)
        assert repr(got.tolist()) == repr(_subtracted_gauss_logpdf(z, mu, v).tolist())


def test_gauss_logpdf_allocates_only_its_output():
    # the log-density is formed in its one output array: the peak traced
    # allocation stays under 1.1 float64 arrays of n (the subtracted form
    # holds two at once)
    n = 100_000
    z = np.random.default_rng(0).normal(size=n)
    K.gauss_logpdf(z, 0.3, 2.0)
    tracemalloc.start()
    try:
        K.gauss_logpdf(z, 0.3, 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.1 * 8 * n


class TestArmijo:
    def test_keeps_the_values_both_inline_searches_had(self):
        # pinned here because no workload and no bits test reaches the 80-try cap
        assert (K.ARMIJO_C, K.BACKTRACK, K.MAX_BACKTRACKS) == (1e-4, 0.5, 80)

    def test_returns_the_first_sufficiently_decreasing_step_of_exact_backtracks(self):
        tried = []

        def trial(step):
            tried.append(step)
            return (2.0 if step > 0.2 else 0.0,)

        step, _ = K.armijo(trial, 1.0, -1.0, 3.0)
        assert tried == [3.0 * K.BACKTRACK**j for j in range(5)] and step == tried[-1]

    def test_plain_decrease_is_not_enough(self):
        # 1 - 1e-5 lies below value = 1, but meets 1 + ARMIJO_C*step*slope
        # only from step 1/16 down; the bound itself passes
        assert K.armijo(lambda st: (1.0 - 1e-5,), 1.0, -1.0, 1.0)[0] == 0.0625
        assert K.armijo(lambda st: (1.0 - K.ARMIJO_C * st,), 1.0, -1.0, 1.0)[0] == 1.0

    @pytest.mark.parametrize("objective", [math.inf, math.nan])
    def test_gives_up_after_exactly_max_backtracks_tries(self, objective):
        tried = []

        def trial(step):
            tried.append(step)
            return (objective,)

        assert K.armijo(trial, 1.0, -1.0, 1.0) is None
        assert len(tried) == K.MAX_BACKTRACKS

    def test_a_nan_objective_is_never_accepted(self):
        step, _ = K.armijo(lambda st: (math.nan if st > 0.3 else -math.inf,), 0.0, -1.0, 1.0)
        assert step == 0.25

    def test_the_accepted_trial_result_comes_back_unchanged(self):
        result = (0.0, np.arange(3.0), "point")
        step, got = K.armijo(lambda st: result, 1.0, -1.0, 1.0)
        assert step == 1.0 and got is result
