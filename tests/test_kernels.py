"""Properties of the shared sigmoid, softplus and log-sigmoid formulas."""

import numpy as np
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
