"""MSE loss value/gradient tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.nn.losses import MeanSquaredError

from .gradcheck import numerical_gradient, relative_error

RNG = np.random.default_rng(3)

finite_floats = st.floats(min_value=-100, max_value=100, allow_nan=False)


class TestMeanSquaredError:
    def test_zero_for_perfect_prediction(self):
        x = RNG.normal(size=(4, 3))
        assert MeanSquaredError().value(x, x.copy()) == 0.0

    def test_known_value(self):
        y = np.array([[0.0, 0.0]])
        p = np.array([[1.0, 3.0]])
        assert MeanSquaredError().value(y, p) == pytest.approx(5.0)

    def test_gradient_matches_numeric(self):
        loss = MeanSquaredError()
        y = RNG.normal(size=(3, 4))
        p = RNG.normal(size=(3, 4))
        analytic = loss.gradient(y, p)
        numeric = numerical_gradient(lambda v: loss.value(y, v), p.copy())
        assert relative_error(analytic, numeric) < 1e-6

    def test_per_sample_mean_equals_value(self):
        y = RNG.normal(size=(5, 3))
        p = RNG.normal(size=(5, 3))
        per = MeanSquaredError.per_sample(y, p)
        assert per.shape == (5,)
        assert per.mean() == pytest.approx(MeanSquaredError().value(y, p))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            MeanSquaredError().value(np.zeros((2, 2)), np.zeros((2, 3)))

    @given(arrays(np.float64, (4, 3), elements=finite_floats))
    @settings(max_examples=25, deadline=None)
    def test_non_negative(self, p):
        y = np.zeros((4, 3))
        assert MeanSquaredError().value(y, p) >= 0.0

