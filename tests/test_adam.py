"""Adam update rule against a scalar reference implementation."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bandsel.errors import NumericError
from bandsel.nn import AdamState, adam_step

from oracles import scalar_adam_oracle


def test_zero_gradient_leaves_parameters_unchanged():
    params = np.array([1.0, -2.0, 3.0])
    state = AdamState(params)
    before = params.copy()
    adam_step(params, np.zeros(3), state, 0.1)
    np.testing.assert_array_equal(params, before)
    assert state.step_count == 1


def test_constant_gradient_moves_against_its_sign():
    params = np.array([0.0, 0.0])
    grad = np.array([2.5, -0.3])
    state = AdamState(params)
    for _ in range(50):
        adam_step(params, grad.copy(), state, 0.01)
    assert params[0] < 0 and params[1] > 0
    assert state.step_count == 50


def test_quadratic_descent_matches_scalar_oracle():
    # L(theta) = theta^2 from theta = 1 with lr 0.1 for 10 steps.
    params = np.array([1.0])
    state = AdamState(params)
    history = []
    for _ in range(10):
        grad = 2.0 * params
        adam_step(params, grad, state, 0.1)
        history.append(float(params[0]))
    expected = scalar_adam_oracle(1.0, lambda th: 2.0 * th, 0.1, 10)
    np.testing.assert_allclose(history, expected, atol=1e-10)
    assert abs(history[-1]) < 1.0


@given(start=st.lists(st.floats(-10, 10), min_size=1, max_size=6),
       lr=st.floats(1e-4, 1.0), steps=st.integers(1, 20), data=st.data())
def test_random_gradients_match_scalar_oracle(start, lr, steps, data):
    grads = data.draw(st.lists(st.lists(st.floats(-1e3, 1e3), min_size=len(start), max_size=len(start)),
                               min_size=steps, max_size=steps))
    params = np.array(start)
    state = AdamState(params)
    for grad in grads:
        adam_step(params, np.array(grad), state, lr)
    for i, theta in enumerate(start):
        per_step = iter(grad[i] for grad in grads)
        expected = scalar_adam_oracle(theta, lambda _: next(per_step), lr, steps)[-1]
        assert params[i] == pytest.approx(expected, rel=1e-12, abs=1e-12)
    assert state.step_count == steps


def test_nonfinite_gradient_names_parameter():
    params = np.zeros(5)
    state = AdamState(params)
    bad = np.array([0.0, 0.0, 0.0, np.nan, np.inf])
    names = {"first": slice(0, 2), "second": slice(2, 5)}
    with pytest.raises(NumericError, match="second"):
        adam_step(params, bad, state, 0.1, names=names)
    np.testing.assert_array_equal(params, np.zeros(5))
    assert state.step_count == 0

