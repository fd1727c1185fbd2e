"""Forward-pass contracts of the layer zoo against loop oracles and identities."""

import numpy as np
import pytest

from bandsel.errors import ConfigError, DimensionError, StateError
from bandsel.nn import Conv2DLayer, DenseLayer, GlobalAveragePool, sigmoid

from oracles import conv2d_oracle, matmul_oracle, mean_pool_oracle


class TestDenseForward:
    def test_identity_weights_pass_input_through(self):
        layer = DenseLayer(2, 2, "identity", rng=np.random.default_rng(0))
        layer.weights = np.eye(2)
        layer.bias = np.zeros(2)
        out = layer.forward(np.array([[1.0, 2.0]]))
        np.testing.assert_array_equal(out, [[1.0, 2.0]])

    def test_zero_weights_sigmoid_gives_half(self):
        layer = DenseLayer(5, 4, "sigmoid", rng=np.random.default_rng(0))
        layer.weights = np.zeros((5, 4))
        layer.bias = np.zeros(4)
        out = layer.forward(np.random.default_rng(1).random((3, 5)))
        np.testing.assert_array_equal(out, np.full((3, 4), 0.5))

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(42)
        layer = DenseLayer(3, 4, "identity", rng=rng)
        x = rng.standard_normal((2, 3))
        expected = matmul_oracle(x, layer.weights, layer.bias)
        np.testing.assert_allclose(layer.forward(x), expected, rtol=1e-12)

    def test_shape_mismatch_names_both_shapes(self):
        layer = DenseLayer(3, 4, rng=np.random.default_rng(0))
        with pytest.raises(DimensionError, match=r"3.*\(2, 5\)"):
            layer.forward(np.zeros((2, 5)))

    def test_preactivation_linearity(self):
        rng = np.random.default_rng(7)
        layer = DenseLayer(6, 3, "identity", rng=rng)
        x = rng.standard_normal((4, 6))
        y = rng.standard_normal((4, 6))
        alpha, beta = 1.7, -0.4
        lhs = layer.forward(alpha * x + beta * y)
        rhs = alpha * layer.forward(x) + beta * layer.forward(y) - (alpha + beta - 1) * layer.bias
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_sigmoid_outputs_stay_in_open_unit_interval(self):
        rng = np.random.default_rng(3)
        layer = DenseLayer(8, 8, "sigmoid", rng=rng)
        out = layer.forward(rng.standard_normal((16, 8)) * 3)
        assert np.all(out > 0) and np.all(out < 1)


class TestConvForward:
    def test_one_by_one_identity_kernel(self):
        layer = Conv2DLayer(1, 1, 1, activation="identity", rng=np.random.default_rng(0))
        layer.kernels = np.ones((1, 1, 1, 1))
        layer.bias = np.zeros(1)
        x = np.random.default_rng(1).random((2, 4, 5, 1))
        np.testing.assert_array_equal(layer.forward(x), x)

    def test_zero_kernel_constant_bias(self):
        layer = Conv2DLayer(2, 3, 3, activation="identity", rng=np.random.default_rng(0))
        layer.kernels = np.zeros((3, 3, 2, 3))
        layer.bias = np.array([1.5, -2.0, 0.25])
        out = layer.forward(np.random.default_rng(1).random((1, 6, 6, 2)))
        np.testing.assert_array_equal(out, np.broadcast_to(layer.bias, (1, 6, 6, 3)))

    def test_matches_nested_loop_oracle(self):
        rng = np.random.default_rng(11)
        layer = Conv2DLayer(2, 3, 3, activation="identity", rng=rng)
        x = rng.standard_normal((1, 5, 5, 2))
        expected = conv2d_oracle(x, layer.kernels) + layer.bias
        np.testing.assert_allclose(layer.forward(x), expected, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("stride", [1, 2, 3])
    def test_strided_output_shape_is_ceil(self, stride):
        rng = np.random.default_rng(5)
        layer = Conv2DLayer(2, 4, 3, stride=stride, rng=rng)
        out = layer.forward(rng.random((2, 7, 5, 2)))
        assert out.shape == (2, -(-7 // stride), -(-5 // stride), 4)

    @pytest.mark.parametrize("stride", [1, 2])
    def test_strided_oracle_agreement(self, stride):
        rng = np.random.default_rng(13)
        layer = Conv2DLayer(3, 2, 3, stride=stride, activation="identity", rng=rng)
        x = rng.standard_normal((2, 6, 7, 3))
        expected = conv2d_oracle(x, layer.kernels, stride) + layer.bias
        np.testing.assert_allclose(layer.forward(x), expected, rtol=1e-12, atol=1e-12)

    def test_transposed_upsamples_by_stride(self):
        rng = np.random.default_rng(5)
        layer = Conv2DLayer(2, 3, 3, stride=2, transposed=True, rng=rng)
        out = layer.forward(rng.random((1, 4, 5, 2)))
        assert out.shape == (1, 8, 10, 3)

    def test_channel_mismatch_raises(self):
        layer = Conv2DLayer(3, 4, 3, rng=np.random.default_rng(0))
        with pytest.raises(DimensionError, match="3"):
            layer.forward(np.zeros((1, 5, 5, 2)))

    def test_even_kernel_rejected(self):
        with pytest.raises(ConfigError):
            Conv2DLayer(1, 1, 2, rng=np.random.default_rng(0))

    def test_adjointness_of_conv_and_transposed_conv(self):
        # <conv(x), y> == <x, transposed(y)> when the transposed layer holds
        # the channel-swapped kernels and both use stride 1, zero bias,
        # identity activation.
        rng = np.random.default_rng(21)
        conv = Conv2DLayer(3, 4, 3, activation="identity", rng=rng)
        conv.bias = np.zeros(4)
        tconv = Conv2DLayer(4, 3, 3, activation="identity", transposed=True, rng=rng)
        tconv.kernels = conv.kernels.transpose(0, 1, 3, 2).copy()
        tconv.bias = np.zeros(3)
        for trial in range(5):
            x = rng.standard_normal((2, 6, 5, 3))
            y = rng.standard_normal((2, 6, 5, 4))
            lhs = np.sum(conv.forward(x) * y)
            rhs = np.sum(x * tconv.forward(y))
            assert abs(lhs - rhs) <= 1e-8 * max(abs(lhs), abs(rhs))


class TestGlobalPool:
    def test_constant_input(self):
        pool = GlobalAveragePool()
        out = pool.forward(np.full((2, 3, 4, 5), 7.25))
        np.testing.assert_array_equal(out, np.full((2, 5), 7.25))

    def test_two_by_two_mean(self):
        pool = GlobalAveragePool()
        x = np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 2, 2, 1)
        np.testing.assert_array_equal(pool.forward(x), [[2.5]])

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(17)
        x = rng.standard_normal((2, 4, 4, 3))
        expected = mean_pool_oracle(x).reshape(2, 3)
        np.testing.assert_allclose(GlobalAveragePool().forward(x), expected, rtol=1e-12)


class TestStackAndState:
    def test_backward_before_forward_raises(self):
        layer = DenseLayer(3, 3, rng=np.random.default_rng(0))
        with pytest.raises(StateError):
            layer.backward(np.zeros((1, 3)))
        pool = GlobalAveragePool()
        with pytest.raises(StateError):
            pool.backward(np.zeros((1, 2)))

    def test_sigmoid_is_stable_at_extremes(self):
        out = sigmoid(np.array([-1000.0, 0.0, 1000.0]))
        assert out[0] == 0.0 and out[1] == 0.5 and out[2] == 1.0
        assert np.all(np.isfinite(out))
