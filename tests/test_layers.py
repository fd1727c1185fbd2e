"""Forward-pass contracts of the layer zoo against loop oracles and identities."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bandsel.errors import ConfigError, DimensionError
from bandsel.nn import Conv2DLayer, DenseLayer, GlobalAveragePool, layers, sigmoid

from oracles import (
    conv2d_oracle,
    conv_kernel_grad_oracle,
    matmul_oracle,
    mean_pool_oracle,
    padded_correlate_reference,
    padded_kernel_grad_reference,
    sigmoid_oracle,
)


@st.composite
def conv_case(draw):
    """An identity-activation conv layer with an input x and an output-shaped y.

    Heights and widths are drawn independently, down to sizes below the
    kernel side, so padding reaches across the whole input. Each of x and y
    is C-ordered or the transposed view of a C-ordered array.
    """
    k = draw(st.sampled_from([1, 3, 5]))
    batch, h, w = draw(st.integers(1, 3)), draw(st.integers(1, 6)), draw(st.integers(1, 6))
    cin, cout = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    layer = Conv2DLayer(cin, cout, k, activation="identity", rng=rng)
    x, y = rng.standard_normal((batch, h, w, cin)), rng.standard_normal((batch, h, w, cout))
    return layer, *(np.ascontiguousarray(a.T).T if draw(st.booleans()) else a for a in (x, y))


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

    @given(conv_case())
    def test_matches_nested_loop_oracle(self, case):
        layer, x, _ = case
        expected = conv2d_oracle(x, layer.kernels) + layer.bias
        np.testing.assert_allclose(layer.forward(x), expected, rtol=1e-12, atol=1e-12)

    def test_channel_mismatch_raises(self):
        layer = Conv2DLayer(3, 4, 3, rng=np.random.default_rng(0))
        with pytest.raises(DimensionError, match="3"):
            layer.forward(np.zeros((1, 5, 5, 2)))

    def test_even_kernel_rejected(self):
        with pytest.raises(ConfigError):
            Conv2DLayer(1, 1, 2, rng=np.random.default_rng(0))

    @pytest.mark.parametrize("in_channels, out_channels", [(3, 0), (0, 3), (-1, 2), (2, -1)])
    def test_non_positive_channels_rejected(self, in_channels, out_channels):
        with pytest.raises(ConfigError, match="channels"):
            Conv2DLayer(in_channels, out_channels, 3, rng=np.random.default_rng(0))

    @given(conv_case())
    def test_keeps_the_padded_copy_references_bits(self, case):
        # The references run on C-ordered copies, so a transposed view must
        # give the bits of its C-ordered values. The one exception is a
        # kernel gradient that is a matrix-vector product (one input or output
        # channel) over a one-pixel-wide input where exactly one of batch and
        # height exceeds 1: there the reference hands BLAS a strided view of
        # its padded copy, and BLAS rounds that product differently.
        layer, x, y = case
        k, _, cin, cout = layer.kernels.shape
        batch, h, w, _ = x.shape
        xc, yc = np.ascontiguousarray(x), np.ascontiguousarray(y)
        out = layer.forward(x)
        np.testing.assert_array_equal(out, padded_correlate_reference(xc, layer.kernels) + layer.bias)
        d_x = layer.backward(y, x, out)
        np.testing.assert_array_equal(d_x, padded_correlate_reference(yc, layer.kernels[::-1, ::-1].transpose(0, 1, 3, 2)))
        np.testing.assert_array_equal(layer.grad_bias, y.sum(axis=(0, 1, 2)))
        expected = padded_kernel_grad_reference(xc, yc, layer.kernels.shape)
        if k > 1 and w == 1 and (batch > 1) != (h > 1) and min(cin, cout) == 1:
            np.testing.assert_allclose(layer.grad_kernels, expected, rtol=1e-12, atol=1e-12)
        else:
            np.testing.assert_array_equal(layer.grad_kernels, expected)

    @given(conv_case())
    def test_kernel_gradient_matches_nested_loop_oracle(self, case):
        layer, x, y = case
        layer.backward(y, x, layer.forward(x))
        expected = conv_kernel_grad_oracle(x, y, layer.kernels.shape[0])
        np.testing.assert_allclose(layer.grad_kernels, expected, rtol=1e-12, atol=1e-12)

    @given(conv_case())
    def test_adjointness_of_conv_and_transposed_conv(self, case):
        # The input gradient is the transposed convolution:
        # <conv(x), y> == <x, conv.backward(y)> for zero bias and identity
        # activation.
        layer, x, y = case
        layer.bias = np.zeros(layer.out_channels)
        out = layer.forward(x)
        lhs = np.sum(out * y)
        rhs = np.sum(x * layer.backward(y, x, out))
        scale = np.abs(x).sum() * np.abs(y).sum() * np.abs(layer.kernels).max()
        assert abs(lhs - rhs) <= 1e-12 * scale


def chunk_sizes(x, kernels, budget=layers.CONV_CHUNK_ELEMENTS):
    """``_correlate(x, kernels)`` under a chunk budget, and the sample count of each chunk."""
    with mock.patch.object(layers, "_add_taps", wraps=layers._add_taps) as spy, \
            mock.patch.object(layers, "CONV_CHUNK_ELEMENTS", budget):
        out = layers._correlate(x, kernels)
    return out, [call.args[0].shape[0] for call in spy.call_args_list]


class TestConvChunks:
    # The selector's conv shapes: attention conv bands -> 64, reconstruction
    # bands -> 128 -> 64 -> 64 -> 128 and the 1 x 1 head 128 -> bands.
    @pytest.mark.parametrize("cin, cout, k", [(100, 64, 3), (200, 64, 3), (100, 128, 3), (128, 64, 3),
                                              (64, 128, 3), (128, 200, 1)])
    def test_chunked_batch_keeps_the_reference_bits(self, cin, cout, k):
        rng = np.random.default_rng(cin + cout)
        x = rng.random((11, 7, 7, cin))
        kernels = Conv2DLayer(cin, cout, k, rng=rng).kernels
        out, chunks = chunk_sizes(x, kernels, budget=3 * 7 * 7 * cin + 5)
        assert chunks == [3, 3, 3, 2]
        np.testing.assert_array_equal(out, padded_correlate_reference(x, kernels))

    @pytest.mark.parametrize("cin, cout", [(100, 128), (200, 128), (128, 64), (64, 64), (64, 128)])
    def test_adjoint_under_a_small_budget_keeps_the_reference_bits(self, cin, cout):
        rng = np.random.default_rng(cin * cout)
        d = rng.standard_normal((11, 7, 7, cout))
        flipped = Conv2DLayer(cin, cout, 3, rng=rng).kernels[::-1, ::-1].transpose(0, 1, 3, 2)
        out, _ = chunk_sizes(d, flipped, budget=7 * 7 * cout)
        np.testing.assert_array_equal(out, padded_correlate_reference(d, flipped))

    @pytest.mark.parametrize("channels", [1, 64, 100, 128])
    def test_a_training_batch_is_one_chunk(self, channels):
        _, chunks = chunk_sizes(np.zeros((32, 7, 7, channels)), np.zeros((3, 3, channels, 64)))
        assert chunks == [32]

    def test_one_by_one_samples_are_one_chunk(self):
        # A 1 x 1 sample is one GEMM row, and a one-row product (gemv) rounds
        # differently from the rows of the whole batch's product.
        rng = np.random.default_rng(20)
        x = rng.standard_normal((3, 1, 1, 2))
        kernels = Conv2DLayer(2, 4, 3, rng=rng).kernels
        out, chunks = chunk_sizes(x, kernels, budget=1)
        assert chunks == [3]
        np.testing.assert_array_equal(out, padded_correlate_reference(x, kernels))

    @given(case=conv_case(), budget=st.integers(1, 120))
    def test_any_budget_keeps_the_layers_bits(self, case, budget):
        layer, x, y = case
        with mock.patch.object(layers, "CONV_CHUNK_ELEMENTS", budget):
            out = layer.forward(x)
            d_x = layer.backward(y, x, out)
        xc, yc = np.ascontiguousarray(x), np.ascontiguousarray(y)
        np.testing.assert_array_equal(out, padded_correlate_reference(xc, layer.kernels) + layer.bias)
        np.testing.assert_array_equal(d_x, padded_correlate_reference(yc, layer.kernels[::-1, ::-1].transpose(0, 1, 3, 2)))


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
    def test_sigmoid_is_stable_at_extremes(self):
        out = sigmoid(np.array([-1000.0, 0.0, 1000.0]))
        assert out[0] == 0.0 and out[1] == 0.5 and out[2] == 1.0
        assert np.all(np.isfinite(out))

    @given(st.lists(st.floats(allow_nan=False) | st.sampled_from([0.0, -0.0, np.inf, -np.inf]),
                    min_size=1, max_size=64))
    def test_sigmoid_equals_masked_oracle_exactly(self, values):
        x = np.array(values)
        np.testing.assert_array_equal(sigmoid(x), sigmoid_oracle(x))
