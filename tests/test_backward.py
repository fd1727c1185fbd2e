"""Gradient correctness of the manual backward passes."""

import numpy as np

from bandsel.models import BandSelectorConv, BandSelectorFC
from bandsel.nn import Conv2DLayer, DenseLayer, GlobalAveragePool, LayerStack

from oracles import finite_difference, relative_error


def stack_param_check(stack, x, upstream_seed=0, step=1e-5, tol=1e-6):
    """Compare every parameter gradient of sum(stack(x) * fixed_noise) to finite differences."""
    out = stack.forward(x)
    weights = np.random.default_rng(upstream_seed).standard_normal(out.shape)

    def scalar():
        return float(np.sum(stack.forward(x) * weights))

    input_grad = stack.backward(weights, stack.activations(x))
    for layer in stack.layers:
        for field in layer.param_fields:
            grad = getattr(layer, f"grad_{field}").copy()
            fd = finite_difference(scalar, getattr(layer, field), step)
            assert relative_error(grad, fd).max() < tol
    fd_in = finite_difference(scalar, x, step)
    assert relative_error(input_grad, fd_in).max() < tol


def test_identity_dense_bias_gradient_is_ones():
    # d/d_bias of sum(output) for a single identity dense layer.
    layer = DenseLayer(3, 3, "identity", rng=np.random.default_rng(0))
    x = np.random.default_rng(1).random((4, 3))
    layer.backward(np.ones((4, 3)), x, layer.forward(x))
    np.testing.assert_array_equal(layer.grad_bias, np.full(3, 4.0))


def test_zero_residual_means_zero_gradients():
    # A 1x1-conv "network" that reproduces its input exactly: the squared
    # error term contributes no gradient anywhere.
    layer = Conv2DLayer(2, 2, 1, activation="identity", rng=np.random.default_rng(0))
    layer.kernels = np.eye(2).reshape(1, 1, 2, 2)
    layer.bias = np.zeros(2)
    x = np.random.default_rng(2).random((3, 4, 4, 2))
    out = layer.forward(x)
    resid = out - x
    np.testing.assert_array_equal(resid, np.zeros_like(x))
    layer.backward(resid, x, out)
    np.testing.assert_array_equal(layer.grad_kernels, np.zeros_like(layer.kernels))
    np.testing.assert_array_equal(layer.grad_bias, np.zeros_like(layer.bias))


def test_two_layer_dense_gradients_match_finite_differences():
    rng = np.random.default_rng(3)
    stack = LayerStack([
        DenseLayer(5, 4, "relu", rng=rng),
        DenseLayer(4, 3, "sigmoid", rng=rng),
    ])
    stack_param_check(stack, rng.standard_normal((3, 5)))


def test_conv_stack_gradients_match_finite_differences():
    rng = np.random.default_rng(4)
    stack = LayerStack([
        Conv2DLayer(2, 3, 3, activation="relu", rng=rng),
        Conv2DLayer(3, 2, 1, activation="sigmoid", rng=rng),
    ])
    stack_param_check(stack, rng.random((2, 4, 4, 2)))


def test_pooled_conv_gradients_match_finite_differences():
    rng = np.random.default_rng(5)
    stack = LayerStack([
        Conv2DLayer(2, 3, 3, activation="relu", rng=rng),
        GlobalAveragePool(),
    ])
    stack_param_check(stack, rng.random((2, 5, 5, 2)))


class TestFullModelGradients:
    """The training objective's gradients through both branches and the junction."""

    def test_fc_model_all_parameters(self):
        rng = np.random.default_rng(10)
        model = BandSelectorFC(7, bam_hidden=(5, 6), rec_hidden=(4, 5, 6), rng=rng)
        x = rng.random((3, 7))
        model.backprop(x, 1e-2)
        grads = model.grads.copy()

        def scalar():
            return model.loss(x, 1e-2)

        for span in model.slices.values():
            fd = finite_difference(scalar, model.params[span], 1e-5)
            assert relative_error(grads[span], fd).max() < 5e-5

    def test_conv_model_all_parameters(self):
        rng = np.random.default_rng(11)
        model = BandSelectorConv(4, bam_conv_channels=3, bam_hidden=5,
                                 rec_channels=(4, 3, 3, 4), rng=rng)
        x = rng.random((2, 4, 4, 4))
        model.backprop(x, 1e-2)
        grads = model.grads.copy()

        def scalar():
            return model.loss(x, 1e-2)

        for span in model.slices.values():
            fd = finite_difference(scalar, model.params[span], 1e-5)
            assert relative_error(grads[span], fd).max() < 1e-4
