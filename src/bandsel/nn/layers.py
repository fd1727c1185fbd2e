"""Dense, convolutional and pooling layers with hand-written gradients.

Arrays are the tensor carrier throughout: C-ordered float64 ndarrays, which
the layers take as given (the model casts its batch once).
Each layer with parameters names them in the class tuple ``param_fields``;
every field ``f`` has a gradient partner ``grad_f`` of the same shape. Once a
layer belongs to a model, both are views into the model's flat ``params`` and
``grads`` vectors, so the layer must never rebind them. During forward a
layer caches its input and its output, and nothing else: the output alone
fixes the derivative of every activation (relu passes where the output is
positive, sigmoid scales by ``out * (1 - out)``). ``backward`` consumes the
cache, writes the parameter gradients in place into the ``grad_*`` views and
returns the gradient with respect to the layer input.

Spatial convolutions are stride 1 with zero-padded "same" geometry: an odd
``k x k`` kernel is padded by ``k // 2`` on every side, so height and width
pass through unchanged. The adjoint of that correlation in its input is the
same correlation with spatially flipped, channel-swapped kernels, so one
routine serves the forward pass and the input gradient.
"""

from __future__ import annotations

import numpy as np

from bandsel.errors import ConfigError, DimensionError, StateError

ACTIVATIONS = ("relu", "sigmoid", "identity")


def sigmoid(x):
    """Numerically stable logistic function: ``exp(-|x|)`` never overflows."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def glorot_uniform(rng, shape, fan_in, fan_out):
    """Uniform init in +-sqrt(6 / (fan_in + fan_out))."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def _check_activation(activation):
    if activation not in ACTIVATIONS:
        raise ConfigError(f"unknown activation {activation!r}; expected one of {ACTIVATIONS}")


def _apply_activation(activation, pre):
    if activation == "relu":
        return np.maximum(pre, 0.0)
    if activation == "sigmoid":
        return sigmoid(pre)
    return pre


def _activation_backward(activation, grad, out):
    """Gradient through the element-wise nonlinearity, from the cached output alone."""
    if activation == "relu":
        return grad * (out > 0)
    if activation == "sigmoid":
        return grad * out * (1.0 - out)
    return grad


class DenseLayer:
    """Fully connected layer: activation(x @ weights + bias)."""

    param_fields = ("weights", "bias")

    def __init__(self, in_dim, out_dim, activation="relu", *, rng):
        _check_activation(activation)
        if in_dim < 1 or out_dim < 1:
            raise ConfigError(f"dense dims must be positive, got {in_dim}x{out_dim}")
        self.in_dim = int(in_dim)
        self.out_dim = int(out_dim)
        self.activation = activation
        self.weights = glorot_uniform(rng, (in_dim, out_dim), in_dim, out_dim)
        self.bias = glorot_uniform(rng, (out_dim,), in_dim, out_dim)
        self.grad_weights = np.zeros_like(self.weights)
        self.grad_bias = np.zeros_like(self.bias)
        self._x = None
        self._out = None

    def forward(self, x):
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise DimensionError(
                f"dense layer expects input [batch, {self.in_dim}], got shape {tuple(x.shape)}"
            )
        self._x = x
        self._out = _apply_activation(self.activation, x @ self.weights + self.bias)
        return self._out

    def backward(self, grad):
        if self._x is None:
            raise StateError("backward called before forward on dense layer")
        d_pre = _activation_backward(self.activation, grad, self._out)
        self.grad_weights[...] = self._x.T @ d_pre
        self.grad_bias[...] = d_pre.sum(axis=0)
        return d_pre @ self.weights.T


def _correlate(x, kernels):
    """Stride-1 'same' cross-correlation: x [B,H,W,Cin], kernels [k,k,Cin,Cout] -> [B,H,W,Cout]."""
    batch, h, w, _ = x.shape
    k = kernels.shape[0]
    p = k // 2
    xp = np.pad(x, ((0, 0), (p, p), (p, p), (0, 0)))
    out = np.zeros((batch, h, w, kernels.shape[3]))
    for u in range(k):
        for v in range(k):
            out += np.tensordot(xp[:, u : u + h, v : v + w, :], kernels[u, v], axes=([3], [0]))
    return out


def _kernel_grad(x, grad, kernel_shape):
    """Gradient of ``sum(_correlate(x, kernels) * grad)`` with respect to the kernels."""
    _, h, w, _ = x.shape
    k = kernel_shape[0]
    p = k // 2
    xp = np.pad(x, ((0, 0), (p, p), (p, p), (0, 0)))
    dk = np.zeros(kernel_shape)
    for u in range(k):
        for v in range(k):
            dk[u, v] = np.tensordot(xp[:, u : u + h, v : v + w, :], grad, axes=([0, 1, 2], [0, 1, 2]))
    return dk


class Conv2DLayer:
    """Stride-1 'same' 2-D convolution over [B,H,W,C] inputs.

    ``kernel_size`` is one odd side ``k``; kernels are stored
    [k, k, in_channels, out_channels] and the output keeps the input's
    height and width. The input gradient is the forward correlation with
    spatially flipped, channel-swapped kernels.
    """

    param_fields = ("kernels", "bias")

    def __init__(self, in_channels, out_channels, kernel_size, *, activation="relu", rng):
        _check_activation(activation)
        if kernel_size < 1 or kernel_size % 2 == 0:
            raise ConfigError(f"kernel size must be a positive odd integer for same padding, got {kernel_size}")
        self.in_channels = int(in_channels)
        self.out_channels = int(out_channels)
        self.activation = activation
        k = int(kernel_size)
        fan_in = k * k * in_channels
        fan_out = k * k * out_channels
        self.kernels = glorot_uniform(rng, (k, k, in_channels, out_channels), fan_in, fan_out)
        self.bias = glorot_uniform(rng, (out_channels,), fan_in, fan_out)
        self.grad_kernels = np.zeros_like(self.kernels)
        self.grad_bias = np.zeros_like(self.bias)
        self._x = None
        self._out = None

    def forward(self, x):
        if x.ndim != 4 or x.shape[3] != self.in_channels:
            raise DimensionError(
                f"conv layer expects input [batch, h, w, {self.in_channels}], got shape {tuple(x.shape)}"
            )
        self._x = x
        self._out = _apply_activation(self.activation, _correlate(x, self.kernels) + self.bias)
        return self._out

    def backward(self, grad):
        if self._x is None:
            raise StateError("backward called before forward on conv layer")
        d_pre = _activation_backward(self.activation, grad, self._out)
        self.grad_bias[...] = d_pre.sum(axis=(0, 1, 2))
        self.grad_kernels[...] = _kernel_grad(self._x, d_pre, self.kernels.shape)
        return _correlate(d_pre, self.kernels[::-1, ::-1].transpose(0, 1, 3, 2))


class GlobalAveragePool:
    """Average over the spatial extent: [B,H,W,C] -> [B,C]."""

    param_fields = ()

    def __init__(self):
        self._shape = None

    def forward(self, x):
        if x.ndim != 4 or x.shape[1] < 1 or x.shape[2] < 1:
            raise DimensionError(f"global pool expects [batch, h, w, c] with h, w >= 1, got {tuple(x.shape)}")
        self._shape = x.shape
        return x.mean(axis=(1, 2))

    def backward(self, grad):
        if self._shape is None:
            raise StateError("backward called before forward on global pool")
        scale = self._shape[1] * self._shape[2]
        return np.broadcast_to((grad / scale)[:, None, None, :], self._shape).copy()


class LayerStack:
    """Sequential container; backward runs layers in reverse and returns the input gradient."""

    def __init__(self, layers):
        self.layers = list(layers)

    def forward(self, x):
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def backward(self, grad):
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad
