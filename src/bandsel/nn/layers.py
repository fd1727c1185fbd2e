"""Dense, convolutional and pooling layers with hand-written gradients.

Arrays are the tensor carrier throughout: C-ordered float64 ndarrays.
Each layer with parameters names them in the class tuple ``param_fields``;
every field ``f`` has a gradient partner ``grad_f`` of the same shape. Once a
layer belongs to a model, both are views into the model's flat ``params`` and
``grads`` vectors, so the layer must never rebind them. Layers cache whatever
the backward pass needs during forward; ``backward`` consumes the cache,
writes the parameter gradients in place into the ``grad_*`` views and returns
the gradient with respect to the layer input.

Spatial convolutions use zero-padded "same" geometry: a forward convolution
with stride ``s`` maps height ``h`` to ``ceil(h / s)``; the transposed
variant inverts that mapping (``h`` to ``h * s``). A transposed layer whose
kernels equal the channel-swapped kernels of a forward layer computes that
layer's exact adjoint.
"""

from __future__ import annotations

import numpy as np

from bandsel.errors import ConfigError, DimensionError, StateError

ACTIVATIONS = ("relu", "sigmoid", "identity")


def sigmoid(x):
    """Numerically stable logistic function."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


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


def _activation_backward(activation, grad, pre, out):
    """Gradient through the element-wise nonlinearity given cached tensors."""
    if activation == "relu":
        return grad * (pre > 0)
    if activation == "sigmoid":
        return grad * out * (1.0 - out)
    return grad


class DenseLayer:
    """Fully connected layer: activation(x @ weights + bias)."""

    param_fields = ("weights", "bias")

    def __init__(self, in_dim, out_dim, activation="relu", *, rng=None):
        _check_activation(activation)
        if in_dim < 1 or out_dim < 1:
            raise ConfigError(f"dense dims must be positive, got {in_dim}x{out_dim}")
        rng = np.random.default_rng() if rng is None else rng
        self.in_dim = int(in_dim)
        self.out_dim = int(out_dim)
        self.activation = activation
        self.weights = glorot_uniform(rng, (in_dim, out_dim), in_dim, out_dim)
        self.bias = glorot_uniform(rng, (out_dim,), in_dim, out_dim)
        self.grad_weights = np.zeros_like(self.weights)
        self.grad_bias = np.zeros_like(self.bias)
        self._x = None
        self._pre = None
        self._out = None

    def forward(self, x):
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise DimensionError(
                f"dense layer expects input [batch, {self.in_dim}], got shape {tuple(x.shape)}"
            )
        self._x = x
        self._pre = x @ self.weights + self.bias
        self._out = _apply_activation(self.activation, self._pre)
        return self._out

    def backward(self, grad):
        if self._x is None:
            raise StateError("backward called before forward on dense layer")
        d_pre = _activation_backward(self.activation, grad, self._pre, self._out)
        self.grad_weights[...] = self._x.T @ d_pre
        self.grad_bias[...] = d_pre.sum(axis=0)
        return d_pre @ self.weights.T


def _same_pad(size, kernel, stride):
    """Output size and (leading, trailing) zero padding for 'same' geometry."""
    out = -(-size // stride)
    total = max((out - 1) * stride + kernel - size, 0)
    lead = total // 2
    return out, lead, total - lead


def _conv2d_raw(x, kernels, stride):
    """Cross-correlation with zero 'same' padding.

    x [B,H,W,Cin] with kernels [kh,kw,Cin,Cout] -> [B,ceil(H/s),ceil(W/s),Cout].
    """
    batch, h, w, _ = x.shape
    kh, kw, _, cout = kernels.shape
    oh, ph0, ph1 = _same_pad(h, kh, stride)
    ow, pw0, pw1 = _same_pad(w, kw, stride)
    xp = np.pad(x, ((0, 0), (ph0, ph1), (pw0, pw1), (0, 0)))
    out = np.zeros((batch, oh, ow, cout))
    for u in range(kh):
        for v in range(kw):
            xs = xp[:, u : u + (oh - 1) * stride + 1 : stride, v : v + (ow - 1) * stride + 1 : stride, :]
            out += np.tensordot(xs, kernels[u, v], axes=([3], [0]))
    return out


def _conv2d_input_grad(grad, kernels, stride, in_spatial):
    """Adjoint of :func:`_conv2d_raw` in its input: scatter grad back to [B,H,W,Cin]."""
    h, w = in_spatial
    kh, kw, cin, _ = kernels.shape
    oh, ph0, ph1 = _same_pad(h, kh, stride)
    ow, pw0, pw1 = _same_pad(w, kw, stride)
    gx = np.zeros((grad.shape[0], h + ph0 + ph1, w + pw0 + pw1, cin))
    for u in range(kh):
        for v in range(kw):
            gx[:, u : u + (oh - 1) * stride + 1 : stride, v : v + (ow - 1) * stride + 1 : stride, :] += (
                np.tensordot(grad, kernels[u, v], axes=([3], [1]))
            )
    return gx[:, ph0 : ph0 + h, pw0 : pw0 + w, :]


def _conv2d_kernel_grad(x, grad, stride, kernel_shape):
    """Gradient of the 'same' cross-correlation with respect to its kernels."""
    kh, kw, _, _ = kernel_shape
    _, h, w, _ = x.shape
    oh, ph0, ph1 = _same_pad(h, kh, stride)
    ow, pw0, pw1 = _same_pad(w, kw, stride)
    xp = np.pad(x, ((0, 0), (ph0, ph1), (pw0, pw1), (0, 0)))
    dk = np.zeros(kernel_shape)
    for u in range(kh):
        for v in range(kw):
            xs = xp[:, u : u + (oh - 1) * stride + 1 : stride, v : v + (ow - 1) * stride + 1 : stride, :]
            dk[u, v] = np.tensordot(xs, grad, axes=([0, 1, 2], [0, 1, 2]))
    return dk


class Conv2DLayer:
    """2-D convolution (or its transposed counterpart) over [B,H,W,C] inputs.

    Kernels are stored [kh, kw, in_channels, out_channels] regardless of
    direction. ``transposed=True`` applies the adjoint spatial mapping and
    up-samples by the stride instead of down-sampling.
    """

    param_fields = ("kernels", "bias")

    def __init__(self, in_channels, out_channels, kernel_size, *, stride=1,
                 activation="relu", transposed=False, rng=None):
        _check_activation(activation)
        kh, kw = (kernel_size, kernel_size) if np.isscalar(kernel_size) else kernel_size
        if kh % 2 == 0 or kw % 2 == 0:
            raise ConfigError(f"kernel sides must be odd for same padding, got {kh}x{kw}")
        if stride < 1:
            raise ConfigError(f"stride must be >= 1, got {stride}")
        rng = np.random.default_rng() if rng is None else rng
        self.in_channels = int(in_channels)
        self.out_channels = int(out_channels)
        self.stride = int(stride)
        self.activation = activation
        self.transposed = bool(transposed)
        fan_in = kh * kw * in_channels
        fan_out = kh * kw * out_channels
        self.kernels = glorot_uniform(rng, (kh, kw, in_channels, out_channels), fan_in, fan_out)
        self.bias = glorot_uniform(rng, (out_channels,), fan_in, fan_out)
        self.grad_kernels = np.zeros_like(self.kernels)
        self.grad_bias = np.zeros_like(self.bias)
        self._x = None
        self._pre = None
        self._out = None

    def forward(self, x):
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 4 or x.shape[3] != self.in_channels:
            raise DimensionError(
                f"conv layer expects input [batch, h, w, {self.in_channels}], got shape {tuple(x.shape)}"
            )
        self._x = x
        if self.transposed:
            swapped = self.kernels.transpose(0, 1, 3, 2)
            h, w = x.shape[1] * self.stride, x.shape[2] * self.stride
            lin = _conv2d_input_grad(x, swapped, self.stride, (h, w))
        else:
            lin = _conv2d_raw(x, self.kernels, self.stride)
        self._pre = lin + self.bias
        self._out = _apply_activation(self.activation, self._pre)
        return self._out

    def backward(self, grad):
        if self._x is None:
            raise StateError("backward called before forward on conv layer")
        d_pre = _activation_backward(self.activation, grad, self._pre, self._out)
        self.grad_bias[...] = d_pre.sum(axis=(0, 1, 2))
        if self.transposed:
            swapped_shape = (self.kernels.shape[0], self.kernels.shape[1],
                             self.out_channels, self.in_channels)
            self.grad_kernels[...] = _conv2d_kernel_grad(
                d_pre, self._x, self.stride, swapped_shape
            ).transpose(0, 1, 3, 2)
            swapped = self.kernels.transpose(0, 1, 3, 2)
            return _conv2d_raw(d_pre, swapped, self.stride)
        self.grad_kernels[...] = _conv2d_kernel_grad(self._x, d_pre, self.stride, self.kernels.shape)
        return _conv2d_input_grad(d_pre, self.kernels, self.stride, self._x.shape[1:3])


class GlobalAveragePool:
    """Average over the spatial extent: [B,H,W,C] -> [B,C]."""

    param_fields = ()

    def __init__(self):
        self._shape = None

    def forward(self, x):
        x = np.asarray(x, dtype=np.float64)
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
