"""Dense, convolutional and pooling layers with hand-written gradients.

Arrays are the tensor carrier throughout: C-ordered float64 ndarrays, which
the layers take as given (``train`` casts a plain sample array once, and a
patch set gathers each batch as such an array).
Each layer with parameters names them in the class tuple ``param_fields``;
every field ``f`` has a gradient partner ``grad_f`` of the same shape. Once a
layer belongs to a model, both are views into the model's flat ``params`` and
``grads`` vectors, so the layer must never rebind them. A layer holds no
activations: ``forward(x)`` only computes its output, and ``backward(grad, x,
out)`` is handed the input and output of that forward. The output alone fixes
the derivative of every activation (relu passes where the output is positive,
sigmoid scales by ``out * (1 - out)``). ``backward`` writes the parameter
gradients in place into the ``grad_*`` views and returns the gradient with
respect to the layer input. ``LayerStack`` owns the activations a backward
needs: ``activations`` records them and ``backward`` drops each once it is used.

Spatial convolutions are stride 1 with zero-padded "same" geometry, so height
and width pass through unchanged; the adjoint in the input is the same
correlation with flipped, channel-swapped kernels. No padded copy is made: a
correlation's tap GEMMs read the input in place (``_add_taps``), the kernel
gradient's read it shifted into one reused zero-bordered buffer, and both keep
a padded copy's bits. A correlation takes its batch in chunks of whole samples
of at most ``CONV_CHUNK_ELEMENTS`` input elements (``chunk_samples``), which
bounds its tap buffer; a training batch (32 patches of 7 x 7, up to 128
channels) is one chunk, and the averaging pass hands the attention conv one
chunk at a time.
"""

from __future__ import annotations

import sys

import numpy as np

from bandsel.errors import ConfigError, DimensionError

ACTIVATIONS = ("relu", "sigmoid", "identity")
CONV_CHUNK_ELEMENTS = 2**18


def sigmoid(x):
    """Numerically stable logistic: ``1/(1+e)`` for x >= 0, else ``e/(1+e)``, with ``e = exp(-|x|) <= 1``."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def glorot_uniform(rng, shape, fan_in, fan_out):
    """Uniform init in +-sqrt(6 / (fan_in + fan_out))."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def _check_activation(activation):
    if activation not in ACTIVATIONS:
        raise ConfigError(f"unknown activation {activation!r}; expected one of {ACTIVATIONS}")


def _apply_activation(activation, pre, bias):
    """The activation of ``pre + bias``, computed in ``pre``, which callers pass fresh."""
    pre += bias
    if activation == "relu":
        return np.maximum(pre, 0.0, out=pre)
    if activation == "sigmoid":
        return sigmoid(pre)
    return pre


def _activation_backward(activation, grad, out):
    """Gradient through the element-wise nonlinearity, from the layer's output alone."""
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
        self.activation = activation
        self.weights = glorot_uniform(rng, (in_dim, out_dim), in_dim, out_dim)
        self.bias = glorot_uniform(rng, (out_dim,), in_dim, out_dim)
        self.grad_weights = np.zeros_like(self.weights)
        self.grad_bias = np.zeros_like(self.bias)

    def forward(self, x):
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise DimensionError(
                f"dense layer expects input [batch, {self.in_dim}], got shape {tuple(x.shape)}"
            )
        return _apply_activation(self.activation, x @ self.weights, self.bias)

    def backward(self, grad, x, out):
        d_pre = _activation_backward(self.activation, grad, out)
        np.matmul(x.T, d_pre, out=self.grad_weights)
        np.sum(d_pre, axis=0, out=self.grad_bias)
        return d_pre @ self.weights.T


def chunk_samples(h, w, cin):
    """Whole h x w x cin samples per forward chunk: CONV_CHUNK_ELEMENTS input elements, at least one.

    A 1 x 1 sample is one GEMM row, and BLAS computes a one-row product by gemv, which
    rounds differently from the rows of a larger product, so 1 x 1 samples are never split.
    """
    return max(1, CONV_CHUNK_ELEMENTS // (h * w * cin)) if h * w > 1 else sys.maxsize


def _shifted_windows(x, k, buffer):
    """Yield ``(u, v, window)`` per tap of a ``k x k`` kernel, in row-major order.

    ``window[:, i, j]`` is ``x[:, i + u - k//2, j + v - k//2]``, zero outside x: the
    centre window is C-ordered x itself, every other one ``buffer``, a C-ordered
    array shaped like x that is overwritten for each tap.
    """
    x = np.ascontiguousarray(x)
    _, h, w, _ = x.shape
    p = k // 2
    for u, v in np.ndindex(k, k):
        if u == v == p:
            yield u, v, x
            continue
        r0, r1 = min(max(p - u, 0), h), min(max(h + p - u, 0), h)
        c0, c1 = min(max(p - v, 0), w), min(max(w + p - v, 0), w)
        buffer[:, r0:r1, c0:c1] = x[:, r0 + u - p : r1 + u - p, c0 + v - p : c1 + v - p]
        buffer[:, :r0] = buffer[:, r1:] = buffer[:, :, :c0] = buffer[:, :, c1:] = 0.0
        yield u, v, buffer


def _correlate(x, kernels):
    """Stride-1 'same' cross-correlation: x [B,H,W,Cin], kernels [k,k,Cin,Cout] -> [B,H,W,Cout].

    Per chunk of ``chunk_samples`` samples, each tap's GEMM reads the C-ordered chunk in place into a
    reused tap buffer, and its valid region is added, shifted, into the output. Each GEMM has the
    shape and operand layout of the padded-copy reference's in ``tests/oracles.py`` and the taps keep
    its row-major order, so the bits are kept: a skipped out-of-image product was ``0 * w = +0`` for
    a finite kernel, which leaves a sum begun at ``+0`` as it was. BLAS's small-GEMM path rounds a
    transposed operand differently, so the adjoint's transposed kernels keep the batch in one chunk.
    """
    batch, h, w, cin = x.shape
    out = np.zeros((batch, h, w, kernels.shape[3]))
    n = min(batch, chunk_samples(h, w, cin) if kernels.flags.c_contiguous else batch)
    tap = np.empty((n * h * w, kernels.shape[3]))
    for start in range(0, batch, n):
        _add_taps(np.ascontiguousarray(x[start : start + n]), kernels, out[start : start + n], tap)
    return out


def _add_taps(x, kernels, out, tap):
    """``_correlate``'s step on one C-ordered chunk ``x``: add its taps into ``out`` through ``tap``."""
    m, h, w, cin = x.shape
    p, tap = kernels.shape[0] // 2, tap[: m * h * w]
    for u, v in np.ndindex(kernels.shape[:2]):
        r0, r1, c0, c1 = max(p - u, 0), min(h + p - u, h), max(p - v, 0), min(w + p - v, w)
        if r0 < r1 and c0 < c1:
            np.dot(x.reshape(-1, cin), kernels[u, v], out=tap)
            out[:, r0:r1, c0:c1] += tap.reshape(m, h, w, -1)[:, r0 + u - p : r1 + u - p, c0 + v - p : c1 + v - p]


def _kernel_grad(x, grad, out):
    """Write the gradient of ``sum(_correlate(x, kernels) * grad)`` in the kernels into ``out``.

    Tap (u, v)'s ``window.T @ grad`` goes straight into ``out[u, v]``. BLAS's
    small-GEMM kernels round a transposed operand differently, so the windows
    keep the reference's memory order: x's transposed view for a 1 x 1 kernel or
    when at most one of B, H, W exceeds 1, else a C-ordered transposed copy.
    """
    batch, h, w, cin = x.shape
    rows = batch * h * w
    grad = np.ascontiguousarray(grad).reshape(rows, -1)
    view = out.shape[0] == 1 or sum(n > 1 for n in x.shape[:3]) <= 1
    source = x if view else np.ascontiguousarray(x.transpose(3, 0, 1, 2)).reshape(cin * batch, h, w, 1)
    for u, v, window in _shifted_windows(source, out.shape[0], np.empty(source.shape)):
        np.dot(window.reshape(rows, cin).T if view else window.reshape(cin, rows), grad, out=out[u, v])


class Conv2DLayer:
    """Stride-1 'same' 2-D convolution over [B,H,W,C] inputs.

    ``kernel_size`` is one odd side ``k``; kernels are stored
    [k, k, in_channels, out_channels] and the output keeps the input's
    height and width.
    """

    param_fields = ("kernels", "bias")

    def __init__(self, in_channels, out_channels, kernel_size, *, activation="relu", rng):
        _check_activation(activation)
        if kernel_size < 1 or kernel_size % 2 == 0:
            raise ConfigError(f"kernel size must be a positive odd integer for same padding, got {kernel_size}")
        if in_channels < 1 or out_channels < 1:
            raise ConfigError(f"conv channels must be positive, got {in_channels}->{out_channels}")
        self.in_channels = int(in_channels)
        self.out_channels = int(out_channels)
        self.activation = activation
        k = int(kernel_size)
        fan_in, fan_out = k * k * in_channels, k * k * out_channels
        self.kernels = glorot_uniform(rng, (k, k, in_channels, out_channels), fan_in, fan_out)
        self.bias = glorot_uniform(rng, (out_channels,), fan_in, fan_out)
        self.grad_kernels = np.zeros_like(self.kernels)
        self.grad_bias = np.zeros_like(self.bias)

    def forward(self, x):
        if x.ndim != 4 or x.shape[3] != self.in_channels:
            raise DimensionError(
                f"conv layer expects input [batch, h, w, {self.in_channels}], got shape {tuple(x.shape)}"
            )
        return _apply_activation(self.activation, _correlate(x, self.kernels), self.bias)

    def backward(self, grad, x, out):
        d_pre = _activation_backward(self.activation, grad, out)
        np.sum(d_pre, axis=(0, 1, 2), out=self.grad_bias)
        _kernel_grad(x, d_pre, self.grad_kernels)
        return _correlate(d_pre, self.kernels[::-1, ::-1].transpose(0, 1, 3, 2))


class GlobalAveragePool:
    """Average over the spatial extent: [B,H,W,C] -> [B,C]."""

    param_fields = ()

    def forward(self, x):
        if x.ndim != 4 or x.shape[1] < 1 or x.shape[2] < 1:
            raise DimensionError(f"global pool expects [batch, h, w, c] with h, w >= 1, got {tuple(x.shape)}")
        return x.mean(axis=(1, 2))

    def backward(self, grad, x, out):
        _, h, w, _ = x.shape
        return np.broadcast_to((grad / (h * w))[:, None, None, :], x.shape).copy()


class LayerStack:
    """Sequential container and the one owner of the activations a backward pass needs."""

    def __init__(self, layers):
        self.layers = list(layers)

    def forward(self, x):
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def activations(self, x):
        """``[x, out_1, ..., out_n]``: the stack input and every layer's output, for ``backward``."""
        acts = [x]
        for layer in self.layers:
            acts.append(layer.forward(acts[-1]))
        return acts

    def backward(self, grad, acts):
        """Run the layers in reverse on ``activations``' list and return the input gradient.

        The list is consumed: each output is dropped once its layer's backward returns,
        and the stack input before the first layer's backward, so no activation outlives
        its last use.
        """
        for layer in reversed(self.layers):
            out = acts.pop()
            grad = layer.backward(grad, acts[-1] if len(acts) > 1 else acts.pop(), out)
        return grad
