"""Band-selector networks: attention branch, band re-weighting, reconstruction branch.

Both variants share one computation graph. The attention branch maps a sample
to a per-band weight vector through a sigmoid gate, the input is multiplied
band-wise by those weights, and the reconstruction branch maps the re-weighted
sample back to the original spectrum. Training minimizes mean squared
reconstruction error plus an L1 penalty on the weights, so bands that the
reconstruction cannot do without keep large weights while redundant bands are
driven toward zero.

The spectral variant consumes flat spectra [S, bands]; the spectral-spatial
variant consumes patches [S, a, a, bands] and broadcasts each sample's weight
vector across the patch. Each branch's first layer checks the batch: it
rejects the other variant's input shape and a wrong band count.
"""

from __future__ import annotations

import numpy as np

from bandsel.nn import Conv2DLayer, DenseLayer, GlobalAveragePool, LayerStack, chunk_samples


def reweight(batch, weights):
    """Band-wise product of a sample batch with per-sample band weights.

    ``batch`` is [S, b] or [S, a, a, b] and ``weights`` is [S, b], as the
    attention branch emits them for that batch; the weights broadcast
    across the spatial extent in the patch case.
    """
    return batch * weights.reshape(weights.shape[0], *[1] * (batch.ndim - 2), weights.shape[1])


def reconstruction_loss(x, x_hat, weights, l1_coeff):
    """Batch-mean squared-error plus L1 penalty on the band weights.

    Returns (0.5 * sum_i ||x_hat_i - x_i||^2 + l1_coeff * sum_i ||w_i||_1) / S
    over a batch of S samples. ``TrainConfig`` checks that ``l1_coeff`` is
    finite and non-negative.
    """
    return (0.5 * np.sum((x_hat - x) ** 2) + l1_coeff * np.sum(np.abs(weights))) / x.shape[0]


class _BandSelector:
    """Shared forward/backward plumbing for both selector variants.

    Every parameter of both branches lives in one flat float64 vector
    ``params`` and every gradient in the matching ``grads``; ``slices`` maps
    names such as ``rec.layer3.weights`` to their slice of both vectors. The
    layers' parameter and ``grad_*`` attributes are views into those vectors.
    Each variant names itself in ``kind`` and sets its ``default_batch``.
    """

    def __init__(self, bands, bam, rec):
        self.bands = int(bands)
        self.bam = bam
        self.rec = rec
        owners = {f"{branch}.layer{i}.{field}": (layer, field)
                  for branch, stack in (("bam", bam), ("rec", rec))
                  for i, layer in enumerate(stack.layers)
                  for field in layer.param_fields}
        self.params = np.concatenate([getattr(layer, field).ravel() for layer, field in owners.values()])
        self.grads = np.zeros_like(self.params)
        self.slices = {}
        start = 0
        for name, (layer, field) in owners.items():
            value = getattr(layer, field)
            span = self.slices[name] = slice(start, start + value.size)
            setattr(layer, field, self.params[span].reshape(value.shape))
            setattr(layer, f"grad_{field}", self.grads[span].reshape(value.shape))
            start = span.stop

    def band_weights(self, batch):
        """Per-sample band weights in (0, 1): one sigmoid-gated vector per sample."""
        return self.bam.forward(batch)

    def block_band_weights(self, samples, start, stop):
        """``band_weights(samples[start:stop])``: one block of the averaging pass."""
        return self.band_weights(samples[start:stop])

    def forward(self, batch):
        """Full pass; returns (per-sample weights [S, b], reconstruction like batch)."""
        weights = self.band_weights(batch)
        x_hat = self.rec.forward(reweight(batch, weights))
        return weights, x_hat

    def backprop(self, batch, l1_coeff):
        """Forward plus backward pass of the full training objective.

        Writes every parameter gradient into ``grads`` and returns the loss.
        """
        bam_acts = self.bam.activations(batch)
        weights = bam_acts[-1]
        rec_acts = self.rec.activations(reweight(batch, weights))
        n = batch.shape[0]
        loss = reconstruction_loss(batch, rec_acts[-1], weights, l1_coeff)
        d_z = self.rec.backward((rec_acts[-1] - batch) / n, rec_acts)
        # z = x * w: only the weight factor leads back to parameters; a
        # patch's weight gradient sums over its pixels.
        d_weights = (d_z * batch).reshape(n, -1, self.bands).sum(axis=1)
        self.bam.backward(d_weights + l1_coeff * np.sign(weights) / n, bam_acts)
        return loss

    def loss(self, batch, l1_coeff):
        weights, x_hat = self.forward(batch)
        return reconstruction_loss(batch, x_hat, weights, l1_coeff)


def _dense_stack(dims, rng):
    """Dense layers through the widths ``dims``: relu between, sigmoid last."""
    return LayerStack([
        DenseLayer(dims[i], dims[i + 1], "sigmoid" if i == len(dims) - 2 else "relu", rng=rng)
        for i in range(len(dims) - 1)
    ])


class BandSelectorFC(_BandSelector):
    """Spectral selector: dense attention and reconstruction stacks over pixel vectors.

    Default widths follow the reference configuration (attention 64-128,
    reconstruction 64-128-256); both are configurable per data set.
    """

    kind = "fc"
    default_batch = 64

    def __init__(self, bands, bam_hidden=(64, 128), rec_hidden=(64, 128, 256), *, rng):
        bam = _dense_stack([bands, *bam_hidden, bands], rng)
        rec = _dense_stack([bands, *rec_hidden, bands], rng)
        super().__init__(bands, bam, rec)


class BandSelectorConv(_BandSelector):
    """Spectral-spatial selector over patches [S, a, a, bands].

    Attention: 3x3 conv, global average pool, two dense layers ending in a
    sigmoid of width = band count. Reconstruction: two 3x3 conv encoder
    layers, two 3x3 conv decoder layers, 1x1 sigmoid head; every conv is
    stride 1 with "same" padding, so patch shape is preserved end to end.
    """

    kind = "conv"
    default_batch = 32

    def __init__(self, bands, bam_conv_channels=64, bam_hidden=128,
                 rec_channels=(128, 64, 64, 128), *, rng):
        bam = LayerStack([
            Conv2DLayer(bands, bam_conv_channels, 3, activation="relu", rng=rng),
            GlobalAveragePool(),
            DenseLayer(bam_conv_channels, bam_hidden, "relu", rng=rng),
            DenseLayer(bam_hidden, bands, "sigmoid", rng=rng),
        ])
        c1, c2, c3, c4 = rec_channels
        rec = LayerStack([
            Conv2DLayer(bands, c1, 3, activation="relu", rng=rng),
            Conv2DLayer(c1, c2, 3, activation="relu", rng=rng),
            Conv2DLayer(c2, c3, 3, activation="relu", rng=rng),
            Conv2DLayer(c3, c4, 3, activation="relu", rng=rng),
            Conv2DLayer(c4, bands, 1, activation="sigmoid", rng=rng),
        ])
        super().__init__(bands, bam, rec)

    def block_band_weights(self, samples, start, stop):
        """``band_weights(samples[start:stop])`` bit for bit, gathering one conv chunk at a time.

        The attention conv and pool run on pieces of ``chunk_samples`` patches, the
        pieces the conv layer would cut the whole block into, so every GEMM sees the
        same rows; the dense tail then runs once on the block's pooled rows. Only one
        piece of patches and its conv output are held, never the block's.
        """
        conv, pool, *tail = self.bam.layers
        stop = min(stop, len(samples))
        step = chunk_samples(*samples.shape[1:])
        x = np.empty((stop - start, conv.out_channels))
        for lo in range(start, stop, step):
            hi = min(lo + step, stop)
            x[lo - start : hi - start] = pool.forward(conv.forward(samples[lo:hi]))
        for layer in tail:
            x = layer.forward(x)
        return x
