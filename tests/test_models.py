"""Contracts of the attention branch, re-weighting junction, reconstruction branch, and loss."""

import numpy as np
import pytest

from bandsel.errors import ConfigError, DimensionError
from bandsel.models import BandSelectorConv, BandSelectorFC, reconstruction_loss, reweight


def zero_out(stack):
    for layer in stack.layers:
        for field in layer.param_fields:
            getattr(layer, field)[...] = 0.0


class TestAttentionBranch:
    def test_zero_parameters_give_half_weights(self):
        model = BandSelectorFC(10, bam_hidden=(6, 7), rec_hidden=(5,), rng=np.random.default_rng(0))
        zero_out(model.bam)
        weights = model.band_weights(np.random.default_rng(1).random((4, 10)))
        np.testing.assert_array_equal(weights, np.full((4, 10), 0.5))

    def test_weights_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(2)
        model = BandSelectorFC(12, bam_hidden=(8,), rec_hidden=(8,), rng=rng)
        weights = model.band_weights(rng.random((20, 12)))
        assert np.all(weights > 0) and np.all(weights < 1)

    def test_same_seed_reproduces_weights_bit_exactly(self):
        batch = np.random.default_rng(3).random((4, 200))
        runs = []
        for _ in range(2):
            model = BandSelectorFC(200, rng=np.random.default_rng(77))
            runs.append(model.band_weights(batch))
        np.testing.assert_array_equal(runs[0], runs[1])

    def test_band_count_mismatch_raises(self):
        model = BandSelectorFC(10, bam_hidden=(4,), rec_hidden=(4,), rng=np.random.default_rng(0))
        with pytest.raises(DimensionError):
            model.forward(np.zeros((2, 11)))
        conv = BandSelectorConv(5, bam_conv_channels=3, bam_hidden=4, rec_channels=(3, 3, 3, 3),
                                rng=np.random.default_rng(0))
        with pytest.raises(DimensionError):
            conv.forward(np.zeros((2, 3, 3, 6)))

    def test_conv_attention_emits_one_weight_vector_per_sample(self):
        rng = np.random.default_rng(4)
        model = BandSelectorConv(6, bam_conv_channels=4, bam_hidden=5,
                                 rec_channels=(4, 3, 3, 4), rng=rng)
        weights = model.band_weights(rng.random((3, 5, 5, 6)))
        assert weights.shape == (3, 6)
        assert np.all(weights > 0) and np.all(weights < 1)


class TestReweight:
    def test_unit_weights_are_identity(self):
        x = np.random.default_rng(0).random((3, 7))
        np.testing.assert_array_equal(reweight(x, np.ones((3, 7))), x)

    def test_zero_weights_zero_everything(self):
        x = np.random.default_rng(1).random((2, 4, 4, 5))
        np.testing.assert_array_equal(reweight(x, np.zeros((2, 5))), np.zeros_like(x))

    def test_elementwise_product_matches_loop(self):
        rng = np.random.default_rng(2)
        x = rng.random((2, 3))
        w = rng.random((2, 3))
        z = reweight(x, w)
        for i in range(2):
            for j in range(3):
                assert z[i, j] == x[i, j] * w[i, j]

    def test_patch_weights_broadcast_over_spatial_extent(self):
        rng = np.random.default_rng(3)
        x = rng.random((2, 3, 3, 4))
        w = rng.random((2, 4))
        z = reweight(x, w)
        for s in range(2):
            for i in range(3):
                for j in range(3):
                    for b in range(4):
                        assert z[s, i, j, b] == x[s, i, j, b] * w[s, b]


class TestReconstruction:
    def test_sigmoid_head_keeps_outputs_in_unit_interval(self):
        rng = np.random.default_rng(5)
        model = BandSelectorFC(9, bam_hidden=(5,), rec_hidden=(6, 7), rng=rng)
        out = model.reconstruct(rng.standard_normal((8, 9)))
        assert np.all(out > 0) and np.all(out < 1)

    def test_zero_parameters_give_constant_half(self):
        model = BandSelectorFC(5, bam_hidden=(3,), rec_hidden=(4,), rng=np.random.default_rng(0))
        zero_out(model.rec)
        out = model.reconstruct(np.random.default_rng(1).random((3, 5)))
        np.testing.assert_array_equal(out, np.full((3, 5), 0.5))

    def test_conv_reconstruction_round_trips_patch_shape(self):
        rng = np.random.default_rng(6)
        bands = 5
        model = BandSelectorConv(bands, bam_conv_channels=4, bam_hidden=6,
                                 rec_channels=(6, 4, 4, 6), rng=rng)
        patch = rng.random((2, 7, 7, bands))
        _, x_hat = model.forward(patch)
        assert x_hat.shape == patch.shape


class TestLoss:
    def test_perfect_reconstruction_without_penalty_is_zero(self):
        x = np.random.default_rng(0).random((4, 6))
        w = np.random.default_rng(1).random((4, 6))
        assert reconstruction_loss(x, x, w, 0.0) == 0.0

    def test_single_entry_hand_value(self):
        # One sample, x = 0, reconstruction has a single entry 2: half of 2^2.
        x = np.zeros((1, 3))
        x_hat = np.array([[0.0, 2.0, 0.0]])
        assert reconstruction_loss(x, x_hat, np.zeros((1, 3)), 0.0) == 2.0

    def test_matches_flat_loop_oracle(self):
        rng = np.random.default_rng(7)
        x = rng.random((5, 4))
        x_hat = rng.random((5, 4))
        w = rng.random((5, 4))
        lam = 0.03
        n = x.shape[0]
        acc = 0.0
        for i in range(n):
            for j in range(4):
                acc += 0.5 * (x[i, j] - x_hat[i, j]) ** 2 + lam * abs(w[i, j])
        np.testing.assert_allclose(reconstruction_loss(x, x_hat, w, lam), acc / n, rtol=1e-12)

    def test_negative_penalty_rejected(self):
        with pytest.raises(ConfigError):
            reconstruction_loss(np.zeros((1, 2)), np.zeros((1, 2)), np.zeros((1, 2)), -1e-3)

    def test_penalty_decomposition(self):
        # loss(lam) == loss(0) + lam * mean L1 of the weights.
        rng = np.random.default_rng(8)
        model = BandSelectorFC(6, bam_hidden=(4,), rec_hidden=(5,), rng=rng)
        x = rng.random((7, 6))
        w, x_hat = model.forward(x)
        lam = 1e-2
        with_pen = reconstruction_loss(x, x_hat, w, lam)
        without = reconstruction_loss(x, x_hat, w, 0.0)
        np.testing.assert_allclose(with_pen, without + lam * np.abs(w).sum() / x.shape[0], rtol=1e-12)


def test_flat_buffer_slices_follow_layer_order():
    rng = np.random.default_rng(0)
    model = BandSelectorConv(4, bam_conv_channels=3, bam_hidden=5, rec_channels=(4, 3, 3, 4), rng=rng)
    names = list(model.slices)
    assert names[:6] == [
        "bam.layer0.kernels", "bam.layer0.bias", "bam.layer2.weights", "bam.layer2.bias",
        "bam.layer3.weights", "bam.layer3.bias",
    ]
    assert names[6:] == [f"rec.layer{i}.{f}" for i in range(5) for f in ("kernels", "bias")]
    spans = list(model.slices.values())
    assert spans[0].start == 0 and spans[-1].stop == model.params.size == model.grads.size
    assert all(a.stop == b.start for a, b in zip(spans, spans[1:]))
    layer = model.rec.layers[3]
    layer.kernels[0, 0, 0, 0] = 7.5
    assert model.params[model.slices["rec.layer3.kernels"]][0] == 7.5
    assert np.shares_memory(layer.grad_kernels, model.grads)


def test_each_selector_rejects_the_other_variants_batch():
    fc = BandSelectorFC(5, bam_hidden=(4,), rec_hidden=(4,), rng=np.random.default_rng(0))
    conv = BandSelectorConv(5, bam_conv_channels=3, bam_hidden=4, rec_channels=(3, 3, 3, 3),
                            rng=np.random.default_rng(0))
    # The other variant's batch, or one that is neither spectra nor patches,
    # stops at each selector's first layer.
    for shape in ((2, 3, 3, 5), (2, 3, 5), (2, 3, 3, 3, 5)):
        with pytest.raises(DimensionError, match="dense layer"):
            fc.backprop(np.zeros(shape), 1e-2)
    for shape in ((2, 5), (2, 3, 5), (2, 3, 3, 3, 5)):
        with pytest.raises(DimensionError, match="conv layer"):
            conv.backprop(np.zeros(shape), 1e-2)
