"""Training-loop contracts: traces, determinism, invariants, failure modes."""

import numpy as np
import pytest

from bandsel.cube import HsiCube, extract_patches, extract_pixels, scale_unit
from bandsel.errors import ConfigError, DimensionError, NumericError
from bandsel.models import BandSelectorConv, BandSelectorFC
from bandsel.synthetic import SynthSpec, synth_generate
from bandsel.training import AVERAGING_CHUNK, TrainConfig, _full_averaged_weights, train


def small_samples(seed=0, n=40, bands=12):
    spec = SynthSpec(rows=8, cols=5, bands=bands, informative=(2, 7), noise_sigma=0.01, seed=seed, classes=0)
    cube = scale_unit(synth_generate(spec))
    return extract_pixels(cube)


class TestConfig:
    def test_reference_defaults(self):
        cfg = TrainConfig()
        assert cfg.l1_coeff == 1e-2
        assert cfg.learning_rate == 2e-3
        assert cfg.max_epochs == 100

    @pytest.mark.parametrize("kwargs", [
        {"l1_coeff": -1e-3},
        {"learning_rate": 0.0},
        {"max_epochs": 0},
        {"batch_size": 0},
        {"l1_coeff": float("nan")},
        {"l1_coeff": float("inf")},
        {"learning_rate": float("nan")},
        {"learning_rate": float("inf")},
        {"seed": -1},
    ])
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            TrainConfig(**kwargs)


class TestTrainLoop:
    def test_single_epoch_full_batch_gives_one_loss_entry(self):
        samples = small_samples()
        cfg = TrainConfig(l1_coeff=0.0, max_epochs=1, batch_size=len(samples), seed=0)
        _, result = train(samples, cfg, model_kwargs={"bam_hidden": (6,), "rec_hidden": (6,)})
        assert len(result.loss_trace) == 1

    def test_samples_viewing_the_cube_are_left_unchanged(self):
        spec = SynthSpec(rows=8, cols=5, bands=12, informative=(2, 7), noise_sigma=0.01, seed=3, classes=0)
        cube = scale_unit(synth_generate(spec))
        samples = extract_pixels(cube)
        before = samples.tobytes()
        cfg = TrainConfig(max_epochs=2, batch_size=16, seed=3)
        train(samples, cfg, model_kwargs={"bam_hidden": (6,), "rec_hidden": (6,)})
        assert np.shares_memory(samples, cube.values)
        assert samples.tobytes() == before

    def test_default_k_is_band_count_and_ranking_is_permutation(self):
        samples = small_samples()
        cfg = TrainConfig(max_epochs=2, seed=1)
        _, result = train(samples, cfg, model_kwargs={"bam_hidden": (6,), "rec_hidden": (6,)})
        assert sorted(result.ranking) == list(range(12))
        assert result.top_k == result.ranking

    def test_weights_stay_in_unit_interval_every_epoch(self):
        samples = small_samples(seed=2)
        cfg = TrainConfig(max_epochs=5, seed=2)
        _, result = train(samples, cfg, model_kwargs={"bam_hidden": (6,), "rec_hidden": (6,)})
        hist = result.weights_history
        assert hist.shape == (5, 12)
        assert np.all(hist > 0) and np.all(hist < 1)

    def test_identical_seeds_give_bit_identical_runs(self):
        results = []
        models = []
        for _ in range(2):
            samples = small_samples(seed=3)
            cfg = TrainConfig(max_epochs=3, seed=9)
            model, result = train(samples, cfg, model_kwargs={"bam_hidden": (6,), "rec_hidden": (6,)})
            results.append(result)
            models.append(model)
        assert results[0].loss_trace == results[1].loss_trace
        np.testing.assert_array_equal(results[0].averaged_weights, results[1].averaged_weights)
        np.testing.assert_array_equal(models[0].params, models[1].params)

    def test_l1_shrinks_mean_weight_versus_unregularized(self):
        samples = small_samples(seed=4)
        base = {"bam_hidden": (8,), "rec_hidden": (8,)}
        _, with_l1 = train(samples, TrainConfig(l1_coeff=1e-2, max_epochs=30, seed=5), model_kwargs=base)
        _, without = train(samples, TrainConfig(l1_coeff=0.0, max_epochs=30, seed=5), model_kwargs=base)
        assert with_l1.averaged_weights.mean() < without.averaged_weights.mean()

    def test_loss_decreases_on_synthetic_data(self):
        samples = small_samples(seed=6)
        cfg = TrainConfig(max_epochs=40, batch_size=8, seed=6)
        _, result = train(samples, cfg, model_kwargs={"bam_hidden": (8,), "rec_hidden": (8,)})
        assert result.loss_trace[-1] < 0.5 * result.loss_trace[0]

    def test_conv_variant_trains_on_patches(self):
        spec = SynthSpec(rows=10, cols=10, bands=6, informative=(1, 4), noise_sigma=0.01, seed=7, classes=0)
        cube = scale_unit(synth_generate(spec))
        samples = extract_patches(cube, 5, 3)
        cfg = TrainConfig(max_epochs=2, seed=8, batch_size=2)
        _, result = train(
            samples, cfg, k=3,
            model_kwargs={"bam_conv_channels": 3, "bam_hidden": 4, "rec_channels": (4, 3, 3, 4)},
        )
        assert len(result.top_k) == 3

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_divergence_aborts_with_epoch_number(self):
        # The sigmoid head bounds the loss for sane inputs, so force the
        # overflow through the data: squared residuals of huge samples
        # exceed float range and the loop must name the failing epoch,
        # with no numpy overflow warning ahead of it.
        bad = np.full((16, 6), 1e200)
        cfg = TrainConfig(max_epochs=3, seed=10)
        with pytest.raises(NumericError, match="epoch 1"):
            train(bad, cfg, model_kwargs={"bam_hidden": (6,), "rec_hidden": (6,)})

    def test_empty_sample_set_rejected(self):
        empty = np.zeros((0, 5))
        with pytest.raises(Exception):
            train(empty, TrainConfig(max_epochs=1))

    def test_k_out_of_range_rejected(self):
        samples = small_samples()
        with pytest.raises(ConfigError):
            train(samples, TrainConfig(max_epochs=1), k=13)


class TestSelectorDispatch:
    def test_sample_shape_picks_the_selector_and_its_batch(self):
        spec = SynthSpec(rows=6, cols=6, bands=5, informative=(1, 3), noise_sigma=0.01, seed=11, classes=0)
        cube = scale_unit(synth_generate(spec))
        cfg = TrainConfig(max_epochs=1, seed=0)
        fc, fc_result = train(extract_pixels(cube), cfg, model_kwargs={"bam_hidden": (4,), "rec_hidden": (4,)})
        conv, conv_result = train(extract_patches(cube, 3, 3), cfg, model_kwargs={
            "bam_conv_channels": 3, "bam_hidden": 4, "rec_channels": (3, 3, 3, 3)})
        assert type(fc) is BandSelectorFC and type(conv) is BandSelectorConv
        assert (fc_result.config["variant"], fc_result.config["batch_size"]) == ("fc", 64)
        assert (conv_result.config["variant"], conv_result.config["batch_size"]) == ("conv", 32)

    @pytest.mark.parametrize("shape", [(), (6,), (4, 3, 5), (2, 3, 3, 3, 5)])
    def test_other_sample_shapes_are_rejected(self, shape):
        with pytest.raises(DimensionError, match="spectra"):
            train(np.zeros(shape), TrainConfig(max_epochs=1))


def test_averaging_pass_scratch_is_bounded(traced_peak):
    # 441 patches of 7 x 7 x 100, the conv bench's averaging pass. The
    # attention conv runs one chunk at a time, so the pass holds one chunk's
    # conv output and scratch (≈3 MiB), never the block's 10.5 MiB conv output.
    patches = np.random.default_rng(1).random((441, 7, 7, 100))
    model = BandSelectorConv(100, rng=np.random.default_rng(0))
    _, peak = traced_peak(_full_averaged_weights, model, patches)
    assert peak <= 8 * 2**20


@pytest.mark.parametrize("rows, cols, bands, a", [(36, 36, 8, 3), (12, 12, 200, 7)],
                         ids=["1156-patches", "200-bands"])
def test_averaging_pass_matches_the_block_wise_reference(rows, cols, bands, a):
    # 1,156 patches make two averaging blocks, the second ragged; 36 patches of
    # 7 x 7 x 200 make two attention-conv chunks of 26 and 10 patches.
    cube = HsiCube(np.random.default_rng(2).random((rows, cols, bands)))
    patches = extract_patches(cube, a, 1)
    model = BandSelectorConv(bands, rng=np.random.default_rng(3))
    gathered = np.asarray(patches)
    total = np.zeros(bands)
    for start in range(0, len(gathered), AVERAGING_CHUNK):
        total += model.band_weights(gathered[start : start + AVERAGING_CHUNK]).sum(axis=0)
    np.testing.assert_array_equal(_full_averaged_weights(model, patches), total / len(gathered))


def test_conv_training_gathers_batches_from_the_cube(traced_peak):
    # 441 patches of 7 x 7 x 100, the conv bench's train stage. A copy of the
    # patch set alone is 16.5 MiB; with it the stage peaked at about 50 MiB.
    cube = HsiCube(np.random.default_rng(4).random((48, 48, 100)))
    _, peak = traced_peak(lambda: train(extract_patches(cube, 7, 2), TrainConfig(max_epochs=1)))
    assert peak <= 36 * 2**20


def test_conv_training_holds_no_spent_activation(traced_peak):
    # The fixture above. Each layer releases its forward cache in backward, and
    # a conv tap reads its input in place, so the stage peaks about 4 MiB lower
    # (30.35 MiB while every layer kept its last activations until the next step).
    cube = HsiCube(np.random.default_rng(4).random((48, 48, 100)))
    _, peak = traced_peak(lambda: train(extract_patches(cube, 7, 2), TrainConfig(max_epochs=1)))
    assert peak <= 28 * 2**20
