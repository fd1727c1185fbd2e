"""Synthetic cube construction: determinism, planted structure, probe recovery."""

import numpy as np
import pytest

from bandsel.cube import scale_unit
from bandsel.errors import ConfigError
from bandsel.synthetic import SynthSpec, synth_generate


def logit(p, eps=1e-6):
    p = np.clip(p, eps, 1 - eps)
    return np.log(p / (1 - p))


def probe_r2(cube, spec, band):
    """Fit band = sigmoid(affine(planted)) by least squares in logit space."""
    flat = cube.values.reshape(-1, cube.bands)
    target = flat[:, band]
    design = np.column_stack([flat[:, list(spec.informative)], np.ones(flat.shape[0])])
    coef, *_ = np.linalg.lstsq(design, logit(target), rcond=None)
    fitted = 1.0 / (1.0 + np.exp(-(design @ coef)))
    ss_res = np.sum((target - fitted) ** 2)
    ss_tot = np.sum((target - target.mean()) ** 2)
    return 1.0 - ss_res / ss_tot


class TestGeneration:
    def test_same_seed_gives_identical_cubes(self):
        spec = SynthSpec(rows=8, cols=9, bands=12, informative=(1, 5, 9), seed=3)
        a = synth_generate(spec)
        b = synth_generate(spec)
        np.testing.assert_array_equal(a.values, b.values)
        np.testing.assert_array_equal(a.ground_truth, b.ground_truth)

    def test_values_inside_unit_interval(self):
        spec = SynthSpec(rows=10, cols=10, bands=15, informative=(0, 7), noise_sigma=0.05, seed=1)
        cube = synth_generate(spec)
        assert cube.values.min() >= 0.0 and cube.values.max() <= 1.0

    def test_planted_bands_span_at_least_half_after_scaling(self):
        spec = SynthSpec(rows=16, cols=16, bands=20, informative=(2, 8, 14), seed=5)
        cube = scale_unit(synth_generate(spec))
        for band in spec.informative:
            plane = cube.values[:, :, band]
            assert plane.max() - plane.min() >= 0.5

    def test_noiseless_mixtures_are_exact_functions_of_planted(self):
        spec = SynthSpec(rows=12, cols=12, bands=10, informative=(0, 4, 8), noise_sigma=0.0, seed=7)
        cube = synth_generate(spec)
        for band in range(10):
            if band in spec.informative:
                continue
            assert probe_r2(cube, spec, band) > 1 - 1e-8

    def test_probe_explains_99_percent_at_low_noise(self):
        spec = SynthSpec(rows=16, cols=16, bands=14, informative=(1, 6, 11), noise_sigma=0.01, seed=9)
        cube = synth_generate(spec)
        for band in range(14):
            if band in spec.informative:
                continue
            assert probe_r2(cube, spec, band) >= 0.99

    def test_ground_truth_uses_every_class(self):
        spec = SynthSpec(rows=16, cols=16, bands=8, informative=(2, 5), classes=4, seed=11)
        cube = synth_generate(spec)
        assert set(np.unique(cube.ground_truth)) == {1, 2, 3, 4}

    def test_classes_zero_disables_ground_truth(self):
        spec = SynthSpec(rows=6, cols=6, bands=5, informative=(0,), classes=0, seed=0)
        assert synth_generate(spec).ground_truth is None


class TestSpecValidation:
    def test_empty_informative_rejected(self):
        with pytest.raises(ConfigError):
            SynthSpec(rows=4, cols=4, bands=5, informative=())

    def test_duplicate_informative_rejected(self):
        with pytest.raises(ConfigError):
            SynthSpec(rows=4, cols=4, bands=5, informative=(1, 1))

    def test_out_of_range_informative_rejected(self):
        with pytest.raises(ConfigError):
            SynthSpec(rows=4, cols=4, bands=5, informative=(5,))

    def test_negative_noise_rejected(self):
        with pytest.raises(ConfigError):
            SynthSpec(rows=4, cols=4, bands=5, informative=(0,), noise_sigma=-0.1)

    def test_single_class_rejected(self):
        with pytest.raises(ConfigError):
            SynthSpec(rows=4, cols=4, bands=5, informative=(0,), classes=1)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            SynthSpec(rows=4, cols=4, bands=5, informative=(0,), seed=-1)
