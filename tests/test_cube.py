"""Cube container, file round trips, scaling, and sampling."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bandsel.cube import HsiCube, extract_patches, extract_pixels, load_cube, save_cube, scale_unit
from bandsel.errors import ConfigError, DataError, DimensionError, FormatError

from oracles import patch_offsets_oracle


def random_cube(rng, rows, cols, bands, with_gt=False):
    # float32-exact values so disk round trips are bit-identical
    values = rng.random((rows, cols, bands), dtype=np.float32).astype(np.float64)
    gt = rng.integers(0, 4, size=(rows, cols)).astype(np.uint32) if with_gt else None
    return HsiCube(values, ground_truth=gt)


class TestFileFormat:
    def test_round_trip_is_bit_identical(self, tmp_path):
        cube = random_cube(np.random.default_rng(0), 4, 5, 6)
        path = tmp_path / "cube.hsic"
        save_cube(cube, path)
        loaded = load_cube(path)
        np.testing.assert_array_equal(loaded.values, cube.values)
        assert loaded.ground_truth is None and loaded.band_labels is None

    def test_round_trip_with_labels_and_ground_truth(self, tmp_path):
        rng = np.random.default_rng(1)
        cube = HsiCube(
            rng.random((3, 4, 5), dtype=np.float32).astype(np.float64),
            band_labels=[2, 4, 6, 8, 10],
            ground_truth=rng.integers(0, 3, size=(3, 4)).astype(np.uint32),
        )
        path = tmp_path / "cube.hsic"
        save_cube(cube, path)
        loaded = load_cube(path)
        np.testing.assert_array_equal(loaded.values, cube.values)
        np.testing.assert_array_equal(loaded.band_labels, cube.band_labels)
        np.testing.assert_array_equal(loaded.ground_truth, cube.ground_truth)

    def test_truncated_file_raises_format_error(self, tmp_path):
        cube = random_cube(np.random.default_rng(2), 4, 4, 3)
        path = tmp_path / "cube.hsic"
        save_cube(cube, path)
        blob = path.read_bytes()
        for cut in (4, len(blob) // 2, len(blob) - 1):
            short = tmp_path / "short.hsic"
            short.write_bytes(blob[:cut])
            with pytest.raises(FormatError):
                load_cube(short)

    def test_zero_band_header_rejected(self, tmp_path):
        cube = random_cube(np.random.default_rng(3), 2, 2, 2)
        path = tmp_path / "cube.hsic"
        save_cube(cube, path)
        blob = bytearray(path.read_bytes())
        # rewrite the header with bands = 0, keeping its length identical
        header = blob[12 : 12 + int.from_bytes(blob[8:12], "little")]
        patched = header.replace(b'"bands": 2', b'"bands": 0')
        assert patched != header
        blob[12 : 12 + len(header)] = patched
        bad = tmp_path / "bad.hsic"
        bad.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            load_cube(bad)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.hsic"
        path.write_bytes(b"NOTACUBE" + b"\x00" * 32)
        with pytest.raises(FormatError, match="magic"):
            load_cube(path)


class TestScaleUnit:
    def test_eight_bit_range_maps_to_unit_interval(self):
        values = np.arange(0, 256, dtype=np.float64).reshape(16, 16, 1)
        scaled = scale_unit(HsiCube(values))
        assert scaled.values.min() == 0.0 and scaled.values.max() == 1.0
        assert scaled.values[0, 0, 0] == 0.0
        assert scaled.values[15, 15, 0] == 1.0

    def test_constant_cube_maps_to_zeros(self):
        scaled = scale_unit(HsiCube(np.full((3, 3, 2), 42.0)))
        np.testing.assert_array_equal(scaled.values, np.zeros((3, 3, 2)))

    def test_min_max_after_scaling(self):
        rng = np.random.default_rng(4)
        scaled = scale_unit(HsiCube(rng.standard_normal((5, 6, 7)) * 10 + 3))
        assert scaled.values.min() == 0.0
        assert scaled.values.max() == 1.0

    def test_non_finite_rejected(self):
        values = np.ones((2, 2, 2))
        values[0, 0, 0] = np.inf
        with pytest.raises(DataError):
            scale_unit(HsiCube(values))


class TestExtractPixels:
    def test_count_is_rows_times_cols(self):
        cube = random_cube(np.random.default_rng(9), 2, 3, 4)
        samples = extract_pixels(cube)
        assert samples.shape == (6, 4)

    def test_first_sample_is_pixel_zero_zero(self):
        cube = random_cube(np.random.default_rng(10), 3, 3, 5)
        samples = extract_pixels(cube)
        np.testing.assert_array_equal(samples[0], cube.values[0, 0])

    def test_every_sample_matches_its_pixel(self):
        cube = random_cube(np.random.default_rng(11), 4, 5, 3)
        samples = extract_pixels(cube)
        for r in range(4):
            for c in range(5):
                np.testing.assert_array_equal(samples[r * 5 + c], cube.values[r, c])

    def test_regrouping_reproduces_cube(self):
        cube = random_cube(np.random.default_rng(12), 6, 7, 2)
        samples = extract_pixels(cube)
        np.testing.assert_array_equal(samples.reshape(6, 7, 2), cube.values)


class TestExtractPatches:
    def test_whole_cube_window_gives_single_patch(self):
        cube = random_cube(np.random.default_rng(13), 5, 5, 2)
        out = extract_patches(cube, 5, 1)
        assert out.shape == (1, 5, 5, 2)
        np.testing.assert_array_equal(out[0], cube.values)

    def test_five_by_five_hand_enumeration(self):
        cube = random_cube(np.random.default_rng(14), 5, 5, 1)
        out = extract_patches(cube, 3, 2)
        assert out.shape[0] == 4
        expected_offsets = [(0, 0), (0, 2), (2, 0), (2, 2)]
        for patch, (i, j) in zip(out, expected_offsets):
            np.testing.assert_array_equal(patch, cube.values[i : i + 3, j : j + 3])

    def test_per_axis_count_formula_on_large_scene(self):
        cube = HsiCube(np.zeros((145, 145, 2)))
        out = extract_patches(cube, 7, 2)
        assert out.shape[0] == 70 * 70

    def test_counts_match_enumeration_oracle(self):
        rng = np.random.default_rng(15)
        cube = random_cube(rng, 11, 9, 2)
        for a in range(1, 9):
            for t in range(1, 9):
                out = extract_patches(cube, a, t)
                offsets = patch_offsets_oracle(11, 9, a, t)
                assert out.shape[0] == len(offsets)
                for patch, (i, j) in zip(out, offsets):
                    np.testing.assert_array_equal(patch, cube.values[i : i + a, j : j + a])

    @given(rows=st.integers(1, 20), cols=st.integers(1, 20), bands=st.integers(1, 3),
           a=st.integers(1, 8), t=st.integers(1, 8))
    def test_any_geometry_matches_enumeration_oracle(self, rows, cols, bands, a, t):
        cube = HsiCube(np.arange(rows * cols * bands, dtype=np.float64).reshape(rows, cols, bands))
        offsets = patch_offsets_oracle(rows, cols, a, t)
        if not offsets:
            with pytest.raises(ConfigError):
                extract_patches(cube, a, t)
            return
        out = extract_patches(cube, a, t)
        assert out.shape == (len(offsets), a, a, bands)
        for patch, (i, j) in zip(out, offsets):
            np.testing.assert_array_equal(patch, cube.values[i : i + a, j : j + a])

    def test_oversized_window_rejected(self):
        cube = random_cube(np.random.default_rng(16), 4, 4, 2)
        with pytest.raises(ConfigError):
            extract_patches(cube, 5, 1)
        with pytest.raises(ConfigError):
            extract_patches(cube, 2, 0)


class TestInvariants:
    def test_band_labels_must_increase(self):
        with pytest.raises(DataError):
            HsiCube(np.zeros((2, 2, 3)), band_labels=[3, 2, 1])

    def test_ground_truth_shape_checked(self):
        with pytest.raises(DimensionError):
            HsiCube(np.zeros((2, 2, 3)), ground_truth=np.zeros((3, 3), dtype=np.uint32))
