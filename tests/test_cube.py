"""Cube container, file round trips, scaling, and sampling."""

import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bandsel import cube as cube_module
from bandsel.cube import HsiCube, extract_patches, extract_pixels, load_cube, save_cube, scale_unit
from bandsel.errors import ConfigError, DataError, DimensionError, FormatError

from oracles import patch_offsets_oracle, whole_file_load_cube_reference


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

    def test_file_shorter_than_its_size_is_a_format_error(self, tmp_path, monkeypatch):
        # Every size check passes against the reported size; the payload read comes up short.
        cube = random_cube(np.random.default_rng(5), 3, 4, 5, with_gt=True)
        path = tmp_path / "cube.hsic"
        save_cube(cube, path)
        full = path.stat().st_size
        path.write_bytes(path.read_bytes()[:-7])
        real_fstat = os.fstat
        monkeypatch.setattr(cube_module.os, "fstat", lambda fd: os.stat_result(
            (*real_fstat(fd)[:6], full, *real_fstat(fd)[7:])))
        with pytest.raises(FormatError, match="short read"):
            load_cube(path)

    def test_holds_one_float64_copy_of_the_payload(self, traced_peak, tmp_path):
        cube = random_cube(np.random.default_rng(6), 64, 64, 96)
        path = tmp_path / "cube.hsic"
        save_cube(cube, path)
        with mock.patch.object(cube_module, "CHUNK_ELEMENTS", 2**16):
            loaded, peak = traced_peak(load_cube, path)
        np.testing.assert_array_equal(loaded.values, cube.values)
        # The whole-file reader held 4 bytes per value beside the 8 of the copy.
        assert peak <= 8 * cube.values.size + 2**20


@st.composite
def damaged_cube_file(draw):
    """A small valid cube file, then truncated, padded or byte-mutated (or left whole)."""
    rows, cols, bands = (draw(st.integers(1, 4), label=axis) for axis in ("rows", "cols", "bands"))
    n = rows * cols * bands
    values = draw(st.sampled_from([0.0, 1.0, 3e38]), label="scale") * np.arange(1, n + 1) / n
    labels = list(range(1, 2 * bands + 1, 2)) if draw(st.booleans(), label="labels") else None
    gt = np.arange(rows * cols, dtype=np.uint32).reshape(rows, cols) if draw(st.booleans(), label="gt") else None
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cube.hsic")
        save_cube(HsiCube(values.reshape(rows, cols, bands).astype(np.float32), band_labels=labels,
                          ground_truth=gt), path)
        with open(path, "rb") as fh:
            data = bytearray(fh.read())
    kind = draw(st.sampled_from(["whole", "truncate", "pad", "mutate"]), label="damage")
    if kind == "truncate":
        return bytes(data[: draw(st.integers(0, len(data) - 1), label="cut")])
    if kind == "pad":
        return bytes(data) + draw(st.binary(min_size=1, max_size=16), label="padding")
    if kind == "mutate":
        for pos, byte in draw(st.lists(st.tuples(st.integers(0, len(data) - 1), st.integers(0, 255)),
                                       min_size=1, max_size=6), label="edits"):
            data[pos] = byte
    return bytes(data)


def load_outcome(loader, path):
    try:
        return loader(path), None
    except (FormatError, DataError) as exc:
        return None, exc


@pytest.mark.filterwarnings("ignore:invalid value encountered in cast:RuntimeWarning")  # the reference's sNaN cast
@given(raw=damaged_cube_file(), chunk=st.sampled_from([1, 3, 2**18]))
def test_chunked_loader_matches_the_whole_file_reader(raw, chunk):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cube.hsic")
        with open(path, "wb") as fh:
            fh.write(raw)
        with mock.patch.object(cube_module, "CHUNK_ELEMENTS", chunk):
            got, got_exc = load_outcome(load_cube, path)
        want, want_exc = load_outcome(whole_file_load_cube_reference, path)
    if want_exc is not None:
        if isinstance(want_exc, DataError) and "non-finite" in str(want_exc) and isinstance(got_exc, FormatError):
            # The finite check now runs after every size check, so a later size error wins.
            return
        assert type(got_exc) is type(want_exc) and str(got_exc) == str(want_exc)
        return
    assert got_exc is None, got_exc
    np.testing.assert_array_equal(got.values, want.values)
    for field in ("band_labels", "ground_truth"):
        expected = getattr(want, field)
        if expected is None:
            assert getattr(got, field) is None
        else:
            np.testing.assert_array_equal(getattr(got, field), expected)


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

    @given(shape=st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6)),
           lo=st.floats(-1e300, 1e300), span=st.sampled_from([0.0, 1e-300, 1.0, 3.0, 1e300]))
    def test_in_place_result_equals_the_out_of_place_formula(self, shape, lo, span):
        values = lo + span * np.random.default_rng(sum(shape)).random(shape)
        want = np.zeros(shape) if values.max() == values.min() else \
            (values - values.min()) / (values.max() - values.min())
        cube = HsiCube(values.copy())
        np.testing.assert_array_equal(scale_unit(cube).values, want)

    def test_scales_in_place(self, traced_peak):
        cube = random_cube(np.random.default_rng(7), 64, 64, 64)
        values = cube.values
        out, peak = traced_peak(scale_unit, cube)
        assert out is cube and out.values is values
        assert peak < 2**20


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

    def test_is_a_c_ordered_view_of_the_cube(self):
        cube = random_cube(np.random.default_rng(13), 5, 4, 3)
        samples = extract_pixels(cube)
        assert np.shares_memory(samples, cube.values)
        assert samples.flags.c_contiguous


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

    def test_holds_one_copy_of_the_patch_set(self, traced_peak):
        cube = random_cube(np.random.default_rng(17), 48, 48, 100)
        out, peak = traced_peak(extract_patches, cube, 7, 2)
        assert out.flags.c_contiguous and out.flags.writeable
        assert peak <= 1.05 * out.nbytes + 2**20

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

    def test_huge_finite_values_are_accepted(self):
        # The values' sum overflows to inf, yet every value is finite.
        values = np.full((3, 4, 5), 1e308)
        values[1, 2, 3] = -1e308
        np.testing.assert_array_equal(HsiCube(values).values, values)

    @given(shape=st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5)), data=st.data(),
           bad=st.sampled_from([np.nan, np.inf, -np.inf]), base=st.sampled_from([0.5, 1e308]))
    def test_a_non_finite_value_anywhere_names_its_pixel(self, shape, data, bad, base):
        r, c, b = (data.draw(st.integers(0, n - 1), label=axis) for n, axis in zip(shape, "rcb"))
        values = np.full(shape, base)
        values[r, c, b] = bad
        with pytest.raises(DataError, match=rf"^non-finite value at pixel \({r},{c}\) band {b}$"):
            HsiCube(values)
