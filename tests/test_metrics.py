"""Histogram, entropy, divergence, and variance-ranking metrics against loop oracles."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bandsel.cube import HsiCube
from bandsel.errors import ConfigError
from bandsel.metrics import (
    band_entropy,
    band_histogram,
    band_histograms,
    msd,
    msd_sweep,
    skl_divergence,
    variance_rank,
)

from oracles import entropy_oracle, histogram_oracle, msd_oracle, skl_oracle, variance_oracle


def unit_cube(rng, rows=8, cols=8, bands=6):
    return HsiCube(rng.random((rows, cols, bands)))


class TestHistogram:
    def test_constant_band_fills_single_bin(self):
        cube = HsiCube(np.full((4, 4, 2), 0.37))
        counts = band_histogram(cube, 0, 256)
        assert counts.sum() == 16
        assert (counts > 0).sum() == 1

    def test_binary_band_hits_first_and_last_bin(self):
        values = np.zeros((4, 4, 1))
        values[:2] = 1.0
        counts = band_histogram(HsiCube(values), 0, 256)
        assert counts[0] == 8 and counts[255] == 8
        assert counts.sum() == 16

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(0)
        cube = unit_cube(rng)
        for band in range(cube.bands):
            counts = band_histogram(cube, band, 64)
            np.testing.assert_array_equal(counts, histogram_oracle(cube.values[:, :, band], 64))

    def test_bad_band_or_bins_rejected(self):
        cube = unit_cube(np.random.default_rng(2))
        with pytest.raises(ConfigError):
            band_histogram(cube, 6, 256)
        with pytest.raises(ConfigError):
            band_histogram(cube, 0, 1)


class TestEntropy:
    def test_constant_band_has_exactly_zero_entropy(self):
        cube = HsiCube(np.full((5, 5, 1), 0.8))
        assert band_entropy(band_histogram(cube, 0, 256)) == 0.0

    def test_uniform_histogram_reaches_log_bins(self):
        # One pixel per bin: 256 equiprobable gray levels.
        values = (np.arange(256) / 255.0).reshape(16, 16, 1)
        hist = band_histogram(HsiCube(values), 0, 256)
        assert band_entropy(hist) == pytest.approx(np.log(256), rel=1e-12)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(3)
        cube = unit_cube(rng)
        for band in range(cube.bands):
            counts = band_histogram(cube, band, 128)
            assert band_entropy(counts) == pytest.approx(entropy_oracle(counts), abs=1e-12)

    def test_entropy_bounded_by_log_bins(self):
        rng = np.random.default_rng(4)
        cube = unit_cube(rng, 12, 12, 8)
        for band in range(8):
            h = band_entropy(band_histogram(cube, band, 64))
            assert 0.0 <= h <= np.log(64)


class TestSkl:
    def test_identical_histograms_have_zero_divergence(self):
        cube = unit_cube(np.random.default_rng(5))
        hist = band_histogram(cube, 2, 64)
        assert skl_divergence(hist, hist) == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(6)
        cube = unit_cube(rng)
        for i, j in ((0, 1), (2, 5), (3, 4)):
            hi = band_histogram(cube, i, 64)
            hj = band_histogram(cube, j, 64)
            assert skl_divergence(hi, hj) == pytest.approx(skl_divergence(hj, hi), rel=1e-12)
            assert skl_divergence(hi, hj) >= 0.0

    def test_matches_two_term_loop_oracle(self):
        rng = np.random.default_rng(7)
        cube = unit_cube(rng)
        hi = band_histogram(cube, 0, 96)
        hj = band_histogram(cube, 4, 96)
        assert skl_divergence(hi, hj) == pytest.approx(skl_oracle(hi, hj), abs=1e-10)

    def test_bin_count_mismatch_rejected(self):
        cube = unit_cube(np.random.default_rng(8))
        with pytest.raises(ConfigError):
            skl_divergence(band_histogram(cube, 0, 64), band_histogram(cube, 1, 32))


class TestMsd:
    def test_duplicated_band_content_gives_zero(self):
        values = np.random.default_rng(9).random((6, 6, 3))
        values[:, :, 2] = values[:, :, 0]
        cube = HsiCube(values)
        assert msd(cube, [0, 2]) == 0.0

    def test_repeated_indices_tolerated_as_zero(self):
        cube = unit_cube(np.random.default_rng(10))
        assert msd(cube, [3, 3]) == 0.0

    def test_matches_pairwise_loop_oracle(self):
        rng = np.random.default_rng(11)
        cube = unit_cube(rng, 10, 10, 8)
        subset = [1, 3, 4, 7]
        assert msd(cube, subset, 64) == pytest.approx(msd_oracle(cube.values, subset, 64), abs=1e-10)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(12)
        cube = unit_cube(rng, 10, 10, 8)
        base = msd(cube, [0, 2, 5, 6], 64)
        for perm in ([6, 0, 5, 2], [2, 6, 0, 5], [5, 2, 6, 0]):
            assert msd(cube, perm, 64) == pytest.approx(base, rel=1e-12)

    def test_near_constant_noise_band_changes_msd_consistently(self):
        # Adding an extreme-histogram band shifts the value exactly as a
        # direct recomputation says it should.
        rng = np.random.default_rng(13)
        values = rng.random((8, 8, 5))
        values[:, :, 4] = 0.001 * rng.random((8, 8))
        cube = HsiCube(values)
        with_noise = msd(cube, [0, 1, 4], 64)
        assert with_noise == pytest.approx(msd_oracle(cube.values, [0, 1, 4], 64), abs=1e-10)

    def test_subset_too_small_rejected(self):
        cube = unit_cube(np.random.default_rng(14))
        with pytest.raises(ConfigError):
            msd(cube, [1])


class TestVarianceRank:
    def test_constant_cube_ties_resolve_by_index(self):
        cube = HsiCube(np.full((4, 4, 5), 0.5))
        result = variance_rank(cube, 3)
        assert result.ranking == [0, 1, 2, 3, 4]
        assert result.top_k == [0, 1, 2]

    def test_single_varying_band_wins(self):
        values = np.full((6, 6, 4), 0.3)
        values[:, :, 2] = np.random.default_rng(15).random((6, 6))
        result = variance_rank(HsiCube(values), 1)
        assert result.top_k == [2]

    def test_matches_loop_variances(self):
        rng = np.random.default_rng(16)
        cube = unit_cube(rng, 7, 9, 6)
        result = variance_rank(cube, 6)
        expected = variance_oracle(cube.values.reshape(-1, 6))
        np.testing.assert_allclose(result.averaged_weights, expected, rtol=1e-12)
        assert result.ranking == sorted(range(6), key=lambda i: (-expected[i], i))

    def test_k_out_of_range_rejected(self):
        cube = unit_cube(np.random.default_rng(17))
        with pytest.raises(ConfigError):
            variance_rank(cube, 7)


class TestExports:
    def test_msd_sweep_rows(self):
        rng = np.random.default_rng(20)
        cube = unit_cube(rng, 8, 8, 7)
        ranking = variance_rank(cube, 7).ranking
        rows = msd_sweep(band_histograms(cube, 32), ranking, [2, 4, 6])
        assert [k for k, _ in rows] == [2, 4, 6]
        for k, value in rows:
            assert value == pytest.approx(msd_oracle(cube.values, ranking[:k], 32), abs=1e-10)

    @pytest.mark.parametrize("ranking", [[0, 7], [-1, 0]])
    def test_msd_sweep_rejects_a_band_without_a_histogram(self, ranking):
        counts = band_histograms(unit_cube(np.random.default_rng(21), 4, 4, 7), 16)
        with pytest.raises(ConfigError):
            msd_sweep(counts, ranking, [2])

    @given(data=st.data())
    def test_msd_sweep_matches_oracle_on_random_rankings(self, data):
        # Rankings may repeat bands; a repeated pair contributes exactly zero.
        rows = data.draw(st.integers(2, 6), label="rows")
        cols = data.draw(st.integers(2, 6), label="cols")
        bands = data.draw(st.integers(2, 7), label="bands")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        cube = HsiCube(np.random.default_rng(seed).random((rows, cols, bands)))
        ranking = data.draw(st.lists(st.integers(0, bands - 1), min_size=2, max_size=9), label="ranking")
        k_values = data.draw(st.lists(st.integers(2, len(ranking)), min_size=1, max_size=4), label="k")
        n_bins = data.draw(st.sampled_from([2, 8, 64, 256]), label="n_bins")
        rows_out = msd_sweep(band_histograms(cube, n_bins), ranking, k_values)
        assert [k for k, _ in rows_out] == k_values
        for k, value in rows_out:
            assert value == pytest.approx(msd_oracle(cube.values, ranking[:k], n_bins), abs=1e-10)
