"""Averaging, ranking, tie-breaking, and result serialization."""

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bandsel.errors import ConfigError, FormatError
from bandsel.models import BandSelectorFC
from bandsel.selection import SelectionResult, select_top_k
from bandsel.training import _full_averaged_weights

from oracles import column_mean_oracle, topk_oracle


class _SamplesAsWeights:
    """Stand-in selector whose band weights are the samples themselves."""

    def __init__(self, bands):
        self.bands = bands

    def block_band_weights(self, samples, start, stop):
        return samples[start:stop]


class TestAveraging:
    """The chunked full-pass mean that ``train`` ranks bands by."""

    def test_single_sample_is_its_own_average(self):
        w = np.array([[0.2, 0.9, 0.4]])
        np.testing.assert_array_equal(_full_averaged_weights(_SamplesAsWeights(3), w), w[0])

    def test_two_sample_hand_case(self):
        w = np.array([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_array_equal(_full_averaged_weights(_SamplesAsWeights(2), w), [0.5, 0.5])

    def test_matches_column_mean_oracle(self):
        # 2500 samples span three 1024-sample chunks, the last one ragged.
        rng = np.random.default_rng(0)
        model = BandSelectorFC(20, bam_hidden=(8,), rec_hidden=(8,), rng=rng)
        samples = rng.random((2500, 20))
        expected = column_mean_oracle(model.band_weights(samples))
        np.testing.assert_allclose(_full_averaged_weights(model, samples), expected, rtol=1e-12)


class TestTopK:
    def test_hand_case(self):
        result = select_top_k(np.array([0.1, 0.9, 0.5]), 2)
        assert result.top_k == [1, 2]
        assert result.ranking == [1, 2, 0]

    def test_all_equal_breaks_ties_by_index(self):
        result = select_top_k(np.full(5, 0.3), 3)
        assert result.top_k == [0, 1, 2]

    def test_matches_sort_then_slice_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            scores = rng.random(17)
            k = int(rng.integers(1, 18))
            assert select_top_k(scores, k).top_k == topk_oracle(scores, k)

    @given(scores=st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]), min_size=1, max_size=20), data=st.data())
    def test_tied_scores_match_sort_then_slice_oracle(self, scores, data):
        k = data.draw(st.integers(1, len(scores)))
        result = select_top_k(np.array(scores), k)
        assert result.top_k == topk_oracle(scores, k)
        assert result.ranking == topk_oracle(scores, len(scores))

    def test_ranking_is_a_permutation(self):
        rng = np.random.default_rng(3)
        result = select_top_k(rng.random(30), 7)
        assert sorted(result.ranking) == list(range(30))
        assert len(result.top_k) == 7

    def test_positive_scaling_leaves_ranking_unchanged(self):
        rng = np.random.default_rng(4)
        scores = rng.random(25)
        base = select_top_k(scores, 10)
        for c in (1e-6, 0.5, 3.0, 1e6):
            scaled = select_top_k(c * scores, 10)
            assert scaled.ranking == base.ranking

    @pytest.mark.parametrize("k", [0, 6])
    def test_k_out_of_range_rejected(self, k):
        with pytest.raises(ConfigError):
            select_top_k(np.ones(5), k)


class TestSerialization:
    def test_json_round_trip(self, tmp_path):
        result = select_top_k(
            np.array([0.2, 0.7, 0.1]), 2,
            loss_trace=[1.5, 0.25],
            config={"variant": "fc", "seed": 3},
        )
        path = tmp_path / "result.json"
        result.save_json(path)
        loaded = SelectionResult.load_json(path)
        assert loaded.ranking == result.ranking
        assert loaded.top_k == result.top_k
        assert loaded.loss_trace == result.loss_trace
        assert loaded.config == result.config
        np.testing.assert_array_equal(loaded.averaged_weights, result.averaged_weights)

    @pytest.mark.parametrize("text", [
        "{not json",
        "[0, 1]",
        '{"top_k": [0], "averaged_weights": [0.5], "loss_trace": []}',
        '{"ranking": [0.0], "top_k": [0], "averaged_weights": [0.5], "loss_trace": []}',
        '{"ranking": [0], "top_k": [true], "averaged_weights": [0.5], "loss_trace": []}',
        '{"ranking": [0], "top_k": [0], "averaged_weights": ["x"], "loss_trace": []}',
    ])
    def test_malformed_json_is_a_format_error(self, text):
        with pytest.raises(FormatError):
            SelectionResult.from_json(text)

    @pytest.mark.parametrize("fields", [
        {"top_k": [5, 5, 5]},
        {"top_k": [0, 1]},
        {"averaged_weights": None},
        {"averaged_weights": [0.5]},
        {"averaged_weights": [[0.5, 0.5]]},
        {"averaged_weights": [0.5, float("nan")]},
        {"averaged_weights": ["0.5", "0.5"]},
        {"loss_trace": "ab"},
        {"loss_trace": [1.0, float("inf")]},
        {"loss_trace": [True]},
    ], ids=["top_k_longer_than_ranking", "top_k_not_a_prefix", "weights_null", "weights_too_short",
            "weights_2d", "weights_nan", "weights_strings", "loss_trace_string", "loss_trace_inf",
            "loss_trace_bool"])
    def test_inconsistent_fields_are_a_format_error(self, fields):
        payload = {"ranking": [1, 0], "top_k": [1], "averaged_weights": [0.5, 0.25], "loss_trace": [2.0]}
        SelectionResult.from_json(json.dumps(payload))  # the unmodified payload loads
        with pytest.raises(FormatError):
            SelectionResult.from_json(json.dumps({**payload, **fields}))
