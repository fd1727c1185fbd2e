"""Split, k-NN, report, and sweep behavior of the evaluation harness."""

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bandsel import evaluate
from bandsel.cube import HsiCube
from bandsel.errors import ConfigError, DataError, DimensionError
from bandsel.evaluate import (
    ClassReport,
    SplitSpec,
    classify_knn,
    evaluate_subset,
    report,
    split,
    sweep,
)

from oracles import knn_oracle, report_oracle


def labeled_cube(rng, rows=10, cols=10, bands=4, classes=3):
    values = rng.random((rows, cols, bands))
    gt = rng.integers(1, classes + 1, size=(rows, cols)).astype(np.uint32)
    return HsiCube(values, ground_truth=gt)


def two_class_cube():
    values = np.random.default_rng(0).random((4, 5, 3))
    gt = np.zeros((4, 5), dtype=np.uint32)
    gt[:2] = 1
    gt[2:] = 2
    return HsiCube(values, ground_truth=gt)


class TestSplit:
    def test_half_fraction_on_balanced_classes(self):
        cube = two_class_cube()
        train_idx, test_idx = split(cube, SplitSpec(train_fraction=0.5, seed=0))
        labels = cube.ground_truth.ravel()
        assert (labels[train_idx] == 1).sum() == 5
        assert (labels[train_idx] == 2).sum() == 5
        assert len(test_idx) == 10

    def test_train_and_test_are_disjoint_and_labeled(self):
        rng = np.random.default_rng(1)
        cube = labeled_cube(rng)
        cube.ground_truth[0, :3] = 0  # some unlabeled pixels
        train_idx, test_idx = split(cube, SplitSpec(train_fraction=0.2, seed=1))
        assert set(train_idx).isdisjoint(test_idx)
        labels = cube.ground_truth.ravel()
        assert np.all(labels[train_idx] > 0)
        assert np.all(labels[test_idx] > 0)
        assert len(train_idx) + len(test_idx) == (labels > 0).sum()

    def test_fixed_seed_reproduces_split(self):
        cube = labeled_cube(np.random.default_rng(2))
        a = split(cube, SplitSpec(train_fraction=0.3, seed=7))
        b = split(cube, SplitSpec(train_fraction=0.3, seed=7))
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_every_class_keeps_a_training_pixel(self):
        values = np.random.default_rng(3).random((6, 6, 2))
        gt = np.ones((6, 6), dtype=np.uint32)
        gt[0, 0] = 2
        gt[5, 5] = 2
        gt[3, 3] = 3
        gt[3, 4] = 3
        cube = HsiCube(values, ground_truth=gt)
        train_idx, _ = split(cube, SplitSpec(train_fraction=0.05, seed=4))
        labels = cube.ground_truth.ravel()[train_idx]
        assert {1, 2, 3} <= set(labels.tolist())

    def test_missing_class_id_warns_and_skips(self):
        values = np.random.default_rng(4).random((4, 4, 2))
        gt = np.ones((4, 4), dtype=np.uint32)
        gt[2:] = 3  # class 2 absent
        cube = HsiCube(values, ground_truth=gt)
        with pytest.warns(UserWarning, match="class 2"):
            train_idx, test_idx = split(cube, SplitSpec(train_fraction=0.25, seed=5))
        assert len(train_idx) + len(test_idx) == 16

    def test_gap_of_missing_ids_warns_once_and_confusion_has_present_classes(self):
        values = np.random.default_rng(5).random((4, 6, 3))
        gt = np.ones((4, 6), dtype=np.uint32)
        gt[1] = 2
        gt[2:] = 3000
        cube = HsiCube(values, ground_truth=gt)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rep = evaluate_subset(cube, [0, 1], SplitSpec(train_fraction=0.25, seed=6))
        assert [str(w.message) for w in caught] == ["classes 3-2999 have no labeled pixels; skipped"]
        assert rep.confusion.shape == (3, 3)

    def test_unlabeled_cube_rejected(self):
        values = np.zeros((3, 3, 2))
        cube = HsiCube(values, ground_truth=np.zeros((3, 3), dtype=np.uint32))
        with pytest.raises(ConfigError):
            split(cube, SplitSpec(train_fraction=0.5))
        with pytest.raises(ConfigError):
            split(HsiCube(values), SplitSpec(train_fraction=0.5))

    def test_bad_fraction_rejected(self):
        with pytest.raises(ConfigError):
            SplitSpec(train_fraction=1.0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            SplitSpec(seed=-1)


class TestKnn:
    def test_exact_match_returns_its_label(self):
        train_x = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        train_y = np.array([0, 1, 2])
        pred = classify_knn(train_x, train_y, np.array([[1.0, 1.0]]), k_neighbors=1)
        assert pred.tolist() == [1]

    def test_separated_blobs_are_perfectly_classified(self):
        rng = np.random.default_rng(5)
        a = rng.normal(0.0, 0.05, size=(20, 3))
        b = rng.normal(5.0, 0.05, size=(20, 3))
        train_x = np.vstack([a[:10], b[:10]])
        train_y = np.array([0] * 10 + [1] * 10)
        test_x = np.vstack([a[10:], b[10:]])
        pred = classify_knn(train_x, train_y, test_x, k_neighbors=1)
        assert pred.tolist() == [0] * 10 + [1] * 10

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(6)
        train_x = rng.random((30, 4))
        draws = rng.integers(0, 3, size=30)
        test_x = rng.random((25, 4))
        for class_ids in ((0, 1, 2), (0, 7, 42)):  # contiguous and gapped label ids
            train_y = np.array(class_ids)[draws]
            for k in (1, 3, 5):
                pred = classify_knn(train_x, train_y, test_x, k_neighbors=k)
                np.testing.assert_array_equal(pred, knn_oracle(train_x, train_y, test_x, k))

    @given(data=st.data())
    def test_matches_oracle_on_tie_heavy_inputs(self, data):
        # Pixels in {0, 1, 2} make exact distance ties common, duplicated training rows
        # tie at every distance, and small chunk budgets split the test rows across chunks.
        bands = data.draw(st.integers(1, 3), label="bands")

        def pixel_rows(n):
            return st.lists(st.lists(st.integers(0, 2), min_size=bands, max_size=bands),
                            min_size=n, max_size=n)

        n_train = data.draw(st.integers(1, 20), label="n_train")
        train_x = np.array(data.draw(pixel_rows(n_train), label="train"), dtype=np.float64)
        copies = data.draw(st.lists(st.integers(0, n_train - 1), max_size=8), label="duplicates")
        train_x = np.vstack([train_x, train_x[copies]])
        train_y = np.array(data.draw(st.lists(st.sampled_from([0, 3, 7, 42]), min_size=len(train_x),
                                              max_size=len(train_x)), label="labels"))
        test_x = np.array(data.draw(pixel_rows(data.draw(st.integers(1, 24), label="n_test")),
                                    label="test"), dtype=np.float64)
        k = data.draw(st.integers(1, len(train_x) + 3), label="k")
        budget = data.draw(st.sampled_from([1, 16, 100, evaluate.KNN_CHUNK_ELEMENTS]), label="chunk")
        with mock.patch.object(evaluate, "KNN_CHUNK_ELEMENTS", budget):
            pred = classify_knn(train_x, train_y, test_x, k_neighbors=k)
        np.testing.assert_array_equal(pred, knn_oracle(train_x, train_y, test_x, k))

    def test_nan_test_pixel_ranks_training_pixels_by_index(self):
        # Every distance is NaN, so the k nearest are the first k training pixels.
        train_x = np.array([[0.0], [1.0], [2.0], [3.0]])
        pred = classify_knn(train_x, np.array([2, 1, 0, 0]), np.array([[np.nan], [2.9]]), k_neighbors=2)
        assert pred.tolist() == [1, 0]

    def test_vote_tie_goes_to_smallest_class_id(self):
        train_x = np.array([[0.0], [2.0]])
        train_y = np.array([1, 0])
        pred = classify_knn(train_x, train_y, np.array([[1.0]]), k_neighbors=2)
        assert pred.tolist() == [0]

    def test_empty_training_set_rejected(self):
        with pytest.raises(ConfigError):
            classify_knn(np.zeros((0, 3)), np.zeros(0, dtype=int), np.zeros((1, 3)))


class TestReport:
    def test_perfect_prediction(self):
        y = np.array([0, 1, 2, 1, 0])
        rep = report(y, y, 3)
        assert rep.oa == 1.0 and rep.aa == 1.0 and rep.kappa == 1.0

    def test_constant_prediction_on_balanced_classes(self):
        y_true = np.array([0] * 10 + [1] * 10)
        y_pred = np.zeros(20, dtype=int)
        rep = report(y_true, y_pred, 2)
        assert rep.oa == 0.5
        assert rep.kappa == 0.0

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(7)
        y_true = rng.integers(0, 4, size=200)
        y_pred = rng.integers(0, 4, size=200)
        rep = report(y_true, y_pred, 4)
        confusion, oa, aa, kappa = report_oracle(y_true, y_pred, 4)
        np.testing.assert_array_equal(rep.confusion, confusion)
        assert rep.oa == pytest.approx(oa, abs=1e-12)
        assert rep.aa == pytest.approx(aa, abs=1e-12)
        assert rep.kappa == pytest.approx(kappa, abs=1e-12)

    @given(n_classes=st.integers(2, 6), data=st.data())
    def test_matches_loop_oracle_with_absent_classes(self, n_classes, data):
        present = data.draw(st.lists(st.integers(0, n_classes - 1), min_size=1, max_size=n_classes - 1,
                                     unique=True))
        y_true = data.draw(st.lists(st.sampled_from(present), min_size=1, max_size=40))
        y_pred = data.draw(st.lists(st.integers(0, n_classes - 1), min_size=len(y_true), max_size=len(y_true)))
        rep = report(y_true, y_pred, n_classes)
        confusion, oa, aa, kappa = report_oracle(y_true, y_pred, n_classes)
        np.testing.assert_array_equal(rep.confusion, confusion)
        assert rep.oa == pytest.approx(oa, abs=1e-12)
        assert rep.aa == pytest.approx(aa, abs=1e-12)
        assert rep.kappa == pytest.approx(kappa, abs=1e-12)

    def test_confusion_rows_sum_to_class_counts(self):
        rng = np.random.default_rng(8)
        y_true = rng.integers(0, 3, size=120)
        y_pred = rng.integers(0, 3, size=120)
        rep = report(y_true, y_pred, 3)
        for c in range(3):
            assert rep.confusion[c].sum() == (y_true == c).sum()

    def test_kappa_is_one_iff_oa_is_one(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            y_true = rng.integers(0, 3, size=60)
            y_pred = np.where(rng.random(60) < 0.8, y_true, rng.integers(0, 3, size=60))
            rep = report(y_true, y_pred, 3)
            assert (rep.kappa == 1.0) == (rep.oa == 1.0)

    def test_shuffled_predictions_have_near_zero_kappa(self):
        rng = np.random.default_rng(10)
        y_true = rng.integers(0, 3, size=300)
        y_pred = y_true.copy()
        kappas = []
        for _ in range(300):
            rng.shuffle(y_pred)
            kappas.append(report(y_true, y_pred, 3).kappa)
        assert abs(np.mean(kappas)) < 0.05

    def test_label_out_of_range_rejected(self):
        with pytest.raises(DataError):
            report(np.array([0, 3]), np.array([0, 1]), 3)
        with pytest.raises(DimensionError):
            report(np.array([0, 1]), np.array([0]), 2)


class TestSweep:
    def test_single_run_single_k_single_selector(self):
        cube = labeled_cube(np.random.default_rng(11))
        rows, aggregated = sweep(cube, {"var": [0, 1, 2, 3]}, [2], runs=1, train_fraction=0.3)
        assert len(rows) == 1 and len(aggregated) == 1
        name, k, *stats = aggregated[0]
        assert name == "var" and k == 2
        assert stats[1] == 0.0 and stats[3] == 0.0 and stats[5] == 0.0  # stds with one run

    def test_rows_cover_selectors_ks_and_runs(self):
        cube = labeled_cube(np.random.default_rng(12))
        rows, aggregated = sweep(
            cube, {"a": [0, 1, 2, 3], "b": [3, 2, 1, 0]}, [1, 3], runs=2,
            train_fraction=0.3, include_random=True,
        )
        assert len(rows) == 3 * 2 * 2
        assert len(aggregated) == 3 * 2
        seeds = {r[2] for r in rows}
        assert seeds == {0, 1}

    def test_deterministic_under_fixed_base_seed(self):
        cube = labeled_cube(np.random.default_rng(13))
        a = sweep(cube, {"s": [0, 1, 2, 3]}, [2], runs=3, train_fraction=0.3, base_seed=5)
        b = sweep(cube, {"s": [0, 1, 2, 3]}, [2], runs=3, train_fraction=0.3, base_seed=5)
        assert a == b

    def test_rows_equal_per_run_evaluate_subset_calls(self, monkeypatch):
        cube = labeled_cube(np.random.default_rng(15), bands=5)
        rankings = {"a": [0, 1, 2, 3, 4], "b": [4, 2, 0, 3, 1]}
        calls = []
        real_split = evaluate.split

        def counting_split(*args):
            calls.append(args)
            return real_split(*args)

        monkeypatch.setattr(evaluate, "split", counting_split)
        rows, _ = sweep(cube, rankings, [1, 3], runs=3, train_fraction=0.3, k_neighbors=3,
                        base_seed=4, include_random=True)
        assert len(calls) == 3
        monkeypatch.undo()
        expected = []
        for seed in (4, 5, 6):
            spec = SplitSpec(train_fraction=0.3, seed=seed)
            random_rng = np.random.default_rng(seed)
            for k in (1, 3):
                subsets = {name: ranking[:k] for name, ranking in rankings.items()}
                subsets["random"] = random_rng.choice(5, size=k, replace=False)
                for name, subset in subsets.items():
                    rep = evaluate_subset(cube, subset, spec, k_neighbors=3)
                    expected.append((name, k, seed, rep.oa, rep.aa, rep.kappa))
        assert rows == expected

    def test_selector_named_random_collides_with_the_baseline(self):
        cube = labeled_cube(np.random.default_rng(16))
        with pytest.raises(ConfigError, match="random"):
            sweep(cube, {"random": [0, 1, 2, 3]}, [2], 2, include_random=True)
        rows, _ = sweep(cube, {"random": [0, 1, 2, 3]}, [2], 2)
        assert [row[0] for row in rows] == ["random", "random"]

    def test_short_ranking_rejected(self):
        cube = labeled_cube(np.random.default_rng(14))
        with pytest.raises(ConfigError):
            sweep(cube, {"s": [0, 1]}, [3], runs=1, train_fraction=0.3)


def test_evaluate_subset_end_to_end():
    cube = two_class_cube()
    rep = evaluate_subset(cube, [0, 1], SplitSpec(train_fraction=0.5, seed=3), k_neighbors=3)
    assert isinstance(rep, ClassReport)
    assert 0.0 <= rep.oa <= 1.0
    assert -1.0 <= rep.kappa <= 1.0
    with pytest.raises(ConfigError):
        evaluate_subset(cube, [], SplitSpec(train_fraction=0.5))
