"""Desk-scale classification harness for comparing selected band subsets.

Labeled pixels are split per class into train and test sets, a k-nearest
neighbor classifier votes on the selected-band subspace, and overall
accuracy, average (per-class) accuracy, and Cohen's kappa summarize the
outcome. Pixels labeled 0 are treated as unlabeled and excluded throughout.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from bandsel.errors import ConfigError, DataError, DimensionError

# Distances held per k-NN chunk: 2 MB of float64, which fits a per-core L2
# cache while the chunk's rows are selected and compared.
KNN_CHUNK_ELEMENTS = 250_000


@dataclass
class SplitSpec:
    """Stratified train/test split parameters."""

    train_fraction: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.train_fraction < 1:
            raise ConfigError(f"train fraction must be in (0, 1), got {self.train_fraction}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


def split(cube, spec):
    """Split labeled pixels into disjoint (train, test) flat pixel indices.

    The split is stratified: every class keeps at least one training
    pixel (and at least one test pixel when it has two or more). Empty
    class ids below the maximum label are skipped with one warning per
    run of consecutive missing ids.
    Deterministic for a fixed seed.
    """
    if cube.ground_truth is None:
        raise ConfigError("cube has no ground truth; cannot split")
    labels = cube.ground_truth.ravel().astype(np.int64)
    present = np.unique(labels[labels > 0])
    if present.size == 0:
        raise ConfigError("cube has no labeled pixels")
    if present.size < 2:
        raise ConfigError(f"need at least 2 labeled classes, got {present.size}")
    bounds = np.concatenate(([0], present))
    for first, last in zip(bounds[:-1] + 1, bounds[1:] - 1):
        if first == last:
            warnings.warn(f"class {first} has no labeled pixels; skipped", stacklevel=2)
        elif first < last:
            warnings.warn(f"classes {first}-{last} have no labeled pixels; skipped", stacklevel=2)
    rng = np.random.default_rng(spec.seed)
    train_parts = []
    test_parts = []
    for class_id in present:
        idx = np.flatnonzero(labels == class_id)
        idx = idx[rng.permutation(idx.size)]
        n_train = max(1, int(round(spec.train_fraction * idx.size)))
        if idx.size >= 2:
            n_train = min(n_train, idx.size - 1)
        train_parts.append(idx[:n_train])
        test_parts.append(idx[n_train:])
    train_idx = np.sort(np.concatenate(train_parts))
    test_idx = np.sort(np.concatenate(test_parts))
    return train_idx, test_idx


def classify_knn(train_pixels, train_labels, test_pixels, k_neighbors=5):
    """Euclidean k-NN majority vote; ties go to the smallest class id.

    Callers restrict the pixel matrices to the selected bands beforehand.
    Squared distances are expanded as |a|^2 - 2 a.b + |b|^2 over chunks of
    about KNN_CHUNK_ELEMENTS distances. Each row keeps its k nearest
    training pixels by partial selection (``argpartition``); only a row
    where another training pixel ties the k-th distance (or the k-th
    distance is NaN) is re-ranked with a stable full sort, so equal
    distances resolve toward lower training indices.
    """
    train_pixels = np.asarray(train_pixels, dtype=np.float64)
    test_pixels = np.asarray(test_pixels, dtype=np.float64)
    train_labels = np.asarray(train_labels, dtype=np.int64)
    if train_pixels.ndim != 2 or train_pixels.shape[0] == 0:
        raise ConfigError("training set must be a non-empty [n, bands] matrix")
    if k_neighbors < 1:
        raise ConfigError(f"k_neighbors must be >= 1, got {k_neighbors}")
    if test_pixels.ndim != 2 or test_pixels.shape[1] != train_pixels.shape[1]:
        raise DimensionError(
            f"test matrix {tuple(test_pixels.shape)} does not match train band count {train_pixels.shape[1]}"
        )
    if train_labels.shape[0] != train_pixels.shape[0]:
        raise DimensionError("one label per training pixel is required")
    k = min(k_neighbors, train_pixels.shape[0])
    classes, label_index = np.unique(train_labels, return_inverse=True)
    predictions = np.empty(test_pixels.shape[0], dtype=np.int64)
    chunk = max(1, KNN_CHUNK_ELEMENTS // train_pixels.shape[0])
    train_sq = np.sum(train_pixels ** 2, axis=1)
    test_sq = np.sum(test_pixels ** 2, axis=1)
    for start in range(0, test_pixels.shape[0], chunk):
        block = test_pixels[start : start + chunk]
        # In place, the same IEEE operations as test_sq - 2.0 * block @ train.T + train_sq.
        d2 = block @ train_pixels.T
        d2 *= -2.0
        d2 += test_sq[start : start + chunk, None]
        d2 += train_sq
        nearest = np.argpartition(d2, k - 1, axis=1)[:, :k]
        kth = np.take_along_axis(d2, nearest[:, k - 1 :], axis=1)
        # Exactly k distances at or below the k-th one make the nearest set unique;
        # a tie at the k-th distance or a NaN k-th distance gives another count.
        tied = np.flatnonzero(np.count_nonzero(d2 <= kth, axis=1) != k)
        if tied.size:
            nearest[tied] = np.argsort(d2[tied], axis=1, kind="stable")[:, :k]
        # Classes are sorted, so argmax's first maximum is the smallest tied class id.
        votes = np.zeros((len(block), classes.size), dtype=np.int64)
        np.add.at(votes, (np.arange(len(block))[:, None], label_index[nearest]), 1)
        predictions[start : start + len(block)] = classes[votes.argmax(axis=1)]
    return predictions


@dataclass
class ClassReport:
    """Confusion matrix and the three summary indices for one evaluation run."""

    oa: float
    aa: float
    kappa: float
    confusion: np.ndarray


def report(true_labels, predicted_labels, n_classes):
    """Confusion matrix, overall/average accuracy, and Cohen's kappa.

    Labels must lie in [0, n_classes). The average accuracy is the mean
    per-class accuracy over the classes present in the true labels.
    """
    true_labels = np.asarray(true_labels, dtype=np.int64)
    predicted_labels = np.asarray(predicted_labels, dtype=np.int64)
    if true_labels.shape != predicted_labels.shape:
        raise DimensionError(
            f"label vectors differ in length: {true_labels.shape} vs {predicted_labels.shape}"
        )
    if true_labels.size == 0:
        raise DataError("cannot report on empty label vectors")
    for name, arr in (("true", true_labels), ("predicted", predicted_labels)):
        if arr.min() < 0 or arr.max() >= n_classes:
            raise DataError(f"{name} labels fall outside [0, {n_classes})")
    confusion = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(confusion, (true_labels, predicted_labels), 1)
    total = int(confusion.sum())
    oa = float(np.trace(confusion)) / total
    row_sums = confusion.sum(axis=1)
    col_sums = confusion.sum(axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        per_class = np.where(row_sums > 0, np.diag(confusion) / row_sums, np.nan)
    aa = float(np.nanmean(per_class))
    p_e = float(np.sum(row_sums * col_sums)) / (total * total)
    if p_e >= 1.0:
        kappa = 1.0 if oa == 1.0 else 0.0
    else:
        kappa = (oa - p_e) / (1.0 - p_e)
    return ClassReport(oa=float(oa), aa=float(aa), kappa=float(kappa), confusion=confusion)


def _score(cube, train_idx, test_idx, band_subset, k_neighbors):
    """Classify the test pixels from the training pixels on the given bands and report.

    Class ids are encoded as their rank among the training labels, so the
    confusion matrix is sized by the classes present, not the largest id.
    """
    band_subset = [int(b) for b in band_subset]
    if len(band_subset) == 0:
        raise ConfigError("band subset is empty")
    flat = cube.values.reshape(-1, cube.bands)
    labels = cube.ground_truth.ravel()
    classes, train_labels = np.unique(labels[train_idx], return_inverse=True)
    predicted = classify_knn(flat[np.ix_(train_idx, band_subset)], train_labels,
                             flat[np.ix_(test_idx, band_subset)], k_neighbors)
    return report(np.searchsorted(classes, labels[test_idx]), predicted, classes.size)


def evaluate_subset(cube, band_subset, split_spec, k_neighbors=5):
    """Split, classify on the given bands, and report for one run."""
    return _score(cube, *split(cube, split_spec), band_subset, k_neighbors)


def sweep(cube, selectors, k_values, runs, *, train_fraction=0.05, k_neighbors=5,
          base_seed=0, include_random=False):
    """Repeated split/classify/report over selectors and subset sizes.

    ``selectors`` maps a name to a band ranking (any sequence at least as
    long as max k). Each run r uses seed base_seed + r for its split, so
    selectors are compared on identical splits. With ``include_random`` an
    extra selector named ``random`` (so no ranking may take that name)
    draws a fresh uniform-random band subset per run and k.
    Returns (rows, aggregated): rows are (selector, k, run_seed, oa, aa,
    kappa); aggregated are (selector, k, mean, std) triples for each index
    over the runs (population std, zero for a single run).
    """
    if runs < 1:
        raise ConfigError(f"runs must be >= 1, got {runs}")
    if include_random and "random" in selectors:
        raise ConfigError("selector name 'random' is taken by the random baseline")
    k_values = [int(k) for k in k_values]
    for k in k_values:
        if not 1 <= k <= cube.bands:
            raise ConfigError(f"subset size {k} out of range for {cube.bands}-band cube")
    named = {name: [int(b) for b in ranking] for name, ranking in selectors.items()}
    for name, ranking in named.items():
        if len(ranking) < max(k_values):
            raise ConfigError(f"selector {name!r} ranks {len(ranking)} bands; need {max(k_values)}")
    rows = []
    for run in range(runs):
        seed = base_seed + run
        train_idx, test_idx = split(cube, SplitSpec(train_fraction=train_fraction, seed=seed))
        random_rng = np.random.default_rng(seed)
        for k in k_values:
            for name, ranking in named.items():
                rep = _score(cube, train_idx, test_idx, ranking[:k], k_neighbors)
                rows.append((name, k, seed, rep.oa, rep.aa, rep.kappa))
            if include_random:
                subset = random_rng.choice(cube.bands, size=k, replace=False)
                rep = _score(cube, train_idx, test_idx, subset, k_neighbors)
                rows.append(("random", k, seed, rep.oa, rep.aa, rep.kappa))
    aggregated = []
    names = list(named) + (["random"] if include_random else [])
    for name in names:
        for k in k_values:
            vals = np.array([[r[3], r[4], r[5]] for r in rows if r[0] == name and r[1] == k])
            mean = vals.mean(axis=0)
            std = vals.std(axis=0)
            aggregated.append((name, k, float(mean[0]), float(std[0]),
                               float(mean[1]), float(std[1]), float(mean[2]), float(std[2])))
    return rows, aggregated
