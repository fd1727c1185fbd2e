"""Quantitative band-subset analysis on gray-level histograms.

Per-band information content is measured by the Shannon entropy of the
band's histogram; redundancy between two bands by the symmetric
Kullback-Leibler divergence of their histograms; and the quality of a band
subset by the mean spectral divergence, the average pairwise symmetric KL
over all unordered pairs in the subset. High mean divergence means the
subset carries less mutual redundancy, though near-constant noisy bands
also inflate it, so the measure complements rather than replaces
classification-based evaluation.

Histograms assume unit-scaled values: a value v falls into bin
floor(v * (n_bins - 1) + 0.5), the round-to-nearest of n_bins gray levels.
All logarithms are natural. KL divergences are computed on
epsilon-smoothed probabilities so disjoint supports stay finite.

Each band is histogrammed once (``band_histograms``); the entropy table
and the MSD sweep both read those counts. A sweep computes one divergence
per band pair of its longest prefix; each prefix's mean then sums its
pairs in subset order (row-major over the upper triangle), so every
prefix gives the value a pair-by-pair loop over that subset would.
"""

from __future__ import annotations

import numpy as np

from bandsel.errors import ConfigError
from bandsel.selection import select_top_k

SMOOTH_EPS = 1e-6


def band_histogram(cube, band_index, n_bins=256):
    """Pixel counts of one band's values quantized to n_bins gray levels."""
    if not 0 <= band_index < cube.bands:
        raise ConfigError(f"band index {band_index} out of range for {cube.bands}-band cube")
    if n_bins < 2:
        raise ConfigError(f"need at least 2 bins, got {n_bins}")
    values = cube.values[:, :, band_index]
    bins = np.floor(values * (n_bins - 1) + 0.5).astype(np.int64)
    np.clip(bins, 0, n_bins - 1, out=bins)
    return np.bincount(bins.ravel(), minlength=n_bins)


def band_entropy(counts):
    """Shannon entropy (nats) of a band histogram; empty bins contribute zero."""
    p = counts / counts.sum()
    nz = p > 0
    return float(-(p[nz] * np.log(p[nz])).sum())


def _skl_matrix(counts):
    """Symmetric KL divergence between every pair of rows of counts[m, n_bins]."""
    counts = np.asarray(counts, dtype=np.float64)
    total = counts.sum(axis=1, keepdims=True) + counts.shape[1] * SMOOTH_EPS
    p = (counts + SMOOTH_EPS) / total
    log_p = np.log(p)
    upper = np.zeros((len(p), len(p)))
    for i in range(len(p) - 1):
        log_ratio = log_p[i] - log_p[i + 1 :]
        upper[i, i + 1 :] = np.sum(p[i] * log_ratio, axis=1) - np.sum(p[i + 1 :] * log_ratio, axis=1)
    return upper + upper.T


def skl_divergence(counts_i, counts_j):
    """Symmetric KL divergence between two band histograms."""
    if len(counts_i) != len(counts_j):
        raise ConfigError(f"bin counts differ: {len(counts_i)} vs {len(counts_j)}")
    return float(_skl_matrix([counts_i, counts_j])[0, 1])


def msd(cube, band_subset, n_bins=256):
    """Mean spectral divergence of a band subset.

    Average symmetric KL over the k(k-1)/2 unordered band pairs. Repeated
    indices are tolerated and contribute zero divergence.
    """
    if len(band_subset) < 2:
        raise ConfigError(f"subset must contain at least 2 bands, got {len(band_subset)}")
    counts = [band_histogram(cube, int(i), n_bins) for i in band_subset]
    return msd_sweep(counts, range(len(counts)), [len(counts)])[0][1]


def variance_rank(cube, k):
    """Baseline selector: bands ranked by per-band pixel variance.

    Ties break toward the lower band index. The variance scores are stored
    in the result's averaged-weights slot.
    """
    if not 1 <= k <= cube.bands:
        raise ConfigError(f"k must be in [1, {cube.bands}], got {k}")
    flat = cube.values.reshape(-1, cube.bands)
    variances = flat.var(axis=0)
    return select_top_k(variances, k, config={"selector": "variance"})


def band_histograms(cube, n_bins=256):
    """Histogram counts of every band, one ``band_histogram`` row per band: [bands, n_bins]."""
    return np.array([band_histogram(cube, i, n_bins) for i in range(cube.bands)])


def entropy_table(counts, band_labels=None):
    """Rows of (band_index, original_label, entropy), one per row of the band histograms."""
    labels = band_labels if band_labels is not None else np.arange(len(counts))
    return [(i, int(labels[i]), band_entropy(row)) for i, row in enumerate(counts)]


def msd_sweep(counts, ranking, k_values):
    """Rows of (k, msd of the top-k prefix of ranking) for each requested k.

    ``counts`` holds one histogram per band (``band_histograms``) and
    ``ranking`` indexes its rows.
    """
    ranking = [int(i) for i in ranking]
    k_values = [int(k) for k in k_values]
    for k in k_values:
        if not 2 <= k <= len(ranking):
            raise ConfigError(f"sweep k must be in [2, {len(ranking)}], got {k}")
    if not k_values:
        return []
    top = ranking[: max(k_values)]
    if not all(0 <= i < len(counts) for i in top):
        raise ConfigError(f"ranking indexes bands outside the {len(counts)} histograms")
    skl = _skl_matrix(np.asarray(counts)[top])
    # cumsum adds the row-major pair values left to right, as a pair-by-pair
    # loop does; np.sum's pairwise order would change the last bits.
    return [(k, 2.0 * float(np.cumsum(skl[:k, :k][np.triu_indices(k, 1)])[-1]) / (k * (k - 1)))
            for k in k_values]
