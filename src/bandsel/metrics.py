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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from bandsel.errors import ConfigError
from bandsel.selection import select_top_k

SMOOTH_EPS = 1e-6


@dataclass
class BandHistogram:
    """Pixel counts over gray-level bins; probabilities are counts / total."""

    counts: np.ndarray
    n_bins: int

    @property
    def probs(self):
        return self.counts / self.counts.sum()


def band_histogram(cube, band_index, n_bins=256):
    """Histogram of one band's pixel values quantized to n_bins gray levels."""
    if not 0 <= band_index < cube.bands:
        raise ConfigError(f"band index {band_index} out of range for {cube.bands}-band cube")
    if n_bins < 2:
        raise ConfigError(f"need at least 2 bins, got {n_bins}")
    values = cube.values[:, :, band_index]
    bins = np.floor(values * (n_bins - 1) + 0.5).astype(np.int64)
    np.clip(bins, 0, n_bins - 1, out=bins)
    counts = np.bincount(bins.ravel(), minlength=n_bins)
    return BandHistogram(counts=counts, n_bins=int(n_bins))


def band_entropy(hist):
    """Shannon entropy (nats) of a band histogram; empty bins contribute zero."""
    p = hist.probs
    nz = p > 0
    return float(-(p[nz] * np.log(p[nz])).sum())


def _smoothed_probs(hist):
    counts = hist.counts.astype(np.float64)
    total = counts.sum() + hist.n_bins * SMOOTH_EPS
    return (counts + SMOOTH_EPS) / total


def skl_divergence(hist_i, hist_j):
    """Symmetric KL divergence between two band histograms."""
    if hist_i.n_bins != hist_j.n_bins:
        raise ConfigError(f"bin counts differ: {hist_i.n_bins} vs {hist_j.n_bins}")
    p = _smoothed_probs(hist_i)
    q = _smoothed_probs(hist_j)
    log_ratio = np.log(p) - np.log(q)
    return float(np.sum(p * log_ratio) - np.sum(q * log_ratio))


def msd(cube, band_subset, n_bins=256):
    """Mean spectral divergence of a band subset.

    Average symmetric KL over the k(k-1)/2 unordered band pairs. Repeated
    indices are tolerated and contribute zero divergence.
    """
    subset = [int(i) for i in band_subset]
    k = len(subset)
    if k < 2:
        raise ConfigError(f"subset must contain at least 2 bands, got {k}")
    hists = {i: band_histogram(cube, i, n_bins) for i in set(subset)}
    total = 0.0
    for a in range(k):
        for b in range(a + 1, k):
            if subset[a] != subset[b]:
                total += skl_divergence(hists[subset[a]], hists[subset[b]])
    return 2.0 * total / (k * (k - 1))


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


def entropy_table(cube, n_bins=256):
    """Rows of (band_index, original_label, entropy) for every band."""
    labels = cube.band_labels if cube.band_labels is not None else np.arange(cube.bands)
    rows = []
    for i in range(cube.bands):
        rows.append((i, int(labels[i]), band_entropy(band_histogram(cube, i, n_bins))))
    return rows


def msd_sweep(cube, ranking, k_values, n_bins=256):
    """Rows of (k, msd of the top-k prefix of ranking) for each requested k."""
    ranking = [int(i) for i in ranking]
    rows = []
    for k in k_values:
        if not 2 <= k <= len(ranking):
            raise ConfigError(f"sweep k must be in [2, {len(ranking)}], got {k}")
        rows.append((int(k), msd(cube, ranking[:k], n_bins)))
    return rows
