"""
Entropy and divergence metrics for band subsets
===============================================

Per-band entropy flags near-constant noisy bands; the mean spectral
divergence of a subset (average pairwise symmetric KL between band
histograms) measures how much redundancy the subset carries. Higher
divergence means less redundancy, but bands with extreme histograms
inflate it, which is why it complements a classification check.
"""

import numpy as np

from bandsel.cube import HsiCube
from bandsel.metrics import (
    band_entropy,
    band_histogram,
    band_histograms,
    entropy_table,
    msd,
    msd_sweep,
    skl_divergence,
    variance_rank,
)

rng = np.random.default_rng(5)

# Eight informative bands plus two deliberately degenerate ones:
# band 8 is almost constant, band 9 duplicates band 0.
values = rng.random((32, 32, 10))
values[:, :, 8] = 0.5 + 0.002 * rng.random((32, 32))
values[:, :, 9] = values[:, :, 0]
cube = HsiCube(values)

# Each band is histogrammed once; the entropy table and the sweep read the counts.
counts = band_histograms(cube)
print("band entropies (nats, 256 gray levels):")
for band, label, entropy in entropy_table(counts):
    print(f"  band {band:2d}: {entropy:.3f}")

h0 = band_histogram(cube, 0)
print(f"\nSKL(band 0, band 9) = {skl_divergence(h0, band_histogram(cube, 9)):.3f} (duplicate)")
print(f"SKL(band 0, band 8) = {skl_divergence(h0, band_histogram(cube, 8)):.3f} (near-constant)")

# A duplicate contributes nothing; an extreme histogram inflates the value.
print(f"\nmsd over bands 0..3:          {msd(cube, [0, 1, 2, 3]):.3f}")
print(f"msd with the duplicate (9):   {msd(cube, [0, 1, 2, 3, 9]):.3f}")
print(f"msd with the noisy band (8):  {msd(cube, [0, 1, 2, 3, 8]):.3f}")

# Variance ranking is the built-in baseline selector; sweeping subset
# sizes gives the usual divergence-versus-k curve.
ranking = variance_rank(cube, cube.bands).ranking
print(f"\nvariance ranking: {ranking}")
for k, value in msd_sweep(counts, ranking, [2, 4, 6, 8]):
    print(f"  k={k}: msd={value:.3f}")
