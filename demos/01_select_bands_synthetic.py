"""
Selecting informative bands on a synthetic cube
===============================================

Build a small hyperspectral cube whose redundant bands are nonlinear
mixtures of five planted bands, train the spectral band selector, and
check that the planted bands come out on top of the ranking.
"""

import numpy as np

from bandsel.cube import extract_pixels, scale_unit
from bandsel.synthetic import SynthSpec, synth_generate
from bandsel.training import TrainConfig, train

# A 24x24 scene with 30 bands, 4 of which carry all the information.
spec = SynthSpec(rows=24, cols=24, bands=30, informative=(2, 11, 19, 27),
                 noise_sigma=0.01, seed=7)
cube = scale_unit(synth_generate(spec))
print(f"cube: {cube.rows}x{cube.cols}x{cube.bands}, planted bands {spec.informative}")

# Pixel spectra [S, bands] are the training samples; their shape picks the
# spectral variant.
samples = extract_pixels(cube)
print(f"training samples: {len(samples)} spectra of length {samples.shape[1]}")

# Reference hyperparameters; fewer epochs keep the demo quick.
cfg = TrainConfig(l1_coeff=1e-2, learning_rate=2e-3, max_epochs=40, seed=0)
model, result = train(samples, cfg, k=4)

print(f"\nloss: epoch 1 = {result.loss_trace[0]:.4f}, "
      f"epoch {len(result.loss_trace)} = {result.loss_trace[-1]:.4f}")
print(f"top-4 bands by averaged attention weight: {result.top_k}")
print(f"recovered {len(set(result.top_k) & set(spec.informative))} of "
      f"{len(spec.informative)} planted bands")

# The weights history (one row per epoch, starting at the initialization)
# is the data behind sparsification heatmaps: the distribution starts
# near-uniform and concentrates on the informative bands.
hist = result.weights_history
active = (hist > 0.5 * hist.max(axis=1, keepdims=True)).sum(axis=1)
print(f"\nbands above half of the max weight: {active[0]} at start, {active[-1]} at the end")

weights = np.round(result.averaged_weights[list(spec.informative)], 4)
print(f"final averaged weights of the planted bands: {weights}")
