"""
Spectral-spatial selection with the convolutional variant
=========================================================

The convolutional selector consumes sliding-window patches instead of
single spectra; ``train`` picks it because the patch array is 4-D. Its
attention branch pools spatial context before gating the bands, and its
reconstruction branch is a stride-1 conv encoder / decoder that restores
the full patch.
"""

from bandsel.cube import extract_patches, scale_unit
from bandsel.synthetic import SynthSpec, synth_generate
from bandsel.training import TrainConfig, train

spec = SynthSpec(rows=20, cols=20, bands=12, informative=(1, 6, 10),
                 noise_sigma=0.01, seed=3)
cube = scale_unit(synth_generate(spec))

# 5x5 windows with stride 2: (floor((20-5)/2)+1)^2 = 64 patches.
samples = extract_patches(cube, window=5, stride=2)
print(f"{len(samples)} patches of shape {samples.shape[1:]}")

cfg = TrainConfig(max_epochs=50, batch_size=8, seed=1)
model, result = train(
    samples, cfg, k=3,
    model_kwargs={"bam_conv_channels": 8, "bam_hidden": 16, "rec_channels": (16, 8, 8, 16)},
)

print(f"loss: {result.loss_trace[0]:.4f} -> {result.loss_trace[-1]:.4f}")
print(f"top-3 bands: {result.top_k} (planted {spec.informative})")

# The reconstruction keeps the patch geometry end to end.
weights, restored = model.forward(samples[:4])
print(f"weights per sample: {weights.shape}, reconstruction: {restored.shape}")
