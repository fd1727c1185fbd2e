"""Unsupervised hyperspectral band selection via attention-weighted reconstruction.

Submodules
----------
nn         minimal dense/convolutional network substrate with manual gradients
models     the two band-selector networks (spectral and spectral-spatial)
training   mini-batch Adam training loop producing a band ranking
selection  top-k band ranking, result serialization
cube       hyperspectral cube container, file I/O, scaling, sampling
synthetic  synthetic cubes with planted informative bands
metrics    per-band entropy, symmetric KL divergence, mean spectral divergence
evaluate   train/test splits, k-NN classification, accuracy/kappa reporting
cli        command-line pipeline (synth / train / metrics / eval)

Import submodules explicitly, e.g. ``from bandsel.cube import HsiCube``.
The top-level package stays import-light so the CLI can configure BLAS
threading before numpy loads.
"""

__version__ = "0.1.0"
