"""Synthetic hyperspectral cubes with a known informative band subset.

A designated set of planted bands is generated as independent smooth random
spatial fields spanning the full unit range. Every other band is a fixed
nonlinear mixture of the planted bands: a sigmoid applied to a random sparse
affine combination, plus optional Gaussian noise. The planted subset is
therefore the ground-truth answer for any band selector, and the per-pixel
class labels (quantile bins of a random projection of the planted fields)
give a classification task whose signal lives entirely in those bands.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from bandsel.cube import HsiCube
from bandsel.errors import ConfigError
from bandsel.nn import sigmoid

MIXTURE_SUPPORT = 2  # planted bands combined into each redundant band
MIXTURE_GAIN = 0.5  # pre-sigmoid standard deviation of the combination
FIELD_POLARITY = 10.0  # contrast of the planted fields (bimodal when large)
MAX_VALUES = 2**27  # rows * cols * bands cap: 1 GiB of float64 (Salinas is 22.7 M values)


@dataclass
class SynthSpec:
    """Recipe for one synthetic cube.

    ``check_shape`` owns the cube's dimensions: each must be positive and
    ``rows * cols * bands`` at most ``MAX_VALUES``, so a cube is refused
    before anything the size of the cube is allocated.
    """

    rows: int
    cols: int
    bands: int
    informative: tuple
    noise_sigma: float = 0.01
    seed: int = 0
    classes: int = 4  # 0 disables ground-truth labels

    def __post_init__(self):
        self.check_shape(self.rows, self.cols, self.bands)
        self.informative = tuple(int(i) for i in self.informative)
        if len(self.informative) < 1:
            raise ConfigError("at least one informative band is required")
        if len(set(self.informative)) != len(self.informative):
            raise ConfigError(f"informative indices must be distinct, got {self.informative}")
        for i in self.informative:
            if not 0 <= i < self.bands:
                raise ConfigError(f"informative index {i} out of range for {self.bands} bands")
        if not (np.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise ConfigError(f"noise sigma must be finite and non-negative, got {self.noise_sigma}")
        if self.classes < 0 or self.classes == 1 or self.classes > self.rows * self.cols:
            raise ConfigError(f"classes must be 0 or in [2, {self.rows * self.cols}], got {self.classes}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    @staticmethod
    def check_shape(rows, cols, bands):
        """ConfigError unless every dimension is positive and the cube holds at most MAX_VALUES values."""
        if rows < 1 or cols < 1 or bands < 1:
            raise ConfigError(f"cube dimensions must be positive, got {rows}x{cols}x{bands}")
        if int(rows) * int(cols) * int(bands) > MAX_VALUES:
            raise ConfigError(f"a {rows}x{cols}x{bands} cube exceeds the cap of {MAX_VALUES} values")


def _normalize(field):
    lo, hi = field.min(), field.max()
    if hi == lo:
        return np.zeros_like(field)
    return (field - lo) / (hi - lo)


def _smooth_field(rng, rows, cols):
    """Low-frequency random field on the pixel grid, min-max normalized to [0, 1].

    A few random cosine modes are summed and then pushed through a steep
    sigmoid, giving a spatially smooth but high-contrast band whose variance
    clearly exceeds that of the sigmoid-compressed mixtures built on top.
    """
    rr = np.arange(rows)[:, None] / rows
    cc = np.arange(cols)[None, :] / cols
    field = np.zeros((rows, cols))
    for _ in range(3):
        fr = rng.integers(-3, 4)
        fc = rng.integers(-3, 4)
        if fr == 0 and fc == 0:
            fc = 1
        amp = rng.uniform(0.5, 1.0)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        field += amp * np.cos(2.0 * np.pi * (fr * rr + fc * cc) + phase)
    return _normalize(sigmoid(FIELD_POLARITY * (_normalize(field) - 0.5)))


def synth_generate(spec):
    """Build the cube described by ``spec``; identical seeds give identical cubes."""
    rng = np.random.default_rng(spec.seed)
    planted = {i: _smooth_field(rng, spec.rows, spec.cols) for i in spec.informative}
    centered = np.stack([planted[i] - 0.5 for i in spec.informative], axis=-1)
    values = np.empty((spec.rows, spec.cols, spec.bands))
    n_inf = len(spec.informative)
    support_size = min(MIXTURE_SUPPORT, n_inf)
    for band in range(spec.bands):
        if band in planted:
            values[:, :, band] = planted[band]
            continue
        support = rng.choice(n_inf, size=support_size, replace=False)
        coeffs = rng.standard_normal(support_size)
        coeffs /= max(np.linalg.norm(coeffs), 1e-12)
        combo = centered[:, :, support] @ coeffs
        combo *= MIXTURE_GAIN / max(combo.std(), 1e-6)
        offset = rng.uniform(-0.25, 0.25)
        mixture = sigmoid(combo + offset)
        if spec.noise_sigma > 0:
            mixture = mixture + spec.noise_sigma * rng.standard_normal(mixture.shape)
        values[:, :, band] = np.clip(mixture, 0.0, 1.0)
    ground_truth = None
    if spec.classes >= 2:
        projection = rng.standard_normal(n_inf)
        score = (centered @ projection).ravel()
        edges = np.quantile(score, np.linspace(0, 1, spec.classes + 1)[1:-1])
        ground_truth = (1 + np.searchsorted(edges, score)).reshape(spec.rows, spec.cols)
    return HsiCube(values, ground_truth=ground_truth)
