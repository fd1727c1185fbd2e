"""Mini-batch Adam training of a band selector and final band ranking.

One epoch is a full pass over the shuffled sample set. Each step computes
band weights for the batch, re-weights the batch, reconstructs, and updates
both branches by one Adam step on the regularized reconstruction loss.
After the last epoch the band weights are averaged over the complete sample
set (not the last batch) and the bands are ranked by that average.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from bandsel.cube import PatchSet
from bandsel.errors import ConfigError, DimensionError, NumericError
from bandsel.models import BandSelectorConv, BandSelectorFC
from bandsel.nn import AdamState, adam_step
from bandsel.selection import select_top_k

AVERAGING_CHUNK = 1024
# Band weights one run may record, (epochs + 1) x bands: over 800 times the
# reference setting of 100 epochs on a 200-band scene.
MAX_HISTORY_VALUES = 2**24


@dataclass
class TrainConfig:
    """Hyperparameters of one training run.

    Defaults follow the reference setting: L1 coefficient 1e-2, learning
    rate 2e-3, 100 epochs. ``batch_size=None`` resolves to the selector's
    ``default_batch`` (64 spectral, 32 spectral-spatial).
    """

    l1_coeff: float = 1e-2
    learning_rate: float = 2e-3
    max_epochs: int = 100
    batch_size: int | None = None
    seed: int = 0

    def __post_init__(self):
        if not (np.isfinite(self.l1_coeff) and self.l1_coeff >= 0):
            raise ConfigError(f"l1 coefficient must be finite and >= 0, got {self.l1_coeff}")
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError(f"learning rate must be finite and positive, got {self.learning_rate}")
        if self.max_epochs < 1:
            raise ConfigError(f"epoch count must be >= 1, got {self.max_epochs}")
        if self.batch_size is not None and self.batch_size < 1:
            raise ConfigError(f"batch size must be >= 1, got {self.batch_size}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


def _full_averaged_weights(model, samples):
    """Mean band weight over every sample, evaluated in blocks of AVERAGING_CHUNK samples.

    The block stays a sample count, not a byte budget: the dense tail's GEMMs round
    differently below ~100 rows, and a split sum regroups, so smaller blocks change
    bits. The selector's ``block_band_weights`` bounds the memory of a block: the conv
    selector gathers its patches and runs its attention conv one
    ``CONV_CHUNK_ELEMENTS`` chunk at a time and its dense tail once on the pooled rows.
    """
    total = np.zeros(model.bands)
    for start in range(0, len(samples), AVERAGING_CHUNK):
        total += model.block_band_weights(samples, start, start + AVERAGING_CHUNK).sum(axis=0)
    return total / len(samples)


@np.errstate(over="ignore", invalid="ignore")
def train(samples, cfg, *, k=None, model_kwargs=None):
    """Run the full selection procedure on spectra [S, b] or patches [S, a, a, b].

    The samples' shape picks the selector: spectra train BandSelectorFC,
    patches BandSelectorConv. An array is cast to float64 once; a
    ``PatchSet`` is not cast, and each batch is gathered from its cube.
    Returns (model, SelectionResult). ``k`` defaults to the band count so
    ``top_k`` equals the full ranking unless a subset size is requested. A
    run whose weight history, one row per epoch plus the final average, would
    hold more than ``MAX_HISTORY_VALUES`` values is refused before the model
    is built (``TrainConfig`` has no band count). Raises NumericError if a
    loss or band weight it would report is not finite; those checks, not
    numpy's overflow warnings, report a diverging run.
    """
    if not isinstance(samples, PatchSet):
        samples = np.asarray(samples, dtype=np.float64)
    selector = {2: BandSelectorFC, 4: BandSelectorConv}.get(samples.ndim)
    if selector is None:
        raise DimensionError(f"samples must be spectra [S, b] or patches [S, a, a, b], "
                             f"got shape {tuple(samples.shape)}")
    if samples.shape[0] < 1:
        raise DimensionError("sample set is empty")
    bands = samples.shape[-1]
    if k is None:
        k = bands
    if not 1 <= k <= bands:
        raise ConfigError(f"k must be in [1, {bands}], got {k}")
    if (cfg.max_epochs + 1) * bands > MAX_HISTORY_VALUES:
        raise ConfigError(f"{cfg.max_epochs} epochs of {bands} band weights, plus their average, are over "
                          f"the cap of {MAX_HISTORY_VALUES} recorded values")
    batch_size = cfg.batch_size if cfg.batch_size is not None else selector.default_batch

    rng = np.random.default_rng(cfg.seed)
    model = selector(bands, rng=rng, **(model_kwargs or {}))
    state = AdamState(model.params)

    n = samples.shape[0]
    loss_trace = []
    weights_history = []
    for epoch in range(1, cfg.max_epochs + 1):
        # Snapshot as the epoch begins; the first row shows the
        # near-uniform initialization, the usual heatmap convention.
        weights_history.append(_full_averaged_weights(model, samples))
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, batch_size):
            batch = samples[order[start : start + batch_size]]
            loss = model.backprop(batch, cfg.l1_coeff)
            if not np.isfinite(loss):
                raise NumericError(f"non-finite training loss at epoch {epoch}")
            try:
                adam_step(model.params, model.grads, state, cfg.learning_rate, names=model.slices)
            except NumericError as exc:
                raise NumericError(f"{exc} at epoch {epoch}") from exc
            epoch_loss += loss * batch.shape[0]
        loss_trace.append(epoch_loss / n)

    # Final weights always come from one full pass over every sample.
    averaged = _full_averaged_weights(model, samples)
    weights_history = np.stack(weights_history)
    # Each step's loss was finite, but the last step's parameters (or an
    # epoch loss summed past float range) can still overflow.
    if not all(np.isfinite(v).all() for v in (loss_trace, weights_history, averaged)):
        raise NumericError(f"non-finite loss or band weights after epoch {cfg.max_epochs}")

    config = {**asdict(cfg), "variant": model.kind, "bands": bands, "k": k, "batch_size": batch_size}
    result = select_top_k(averaged, k, loss_trace=loss_trace, config=config,
                           weights_history=weights_history)
    return model, result
