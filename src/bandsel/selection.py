"""Top-k band ranking and result serialization."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from bandsel.errors import ConfigError, DimensionError, FormatError
from bandsel.fileio import write_json


@dataclass
class SelectionResult:
    """Ranked bands with the evidence behind the ranking.

    ``ranking`` is a permutation of all band indices sorted by descending
    averaged weight (ties go to the lower band index); ``top_k`` is its
    length-k prefix. ``loss_trace`` holds one training loss per epoch.
    ``weights_history`` holds one averaged-weight row per epoch, snapshotted
    as the epoch begins (so the first row reflects the initialization,
    heatmap-style); training always fills it, and it is ``None`` only for
    results built without training (read from JSON or ranked directly).
    """

    ranking: list[int]
    top_k: list[int]
    averaged_weights: np.ndarray
    loss_trace: list[float] = field(default_factory=list)
    config: dict = field(default_factory=dict)
    weights_history: np.ndarray | None = None

    @classmethod
    def from_json(cls, text):
        """Parse a result written by :meth:`save_json`; FormatError if malformed.

        ``top_k`` must be a prefix of ``ranking``, ``averaged_weights`` one
        finite number per ranked band, and ``loss_trace`` finite numbers.
        """
        try:
            payload = json.loads(text)
        except (ValueError, RecursionError) as exc:  # bad JSON, an over-long integer, deep nesting
            raise FormatError(f"selection result is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise FormatError("selection result must be a JSON object")
        missing = [key for key in ("ranking", "top_k", "averaged_weights", "loss_trace") if key not in payload]
        if missing:
            raise FormatError(f"selection result lacks field(s) {', '.join(missing)}")
        for key in ("ranking", "top_k"):
            if not isinstance(payload[key], list) or not all(type(v) is int for v in payload[key]):
                raise FormatError(f"selection result field {key!r} must be a list of integers")
        ranking, top_k = payload["ranking"], payload["top_k"]
        if top_k != ranking[: len(top_k)]:
            raise FormatError("selection result field 'top_k' must be a prefix of 'ranking'")
        averaged = _finite_vector(payload, "averaged_weights")
        if averaged.shape[0] != len(ranking):
            raise FormatError(f"selection result has {averaged.shape[0]} averaged weights "
                              f"for {len(ranking)} ranked bands")
        config = payload.get("config", {})
        if not isinstance(config, dict):
            raise FormatError("selection result field 'config' must be a JSON object")
        return cls(ranking=ranking, top_k=top_k, averaged_weights=averaged,
                   loss_trace=_finite_vector(payload, "loss_trace").tolist(), config=config)

    def save_json(self, path):
        """Write the result (without weights history) as indented, key-sorted JSON."""
        write_json(path, {
            "ranking": [int(i) for i in self.ranking],
            "top_k": [int(i) for i in self.top_k],
            "averaged_weights": [float(w) for w in self.averaged_weights],
            "loss_trace": [float(v) for v in self.loss_trace],
            "config": self.config,
        })

    @classmethod
    def load_json(cls, path):
        with open(path, "r", encoding="utf-8") as fh:
            try:
                text = fh.read()
            except UnicodeDecodeError as exc:
                raise FormatError(f"selection result {path} is not UTF-8 text: {exc}") from exc
        return cls.from_json(text)


def _finite_vector(payload, key):
    """The list of finite JSON numbers under ``key`` as a float64 vector; FormatError otherwise."""
    values = payload[key]
    if not isinstance(values, list) or not all(type(v) in (int, float) for v in values):
        raise FormatError(f"selection result field {key!r} must be a list of numbers")
    try:
        vector = np.asarray(values, dtype=np.float64)
    except OverflowError as exc:  # an integer beyond float range
        raise FormatError(f"selection result field {key!r}: {exc}") from exc
    if not np.all(np.isfinite(vector)):
        raise FormatError(f"selection result field {key!r} must hold finite numbers")
    return vector


def select_top_k(averaged, k, *, loss_trace=None, config=None, weights_history=None):
    """Rank bands by descending averaged weight and keep the first k.

    Ties break toward the smaller band index. The full ranking (a
    permutation of 0..b-1) is retained alongside the k-prefix.
    """
    averaged = np.asarray(averaged, dtype=np.float64)
    if averaged.ndim != 1:
        raise DimensionError(f"averaged weights must be 1-D, got shape {tuple(averaged.shape)}")
    bands = averaged.shape[0]
    if not 1 <= k <= bands:
        raise ConfigError(f"k must be in [1, {bands}], got {k}")
    ranking = np.argsort(-averaged, kind="stable")
    return SelectionResult(
        ranking=[int(i) for i in ranking],
        top_k=[int(i) for i in ranking[:k]],
        averaged_weights=averaged,
        loss_trace=list(loss_trace) if loss_trace is not None else [],
        config=dict(config) if config is not None else {},
        weights_history=weights_history,
    )
