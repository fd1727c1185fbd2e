"""Minimal neural-network substrate: layers, activations, Adam."""

from bandsel.nn.layers import (
    ACTIVATIONS,
    Conv2DLayer,
    DenseLayer,
    GlobalAveragePool,
    LayerStack,
    glorot_uniform,
    sigmoid,
)
from bandsel.nn.optim import AdamState, adam_step

__all__ = [
    "ACTIVATIONS",
    "AdamState",
    "Conv2DLayer",
    "DenseLayer",
    "GlobalAveragePool",
    "LayerStack",
    "adam_step",
    "glorot_uniform",
    "sigmoid",
]
