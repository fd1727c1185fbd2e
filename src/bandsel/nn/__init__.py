"""Minimal neural-network substrate: layers, activations, Adam."""

from bandsel.nn.layers import Conv2DLayer, DenseLayer, GlobalAveragePool, LayerStack, chunk_samples, sigmoid
from bandsel.nn.optim import AdamState, adam_step

__all__ = [
    "AdamState",
    "Conv2DLayer",
    "DenseLayer",
    "GlobalAveragePool",
    "LayerStack",
    "adam_step",
    "chunk_samples",
    "sigmoid",
]
