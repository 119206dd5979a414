"""Sampling-set design for bandlimited graph signal estimation."""

from . import baselines, design, estimation, exceptions, graphs, spectral

__version__ = "0.1.0"
