"""Penalty-regularized elasto-plasticity with fractional-regularity probes."""

__version__ = "0.1.0"
