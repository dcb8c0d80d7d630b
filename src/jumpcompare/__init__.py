"""Condition checkers and coupled Monte Carlo validation for ordered
jump-diffusion systems, in vector and symmetric-matrix state spaces."""

__version__ = "0.1.0"

from . import conditions, engine, geometry, model, psdcone  # noqa: F401
