"""Limiting spectral distributions of symmetric random matrices with
stationary correlated entries.

The package turns a stationary-field model (moving-average filter, bilinear
expansion, or rank-one profile) into a scaled spectral density on the unit
square, solves the self-consistent equation for the Stieltjes transform of
the limiting eigenvalue distribution, and verifies predictions by seeded
Monte Carlo over matrix ensembles.
"""

__version__ = "0.1.0"

from . import errors, simulate, solver, spectral, stieltjes
from .errors import *
from .spectral import *
from .solver import *
from .stieltjes import *
from .simulate import *

__all__ = [name for module in (errors, spectral, solver, stieltjes, simulate) for name in module.__all__]
