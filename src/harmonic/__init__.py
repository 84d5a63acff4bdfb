"""Numerical workbench for radial harmonic analysis on noncompact harmonic spaces."""

from . import (asymptotics, density, geometry, grids, pde, profiles,
               spherical, transforms, two_radius)
from .density import make_damek_ricci, make_euclidean, make_real_hyperbolic

__version__ = "0.1.0"
