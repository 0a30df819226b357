"""Exact-arithmetic toolkit for a family of rational hypersurfaces:
constructions, symbolic identity checks, finite-field point counts, and
rational-point height experiments."""

from .domains import QQ, QQXI, field_create, smallest_irreducible
from .mpoly import MPoly, RationalMap, VarContext, compose

__version__ = "0.1.0"

__all__ = [
    "QQ", "QQXI", "field_create", "smallest_irreducible",
    "MPoly", "RationalMap", "VarContext", "compose",
    "__version__",
]
