"""Exact symmetric-function computations for pointed curve spaces.

The package computes, entirely over the rationals, the equivariant
Euler characteristics of configuration and stable-curve spaces in genus
zero and one, tracks Tate and cusp-form classes through plethystic
assembly, and extracts the sign-isotypic part in closed form.
"""

from .combinatorics import Partition, partitions_of
from .motive import L, ONE, ZERO, MotiveClass, UnsupportedCuspOperation
from .pipeline import MainResult, expected_total, main_theorem
from .symfunc import AltSeries, SymSeries

__version__ = "0.1.0"

__all__ = [
    "AltSeries",
    "L",
    "MainResult",
    "MotiveClass",
    "ONE",
    "Partition",
    "SymSeries",
    "UnsupportedCuspOperation",
    "ZERO",
    "expected_total",
    "main_theorem",
    "partitions_of",
    "__version__",
]


def __getattr__(name: str):
    """Load ``cuspmotive.verification`` on first use, not on ``import cuspmotive``."""
    if name == "verification":
        import importlib

        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
