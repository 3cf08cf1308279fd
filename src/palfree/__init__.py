"""Verification toolkit for infinite binary words that combine a repetition
bound with a small budget of distinct palindromic factors."""

from .cubic import CubicConstants, Interval, solve_sequence
from .morphisms import Morphism, load_morphism, shipped_morphisms
from .repetition import (ExponentBound, IncrementalFreeChecker, Violation,
                         critical_exponent, is_free)
from .words import (complement, factors, palindrome_count, palindrome_set,
                    reverse)

__all__ = [
    "CubicConstants", "ExponentBound", "IncrementalFreeChecker",
    "Interval", "Morphism", "Violation", "complement", "critical_exponent",
    "factors", "is_free", "load_morphism", "palindrome_count",
    "palindrome_set", "reverse", "shipped_morphisms", "solve_sequence",
]

__version__ = "0.1.0"
