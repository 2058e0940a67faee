"""nielsenkit: fixed point classes, indices, and attracting boundary words of
graph selfmaps and injective free-group endomorphisms."""

from .boundary import MorphicRay, attraction_check
from .invariants import Report, analyze, analyze_endomorphism
from .words import Basis, Endomorphism, Word, default_basis, word

__all__ = [
    "Basis",
    "Endomorphism",
    "MorphicRay",
    "Report",
    "Word",
    "analyze",
    "analyze_endomorphism",
    "attraction_check",
    "default_basis",
    "word",
]
__version__ = "0.1.0"
