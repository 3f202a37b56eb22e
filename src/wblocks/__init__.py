"""Exact invariants of integral blocks of category O for gl(m|n) and its
Whittaker quotient: block combinatorics, characters, (graded) Cartan
matrices, center polynomials, equivalence invariants, and an independent
quantum-group verification engine."""

from .laurent import LaurentQ, qbinom, qfact, qint

__version__ = "0.1.0"

__all__ = ["LaurentQ", "qint", "qfact", "qbinom", "__version__"]
