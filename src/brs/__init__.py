"""Exact invariants of function germs on isolated hypersurface singularities.

A small computer-algebra kernel (local-order standard bases via Mora
division, syzygies, ideal quotients) plus the singularity invariants built
from it: Milnor, Tjurina and Bruce-Roberts numbers, with every identity
relating them verified exactly on each input.
"""

from .errors import (
    BrsError,
    BudgetError,
    ContainmentError,
    ContextError,
    GermError,
    InternalError,
    ParseError,
)
from .polycore import Polynomial, VarContext
from .stdbasis import NOT_FINITE, is_finite
from .tangent import HypersurfaceProblem
from .invariants import (
    InvariantReport,
    LedgerEntry,
    analyze,
    bruce_roberts,
    fiber_milnor,
    milnor,
    relative_bruce_roberts,
    tjurina,
)
from .parsing import parse_poly, parse_problem

__version__ = "0.1.0"

__all__ = [
    "BrsError",
    "BudgetError",
    "ContainmentError",
    "ContextError",
    "GermError",
    "InternalError",
    "ParseError",
    "Polynomial",
    "VarContext",
    "NOT_FINITE",
    "is_finite",
    "HypersurfaceProblem",
    "InvariantReport",
    "LedgerEntry",
    "analyze",
    "milnor",
    "tjurina",
    "fiber_milnor",
    "bruce_roberts",
    "relative_bruce_roberts",
    "parse_poly",
    "parse_problem",
]
