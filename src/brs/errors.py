"""Exception types shared across the package."""

from __future__ import annotations


class BrsError(Exception):
    """Base class for all errors raised by this package."""


class ContextError(BrsError):
    """Operands belong to different variable contexts, or a context is invalid."""


class GermError(BrsError):
    """An input polynomial violates a germ condition (e.g. nonzero constant term)."""


class ParseError(BrsError):
    """Syntax or validation error in an input expression or problem file.

    Carries a 1-based position so the CLI can point at the offending spot.
    """

    def __init__(self, message: str, line: int = 1, column: int = 1):
        super().__init__(message)
        self.message = message
        self.line = line
        self.column = column

    def __str__(self) -> str:
        return f"syntax error at line {self.line}, column {self.column}: {self.message}"


class BudgetError(BrsError):
    """A standard basis, or a count's rounds of jets and Mora, exceeded its pair budget.

    Turns nontermination-in-practice into a structured failure instead of a hang.
    `paused` is the Mora run that the budget stopped, when it can be resumed.
    """

    paused = None

    def __init__(self, budget: int, stage: str = "standard basis"):
        super().__init__(f"pair budget of {budget} exceeded during {stage}")
        self.budget = budget
        self.stage = stage


class ContainmentError(BrsError):
    """A module-quotient precondition failed: the submodule is not contained."""


class InternalError(BrsError):
    """An invariant the algorithms guarantee was violated; indicates a bug."""
