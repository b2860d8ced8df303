"""Typed errors shared across the lab.

The switch budget is a hard constraint.  Scoring a violation as infinite
regret would poison downstream statistics, so the simulator raises
:class:`BudgetViolationError` instead of returning inf.
"""


class SwitchLabError(Exception):
    """Base class for all lab errors."""


class BudgetViolationError(SwitchLabError):
    """An action sequence used switch number ``budget_K`` or more."""

    def __init__(self, message: str, round_index: int | None = None):
        super().__init__(message)
        self.round_index = round_index


class UnsupportedConfigError(SwitchLabError):
    """A strategy was instantiated for a game shape it does not support."""


class NumericStructureError(SwitchLabError):
    """A numeric routine detected structure its method relies on is absent
    (e.g. a non-monotone crossing function), usually meaning the grid is
    too coarse."""


class CapacityError(SwitchLabError):
    """An exact solver was asked for a state space that does not fit."""
