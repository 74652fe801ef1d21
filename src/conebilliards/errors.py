"""Shared error types, warnings, and simulator outcome sentinels."""

from __future__ import annotations

import enum
from dataclasses import dataclass


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class GrazingError(ValueError):
    """Reflection requested at (numerically) grazing incidence."""


class ConstructionError(RuntimeError):
    """Curve construction failed (e.g. no admissible flat-start index)."""


class C2CheckFailure(RuntimeError):
    """Measured decay exponents of the built curve fall outside tolerance."""

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class ConvexityFailure(RuntimeError):
    """A Hessian eigenvalue failed the negative-definiteness check."""

    def __init__(self, message: str, location=None):
        super().__init__(message)
        self.location = location


class ReplayFailure(RuntimeError):
    """Simulated trajectory diverged from the closed-form vertices."""

    def __init__(self, message: str, first_bad_index=None):
        super().__init__(message)
        self.first_bad_index = first_bad_index


class TangencyWarning(UserWarning):
    """Root bracketing came out degenerate: the ray is near-tangent."""


class Termination(enum.Enum):
    ESCAPED = "escaped"
    MAX_STEPS = "max_steps"
    APEX = "apex"
    GRAZING = "grazing"


@dataclass(frozen=True)
class Escape:
    """Outcome of an intersection query whose forward ray never returns.

    ``apex`` is set when the ray hit (numerically) the cone apex; the
    dynamics there are undefined and we refuse to guess.
    """

    apex: bool = False
