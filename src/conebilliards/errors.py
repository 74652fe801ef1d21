"""Shared error types, warnings, and the ways a trajectory ends."""

from __future__ import annotations

import enum


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
    """How a step or a trajectory ended without a reflection."""

    ESCAPED = "escaped"          # the forward ray never meets the surface again
    MAX_STEPS = "max_steps"      # the run hit its reflection cap
    APEX = "apex"                # the hit lies (numerically) at the apex
    GRAZING = "grazing"          # |<v,n>| too small to reflect
    NO_BRACKET = "no_bracket"    # the root search found no sign change to bisect
