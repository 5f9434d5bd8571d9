"""Shared exception types."""

from __future__ import annotations


class InvalidRankError(ValueError):
    """Form rank q outside the admissible range for the requested object."""


class ConsistencyError(RuntimeError):
    """An internal cross-check failed; the computed object is not trusted."""


class HypothesisError(ValueError):
    """Validated hypotheses for an operation are not satisfied."""


def require_odd_dimension(n: int) -> None:
    if n < 3 or n % 2 == 0:
        raise ValueError(f"dimension {n}: even dimension unsupported (need odd n >= 3)")
