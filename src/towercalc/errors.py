"""Shared exception types."""

from __future__ import annotations


class InvalidRankError(ValueError):
    """Form rank q outside the admissible range for the requested object."""


class ConsistencyError(RuntimeError):
    """An internal cross-check failed; the computed object is not trusted."""


class HypothesisError(ValueError):
    """Validated hypotheses for an operation are not satisfied."""


# what decoding a wrong-shaped JSON document can raise: a missing key, a value
# of the wrong type, a refused field value or a zero denominator
DECODE_ERRORS = (KeyError, TypeError, AttributeError, ValueError, ZeroDivisionError)


SCHEMA = "towercalc/1"


def require_schema(obj) -> None:
    """A decoded document may leave out its schema field, but a schema it
    states must be SCHEMA."""
    if isinstance(obj, dict) and obj.get("schema", SCHEMA) != SCHEMA:
        raise ValueError(f"schema must be {SCHEMA!r}, got {obj['schema']!r}")


def require_odd_dimension(n: int) -> None:
    if n < 3:
        raise ValueError(f"dimension {n}: too small (need odd n >= 3)")
    if n % 2 == 0:
        raise ValueError(f"dimension {n}: even dimension unsupported (need odd n >= 3)")


def require_int(value, field: str) -> int:
    """An integer field of a decoded document; bool, float and str are refused."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{field} must be an integer, got {value!r}")
    return value
