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

# The largest dimension a decoded document may state.  The packed layout of
# n (ring._layout) takes memory growing as n^2, so a small document stating a
# large n could exhaust the host (a 6 KB form at n = 2001 took 140 MB).  The
# layout of n = 99 is small, and near this bound even the smallest family
# takes about 1 GB to build.
MAX_DIM = 99


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


def require_dim(value) -> int:
    """The dimension n a decoded document states: an integer <= MAX_DIM."""
    n = require_int(value, "n")
    if n > MAX_DIM:
        raise ValueError(f"n = {n} is above the largest dimension a document "
                         f"may state, {MAX_DIM}")
    return n
