"""Plain record classes: == and repr over a declared field list.

The methods are written once here instead of generated per class at
import: the standard decorator that generates them imports inspect, ast, dis
and tokenize, and with its code generation that cost 9-18 ms of every CLI
start, depending on the host's speed.
"""

from __future__ import annotations


class Record:
    """A record whose fields are named in _fields: two records are == when
    they are of one class and their field tuples are ==, and repr lists the
    fields.  A mutable record is unhashable."""

    _fields: tuple = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"


class FrozenRecord(Record):
    """A Record whose fields are set once, by _freeze in __init__; it hashes
    as its field tuple."""

    def _freeze(self, **fields) -> None:
        vars(self).update(fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen "
                             f"{type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen "
                             f"{type(self).__name__}")

    def __hash__(self):
        return hash(self._values())
