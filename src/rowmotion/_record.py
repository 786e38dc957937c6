"""Value semantics for the package's record classes.

Records are plain classes or typing.NamedTuples, never generated by a
decorator: the standard library's record decorator imports inspect, ast and
dis and execs every method it generates, which took about half of the
command-line start-up.
"""

from __future__ import annotations


class Record:
    """Equality, hashing and a Name(field=value, ...) repr over the
    attributes named in _fields.  A record equals only a record of its own
    class with equal fields, so records of two classes never share a cache
    entry.  Subclasses set their fields in __init__."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields)
        return f"{type(self).__qualname__}({fields})"
