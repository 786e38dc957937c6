"""Value semantics for the package's record classes, on two bases.

TupleRecord is the base of every result tuple, which compares, hashes and
unpacks as the plain tuple of its fields.  Record is the base of the
classes that keep their fields as attributes (the expression nodes,
IdealSet, AntichainSet, OrbitReport, MarkedSequence), which equal only
records of their own class, so Chain(3) != K(3).  Neither is generated:
the standard library's record decorator imports inspect, ast and dis, which
took about half of the command-line start-up, and typing.NamedTuple execs a
__new__ for every class.
"""

from __future__ import annotations

from operator import itemgetter


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


class TupleRecord(tuple):
    """A tuple whose fields are the names annotated in the subclass body, in
    order, each read by a read-only property.  It is built from its fields
    by position or by keyword, a changed copy is _replace(field=value), and
    copy and pickle rebuild it through __new__.  Subclasses set
    __slots__ = () and keep their own methods."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        for i, name in enumerate(cls._fields):
            setattr(cls, name, property(itemgetter(i)))

    def __new__(cls, *values, **named):
        fields = cls._fields
        if named:
            values += tuple([named.pop(name) for name in fields[len(values):]
                             if name in named])
        if named or len(values) != len(fields):
            raise TypeError(f"{cls.__name__} takes the fields {fields}")
        return tuple.__new__(cls, values)

    def _replace(self, **changes):
        values = tuple(map(changes.pop, self._fields, self))
        return type(self)(*values, **changes)

    def __getnewargs__(self):
        return tuple(self)

    __repr__ = Record.__repr__
