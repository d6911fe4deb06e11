"""Immutable ``__slots__`` values, built without generated code.

``Immutable`` refuses assignment and deletion.  Its subclasses write each slot
once, in ``__init__`` or ``__new__``, past the guard: through
``object.__setattr__``, or through the slot's own setter
(``Cls.field.__set__``), which is the faster of the two.  ``FinitePoset``,
expression terms and proof nodes build on it directly.

``Record`` is the base of the package's plain value classes, and gives them
what ``@dataclass(frozen=True)`` would, with no source generated and without
importing the dataclass module.  A record's fields are the names in its
``__match_args__``, by default its own ``__slots__``.  Its ``__init__`` takes
them positionally or by keyword and writes each value once, through the slot
setters: into the field's slot, for reading, and into one tuple of them all,
``_values``, which ``==``, the hash, ``repr`` and pickling read, in C where
they compare or hash.  A record of one field, a :class:`Single`, keeps the
bare value in ``_values`` and reads the field from there, so it is built with
one write.  So:

- ``==`` holds for the exact same class with equal field tuples, and is
  ``NotImplemented`` for any other class;
- the hash is the field tuple's, so a record holding a dict is unhashable;
- ``repr`` is ``Cls(field=value, ...)``, as a dataclass prints it;
- pickling and copying rebuild a record through its constructor.
"""

from __future__ import annotations


class Immutable:
    """Base of immutable ``__slots__`` objects: assignment and deletion raise."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Record(Immutable):
    """Immutable value compared, hashed and printed by its field tuple."""

    __slots__ = ("_values",)

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "__match_args__" not in cls.__dict__:
            cls.__match_args__ = tuple(cls.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self):
        return hash(self._values)

    def __repr__(self):
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__match_args__, self._values))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values


class Single(Record):
    """Record of the one field named in ``__match_args__``, read from ``_values``."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        (name,) = cls.__match_args__
        setattr(cls, name, Record._values)

    def __hash__(self):
        return hash((self._values,))

    def __repr__(self):
        return f"{type(self).__qualname__}({self.__match_args__[0]}={self._values!r})"

    def __reduce__(self):
        return type(self), (self._values,)


#: Writes ``_values`` past the guard: the field tuple, or a Single's value.
set_values = Record._values.__set__


def setters(cls: type) -> tuple:
    """Slot setters of each of a record's fields, for its ``__init__``."""
    return tuple(getattr(cls, name).__set__ for name in cls.__match_args__)
