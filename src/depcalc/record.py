"""Immutable ``__slots__`` values, built without generated code.

``Immutable`` refuses assignment and deletion.  Its subclasses write each slot
once, in ``__init__`` or ``__new__``, past the guard: through
``object.__setattr__``, or through the slot's own setter
(``Cls.field.__set__``), which is the faster of the two.  Expression terms,
which are interned and hashed by identity, build on it directly.

``Record`` is the base of every other value class in the package: posets,
polynomials, schedules, diagrams and proof nodes.  It gives them what
``@dataclass(frozen=True)`` would, with no source generated and without
importing the dataclass module, so a value class is nothing but its field
list.  A record's fields are the names in its ``__match_args__``: by default
its own ``__slots__``, or, if it declares none, its parent's.  Its
``__init__`` takes them positionally or by keyword, raising the
``TypeError`` a dataclass would, and writes each slot once through the
setters found when the class is made.  A class that validates its fields
checks them in its own ``__init__`` and then calls this one.  ``==``, the
hash, ``repr`` and pickling read the field tuple through one
``operator.attrgetter`` per class, in C.  So:

- ``==`` holds for the exact same class with equal field tuples, and is
  ``NotImplemented`` for any other class;
- the hash is the field tuple's, ``(value,)`` for a single field, so a record
  holding a dict is unhashable;
- ``repr`` is ``Cls(field=value, ...)``, as a dataclass prints it;
- pickling and copying rebuild a record through its constructor.
"""

from __future__ import annotations

from operator import attrgetter


class Immutable:
    """Base of immutable ``__slots__`` objects: assignment and deletion raise."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Record(Immutable):
    """Immutable value compared, hashed and printed by its field tuple."""

    __slots__ = ()
    __match_args__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = cls.__dict__.get("__slots__")
        if "__match_args__" not in cls.__dict__ and own:
            cls.__match_args__ = tuple(own)
        fields = cls.__match_args__
        cls._setters = tuple(getattr(cls, name).__set__ for name in fields)
        if len(fields) == 1:
            value = attrgetter(*fields)
            cls._key = staticmethod(lambda record: (value(record),))
        elif fields:  # none: an abstract base
            cls._key = staticmethod(attrgetter(*fields))

    def __init__(self, *args, **kwargs):
        setters = self._setters
        if kwargs or len(args) != len(setters):
            args = self._arguments(args, kwargs)
        for write, value in zip(setters, args):
            write(self, value)

    @classmethod
    def _arguments(cls, args: tuple, kwargs: dict) -> tuple:
        """The field values in order, or the ``TypeError`` a dataclass raises."""
        fields = cls.__match_args__
        if len(args) > len(fields):
            raise TypeError(f"__init__() takes {len(fields) + 1} positional arguments "
                            f"but {len(args) + 1} were given")
        for name in kwargs:
            if name not in fields:
                raise TypeError(f"__init__() got an unexpected keyword argument {name!r}")
            if fields.index(name) < len(args):
                raise TypeError(f"__init__() got multiple values for argument {name!r}")
        missing = ", ".join(repr(name) for name in fields[len(args):] if name not in kwargs)
        if missing:
            raise TypeError(f"__init__() missing required arguments: {missing}")
        return args + tuple(kwargs[name] for name in fields[len(args):])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__match_args__, self._key(self)))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._key(self)
