"""Immutable value records.

``frozen`` makes a class whose body annotates its fields an immutable
record: positional construction, equality and hashing over the field
values, a repr that names the fields, and no assignment.  It installs plain
functions and generates no source.  The standard library's record generator
imports ``inspect`` and ``exec``s generated source for every class; for the
records of this package that was about two thirds of the import time of
``freesum.cli``, and every CLI verb runs in a fresh process.
"""

from __future__ import annotations

from operator import attrgetter


def frozen(cls):
    """Make ``cls`` an immutable record of its annotated fields, in order.

    ``cls(*values)`` takes one value per field, then calls ``__post_init__``
    if the class has one; only that hook may rebind a field, through
    ``object.__setattr__``.  Records of different classes are never equal."""
    names = tuple(cls.__annotations__)
    values_of = attrgetter(*names)
    post_init = hasattr(cls, "__post_init__")
    set_field = object.__setattr__

    def __init__(self, *values):
        if len(values) != len(names):
            raise TypeError(f"{cls.__name__} takes {len(names)} fields, got {len(values)}")
        for name, value in zip(names, values):
            set_field(self, name, value)
        if post_init:
            self.__post_init__()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return values_of(self) == values_of(other)

    def __hash__(self):
        return hash(values_of(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    for method in (__init__, __eq__, __hash__, __repr__, __setattr__, __delattr__):
        setattr(cls, method.__name__, method)
    return cls
