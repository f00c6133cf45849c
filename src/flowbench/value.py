"""Immutable value classes that generate no code when they are defined.

A `Value` subclass lists its fields in `_fields` and sets them in its own
`__init__` with `object.__setattr__`, next to the checks they need. The
base compares, hashes and shows an instance by those fields, as a frozen
dataclass does: `==` holds only between instances of one class, the hash
is that of the fields' tuple, and the repr reads `Name(field=value, ...)`.
Assigning or deleting any attribute raises `AttributeError`.

A frozen dataclass generates and compiles these methods for every class
when its module is imported; here they are written once. Fields live in
the instance `__dict__`, so reading one is a plain attribute read, and a
class may cache more plain attributes there with `object.__setattr__`.
"""

from __future__ import annotations


class Value:
    """Base of an immutable value class; see the module docstring."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
