"""The base of the package's immutable record types that are not tuples."""

from __future__ import annotations


class Frozen:
    """An immutable record held in ``__slots__``.

    A subclass names its fields in ``_fields``, in the order its
    ``__init__`` takes them, and sets them in ``__init__`` through ``_set``
    (a slot not among them through ``object.__setattr__``). Equality,
    hashing and repr go over those fields in that order; a slot not among
    them is left out of all three. Assigning or deleting any attribute
    raises AttributeError; a copy or an unpickled record is built again
    through ``__init__``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _set(self, *values: object) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self) -> tuple:
        return self.__class__, self._values()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
