"""Shared exception types, and the base class of the package's value records."""


class ScaleLimitError(ValueError):
    """An input exceeds the configured size limit for an exhaustive routine."""


class InvariantViolation(RuntimeError):
    """A quantity the library guarantees by construction failed a runtime check."""


class Record:
    """Immutable record whose fields live in ``__slots__``.

    A subclass lists its fields in ``__slots__``, in constructor order;
    ``_fields`` overrides that list where a slot holds a cached, derived
    value. Every field is given on construction, by position or keyword.
    Records compare and hash by their fields, repr as
    ``Name(field=value, ...)`` and refuse assignment; an ``__init__`` of
    their own stores through ``object.__setattr__``.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        if "_fields" not in cls.__dict__:
            cls._fields = cls.__slots__

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if len(args) > len(fields):
            raise TypeError(f"{type(self).__name__}() takes at most {len(fields)} arguments")
        for key, value in zip(fields, args):
            object.__setattr__(self, key, value)
        for key in fields[len(args):]:
            if key not in kwargs:
                raise TypeError(f"{type(self).__name__}() is missing the argument {key!r}")
            object.__setattr__(self, key, kwargs.pop(key))
        if kwargs:
            raise TypeError(f"{type(self).__name__}() got unexpected arguments "
                            f"{sorted(kwargs)}")

    def _values(self) -> tuple:
        return tuple(getattr(self, key) for key in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{key}={getattr(self, key)!r}" for key in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a record")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a record")

    def __reduce__(self):
        return type(self), self._values()
