"""Immutable records.  A subclass lists its fields in ``__slots__`` and fills
them once with ``_set``.  ``repr``, pickling and a ``Value``'s ``==`` and
``hash`` read ``_fields``: the constructor's arguments, no derived slot."""


class Record:
    __slots__ = ()
    _fields = property(lambda self: self.__slots__)

    def _set(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _key(self):
        return tuple(getattr(self, f) for f in self._fields)

    def __reduce__(self):
        return self.__class__, self._key()

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


class Value(Record):
    __slots__ = ()

    def __eq__(self, other):
        return (self._key() == other._key()
                if other.__class__ is self.__class__ else NotImplemented)

    def __hash__(self):
        return hash(self._key())
