"""Immutable records.  A subclass lists its fields once, in ``__slots__``;
``Record.__init__`` takes them by position and fills them with ``_set``, and
a subclass that validates, derives a slot or has a default writes its own.
``repr``, pickling, ``_data`` (the fields as JSON) and a ``Value``'s ``==``
and ``hash`` read ``_fields``: the constructor's arguments, no derived slot."""


def _json(value):
    """A field as JSON: tuples become lists, ints, bools, strings and None
    stay, anything else becomes its ``str``."""
    if isinstance(value, tuple):
        return [_json(v) for v in value]
    return (value if value is None or isinstance(value, (int, str))
            else str(value))


class Record:
    __slots__ = ()
    _fields = property(lambda self: self.__slots__)

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError(f"{self.__class__.__name__} takes "
                            f"{len(self._fields)} fields, got {len(values)}")
        self._set(*values)

    def _set(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _key(self):
        return tuple(getattr(self, f) for f in self._fields)

    def _data(self) -> dict:
        """The fields in slot order, each as JSON; a class opts in by naming
        it its ``to_data``."""
        return {f: _json(getattr(self, f)) for f in self._fields}

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
