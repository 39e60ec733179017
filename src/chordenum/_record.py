"""Immutable records: what the library used of frozen dataclasses, without importing ``dataclasses``.

A record's fields are its class annotations, in order, with any default as
a class attribute.  It is built by position or keyword, then runs
``__post_init__``; it compares and hashes by its field tuple, prints as a
dataclass does and refuses assignment.  ``cached_property`` views still work.
"""


class Record:
    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        # generated, as namedtuple does: a generic *args/**kwargs __init__ was
        # three times slower, which the 56,256 cycles of `octahedron --n 5 --list` show
        params = ", ".join(f"{name}=_cls.{name}" if name in cls.__dict__ else name for name in cls._fields)
        body = "".join(f"    _set(self, {name!r}, {name})\n" for name in cls._fields)
        namespace = {"_cls": cls, "_set": object.__setattr__}
        exec(f"def __init__(self, {params}):\n{body}    self.__post_init__()\n", namespace)
        cls.__init__ = namespace["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def __post_init__(self):
        pass

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        body = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
