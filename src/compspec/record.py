"""Immutable records: the base class of compspec's value types.

A subclass declares its fields as class annotations, and a class-level
value is the field's default.  Instances compare equal only to instances
of the same class with equal field values, hash over the field values,
print as ``Name(field=value, ...)`` in field order and refuse attribute
assignment.  ``__post_init__``, when a subclass defines one, runs after
the fields are set and may adjust them with ``object.__setattr__``.

The field tuple and defaults are computed once per class, and no code is
generated for it.  Fields are set one by one with ``object.__setattr__``
and never read through ``__dict__``, which keeps field reads on CPython's
fast path for instance attributes.
"""

from operator import attrgetter

_set_field = object.__setattr__


def _values_getter(fields):
    """A function from a record to the tuple of its field values."""
    if len(fields) > 1:
        return attrgetter(*fields)
    if fields:
        get = attrgetter(fields[0])
        return lambda record: (get(record),)
    return lambda record: ()


class Record:
    _fields = ()
    _defaults = {}
    _post_init = False

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = []
        for klass in reversed(cls.__mro__):
            for name in vars(klass).get("__annotations__", ()):
                if name not in fields:
                    fields.append(name)
        cls._fields = tuple(fields)
        cls._defaults = {name: getattr(cls, name) for name in fields
                         if hasattr(cls, name)}
        cls._post_init = hasattr(cls, "__post_init__")
        cls._values = staticmethod(_values_getter(cls._fields))

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        i = 0
        for name in fields:  # indexing is cheaper than a zip object here
            _set_field(self, name, args[i])
            i += 1
        if self._post_init:
            self.__post_init__()

    @classmethod
    def _bind(cls, args, kwargs) -> list:
        """The field values, in field order, of a call's arguments."""
        fields = cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{cls.__name__}() takes {len(fields)} positional "
                            f"arguments but {len(args)} were given")
        values = list(args)
        for name in fields[len(args):]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif name in cls._defaults:
                values.append(cls._defaults[name])
            else:
                raise TypeError(f"{cls.__name__}() missing argument {name!r}")
        if kwargs:
            raise TypeError(f"{cls.__name__}() got unexpected or repeated "
                            f"arguments {sorted(kwargs)}")
        return values

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def replace(record: Record, **changes) -> Record:
    """A copy of ``record`` with the named fields changed."""
    return type(record)(**dict(zip(record._fields, record._values(record)), **changes))
