"""Immutable records without `dataclasses`.

`record` stands in for `@dataclass(frozen=True)`, whose module imports
`inspect` and which execs generated source for every class: together most of
the time `import poncelet` took.  This module imports nothing."""


def record(cls):
    """Make `cls` an immutable record of the fields its annotations name, in
    order.  It is built by position or keyword, its repr is
    `Name(field=value!r, ...)`, `==` compares class and fields, `hash` is that
    of the field tuple, and assignment and deletion raise `AttributeError`.

    A method the class body defines is kept.  A class that validates its
    input, has defaults or is built in a hot loop writes its own `__init__`,
    which stores each field with `object.__setattr__`.  The others are built
    fastest with one positional argument per field.  Nothing here reads
    `self.__dict__`: in CPython 3.11 that turns the instance's inline
    attribute values into a dict, and every later attribute read gets about
    twice as slow."""
    names = tuple(cls.__dict__.get("__annotations__", ()))
    store = object.__setattr__

    def __init__(self, *args, **kw):
        if kw or len(args) != len(names):
            args = _bind(cls, names, args, kw)
        for k, v in zip(names, args):
            store(self, k, v)

    def _values(self):
        return tuple([getattr(self, k) for k in names])

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{k}={getattr(self, k)!r}' for k in names)})"

    def __eq__(self, other):
        return _values(self) == _values(other) if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(_values(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    for f in (__init__, __repr__, __eq__, __hash__, __setattr__, __delattr__):
        if f.__name__ not in cls.__dict__:
            f.__qualname__ = f"{cls.__qualname__}.{f.__name__}"
            setattr(cls, f.__name__, f)
    cls.__match_args__ = names
    return cls


def _bind(cls, names, args, kw):
    """The field values, in order, from a call that is not one positional
    argument per field; `TypeError` unless it gives each field once."""
    values = dict(zip(names, args), **kw)
    if len(args) > len(names) or len(values) < len(args) + len(kw) or values.keys() != set(names):
        raise TypeError(f"{cls.__qualname__}() takes each of {', '.join(names)} once, "
                        "by position or keyword")
    return [values[k] for k in names]
