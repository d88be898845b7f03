"""Frozen value records, set up without generated source.

`record` gives a class with annotated fields what ``dataclass(frozen=True)``
gives it:

- ``__init__`` takes every field, positionally or by keyword, in annotation
  order (no field has a default), and ends with ``__post_init__`` when the
  class defines one;
- ``==`` compares the field tuples of two instances of the same class, and
  ``hash`` is the hash of the field tuple;
- assigning or deleting an attribute raises ``AttributeError``;
- ``repr`` reads ``Name(field=value, ...)``.

Each method is a closure over the field names, so decorating a class
``exec``s nothing and this module imports nothing.  Fields live in the
instance ``__dict__``: ``object.__setattr__`` still writes one, and
unpickling restores the ``__dict__`` without calling ``__init__``.
"""


def record(cls):
    names = tuple(cls.__dict__.get("__annotations__", {}))
    arity = len(names)
    post_init = getattr(cls, "__post_init__", None)

    def fields(self):
        return tuple([getattr(self, n) for n in names])

    def bind(args, kwargs):
        if len(args) > arity:
            raise TypeError(f"{cls.__name__}() takes {arity} arguments "
                            f"but {len(args)} were given")
        given = dict(zip(names, args))
        for name in kwargs:
            if name not in names or name in given:
                raise TypeError(f"{cls.__name__}() got an unexpected or "
                                f"repeated argument {name!r}")
        values = {**given, **kwargs}
        missing = [n for n in names if n not in values]
        if missing:
            raise TypeError(f"{cls.__name__}() missing arguments: "
                            + ", ".join(map(repr, missing)))
        return [values[n] for n in names]

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != arity:
            args = bind(args, kwargs)
        self.__dict__.update(zip(names, args))
        if post_init is not None:
            post_init(self)

    def __repr__(self):
        return (f"{self.__class__.__qualname__}("
                + ", ".join(f"{n}={v!r}" for n, v in zip(names, fields(self)))
                + ")")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return fields(self) == fields(other)
        return NotImplemented

    def __hash__(self):
        return hash(fields(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    for method in (__init__, __repr__, __eq__, __hash__, __setattr__, __delattr__):
        setattr(cls, method.__name__, method)
    return cls
