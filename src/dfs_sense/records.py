"""Frozen records: the behaviour of @dataclass(frozen=True), with no generated code.

The dataclasses module writes and compiles the source of six methods for
every class it decorates, each time the package is imported. record
instead reads the annotated fields of a class once and installs the same
shared functions on every record:

- __init__ binds positional and keyword arguments to the fields in order,
  fills defaults (a factory default calls its maker once per instance) and
  then calls __post_init__ if the class defines one;
- assigning or deleting any attribute raises AttributeError; __post_init__
  sets derived values with object.__setattr__, as under dataclasses;
- __eq__ compares the field tuples of two instances of the same class,
  __hash__ hashes the field tuple, and __repr__ prints
  Name(field=value, ...) as dataclasses does.

Not supported, and not used in this package: inheritance between records,
dataclasses.field options other than default_factory, and the dataclasses
helpers (fields, replace, asdict, is_dataclass) that read
__dataclass_fields__.
"""

from __future__ import annotations

from reprlib import recursive_repr


class factory:
    """A field default made fresh for each instance: factory(dict)."""

    __slots__ = ("make",)

    def __init__(self, make):
        self.make = make


_MISSING = object()
_set = object.__setattr__


def record(cls):
    """Make cls a frozen record over its annotated fields, in order."""
    names = tuple(cls.__dict__.get("__annotations__", ()))
    defaults = {}
    for name in names:
        value = cls.__dict__.get(name, _MISSING)
        if value is not _MISSING:
            defaults[name] = value
            if isinstance(value, factory):
                delattr(cls, name)
    cls.__record_fields__ = names
    cls.__record_defaults__ = defaults
    cls.__record_post_init__ = getattr(cls, "__post_init__", None)
    cls.__init__ = _init
    cls.__setattr__ = _setattr
    cls.__delattr__ = _delattr
    cls.__eq__ = _eq
    cls.__hash__ = _hash
    cls.__repr__ = _repr
    return cls


def _init(self, *args, **kwargs):
    cls = type(self)
    names = cls.__record_fields__
    if kwargs or len(args) != len(names):
        args = _bind(cls, args, kwargs)
    # object.__setattr__, as in dataclasses: the values stay inline in the
    # instance, with no per-instance __dict__ object
    for name, value in zip(names, args):
        _set(self, name, value)
    post = cls.__record_post_init__
    if post is not None:
        post(self)


def _bind(cls, args, kwargs) -> list:
    """Field values in order from arguments that are not exactly one per field."""
    names = cls.__record_fields__
    where = f"{cls.__qualname__}.__init__()"
    if len(args) > len(names):
        raise TypeError(f"{where} takes {len(names)} positional arguments "
                        f"but {len(args)} were given")
    for name in names[:len(args)]:
        if name in kwargs:
            raise TypeError(f"{where} got multiple values for argument {name!r}")
    values = list(args)
    missing = []
    for name in names[len(args):]:
        if name in kwargs:
            values.append(kwargs.pop(name))
            continue
        default = cls.__record_defaults__.get(name, _MISSING)
        if default is _MISSING:
            missing.append(repr(name))
        else:
            values.append(default.make() if isinstance(default, factory) else default)
    if kwargs:
        raise TypeError(f"{where} got an unexpected keyword argument {next(iter(kwargs))!r}")
    if missing:
        raise TypeError(f"{where} missing {len(missing)} required argument(s): "
                        + ", ".join(missing))
    return values


def _values(self) -> tuple:
    return tuple([getattr(self, name) for name in type(self).__record_fields__])


def _setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def _eq(self, other):
    if other.__class__ is self.__class__:
        return _values(self) == _values(other)
    return NotImplemented


def _hash(self):
    return hash(_values(self))


@recursive_repr()
def _repr(self):
    fields = ", ".join([f"{name}={getattr(self, name)!r}"
                        for name in type(self).__record_fields__])
    return f"{self.__class__.__qualname__}({fields})"
