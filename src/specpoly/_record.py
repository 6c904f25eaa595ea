"""Immutable value records, a light stand-in for frozen dataclasses.

A subclass declares its fields as class annotations, in order; a class
attribute of the same name is the field's default.  Each subclass gets one
generated ``__init__`` (positional-or-keyword parameters, each field written
to the instance ``__dict__``, then ``__post_init__`` if the class defines
it), compiled when the class makes its first instance; equality, hashing and
repr work over the field values, as a frozen dataclass's do.  Assigning or
deleting an attribute raises AttributeError; ``functools.cached_property``
still works, because it writes the instance ``__dict__`` directly.  A
``__post_init__`` may normalize a field the same way, writing the instance
``__dict__`` once (DiffOperator stores its coefficients as a tuple of Polys).
Importing ``dataclasses`` (and ``inspect`` behind it) plus one ``exec`` of
six methods per class cost a command-line call more start-up time than the
rest of the package import.

The ``__init__`` is generated because a generic loop over the fields costs
about 2.5 times as much per instance.  Measured for the eight fields of
``GramEntry`` (CPython 3.11, one core of an Intel Xeon; best of five runs of
200,000 instances; an attribute read timed in a loop over 1,000 instances):

* each field through ``object.__setattr__``, which keeps the compact
  shared-key dict: 1.3-1.6 us per instance, 153 bytes, 0.018 us per read;
* ``__slots__`` (with ``__dict__`` kept for ``cached_property``), each field
  through its slot descriptor: 0.8-1.0 us, 137 bytes, 0.016 us per read; a
  default as a class attribute would collide with its slot, so this takes a
  metaclass that moves the defaults out before the class is made;
* the instance ``__dict__`` written key by key (this module): 0.55-0.6 us,
  216 bytes, 0.036 us per read.

A record is built far more often than its fields are read (a Gram entry is
read once more, by ``to_json``), so the dict writes win.  Compiling each
``__init__`` at its class's first instance, not at import, took 1.2-2 ms off
``import specpoly`` (medians of 15 imports from compiled bytecode).

``to_json`` is the one JSON format of the reports: an object with the
annotated names (``_keys``) in order under their own names, where a record
becomes its own ``to_json()``, a tuple a list, a Fraction its exact ``"p/q"``
string, and any other value passes through.  An annotated name whose class
value is a ``property`` is a computed key: ``to_json`` prints it, but it is no
field (``_fields``), so no ``__init__`` parameter, and equality, hashing and
repr skip it.  A type whose JSON keys are not its annotated names overrides it.
The tuple and Fraction tests are on the exact type (no field holds a subclass
of either): ``isinstance(value, Fraction)`` would run
``ABCMeta.__instancecheck__`` on every float, int, string and None field.
"""

from __future__ import annotations

from fractions import Fraction


class Record:
    _fields: tuple[str, ...] = ()
    _keys: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._keys = keys = cls._keys + tuple(cls.__dict__.get("__annotations__", ()))
        computed = {k for k in keys if isinstance(getattr(cls, k, None), property)}
        cls._fields = fields = tuple(k for k in keys if k not in computed)
        missing = object()
        defaults = [getattr(cls, f, missing) for f in fields]
        first = next((i for i, d in enumerate(defaults) if d is not missing), len(fields))
        if any(d is missing for d in defaults[first:]):
            raise TypeError(f"{cls.__name__}: a field without a default follows one with a default")

        def __init__(self, *args, **kwargs):  # compiles the class's own on its first instance
            cls.__init__ = init = _compile_init(cls, tuple(defaults[first:]))
            init(self, *args, **kwargs)

        cls.__init__ = __init__

    def to_json(self) -> dict:
        return {k: _json_value(getattr(self, k)) for k in self._keys}

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{self.__class__.__name__} is immutable: cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{self.__class__.__name__} is immutable: cannot delete {name!r}")


def _compile_init(cls: type, defaults: tuple) -> object:
    """The generated ``__init__`` of the module docstring for cls.  Its local ``__d`` can
    be no field's name: a class body mangles a name with two leading underscores."""
    fields = cls._fields
    lines = [f"def __init__(self, {', '.join(fields)}):", "__d = self.__dict__"]
    lines += [f"__d[{f!r}] = {f}" for f in fields]
    if hasattr(cls, "__post_init__"):
        lines.append("self.__post_init__()")
    namespace: dict = {}
    exec("\n    ".join(lines), namespace)
    init = namespace["__init__"]
    init.__defaults__ = defaults or None
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    return init


def _json_value(value):
    kind = type(value)  # the exact type: the module docstring
    if kind is Fraction:
        return str(value)
    if kind is tuple:
        return [_json_value(v) for v in value]
    return value.to_json() if isinstance(value, Record) else value
