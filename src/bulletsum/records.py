"""Typed reading of JSON data: one reader per annotation, built once.

Every workspace artifact and the config are read through ``reader``, so the
type of each stored value is written once, as a dataclass field annotation.
"""

from __future__ import annotations

import dataclasses
import functools
import reprlib
import types
import typing

# The JSON types each scalar annotation accepts: a bool is not an int, and an
# int is accepted where a float is expected.
_SCALARS = {str: {str}, int: {int}, float: {float, int}, bool: {bool}}


def _fail(annotation, value):
    name = getattr(annotation, "__name__", annotation)
    raise TypeError(f"expected {name}, got {reprlib.repr(value)}")


@functools.cache
def reader(annotation):
    """The function that turns JSON data into a value of ``annotation``, built once.

    Covers ``str``, ``int``, ``float``, ``bool``, ``X | None``, ``list[T]``,
    ``tuple[T, ...]`` and ``frozenset[T]`` (read from arrays), ``dict[str, T]``
    and field-only dataclasses, read from objects that hold their init fields
    and no key that is not a field. A mismatch raises ``TypeError`` naming the
    value and the records it is in.
    """
    origin, args = typing.get_origin(annotation), typing.get_args(annotation)
    if annotation in _SCALARS:
        allowed = _SCALARS[annotation]
        return lambda value: value if type(value) in allowed else _fail(annotation, value)
    if origin in (typing.Union, types.UnionType) and len(args) == 2 and type(None) in args:
        (inner,) = [reader(arg) for arg in args if arg is not type(None)]
        return lambda value: None if value is None else inner(value)
    if origin in (list, tuple, frozenset) and args[1:] in ((), (...,)):
        read_item, allowed = reader(args[0]), _SCALARS.get(args[0], set())

        def read(value):
            if type(value) is not list:
                _fail(annotation, value)
            if {*map(type, value)} <= allowed:  # a list of scalars is checked in one pass
                return origin(value)
            return origin(map(read_item, value))

    elif origin is dict and args[0] is str:
        read_item = reader(args[1])

        def read(value):
            if type(value) is not dict:  # a JSON object's keys are strings
                _fail(annotation, value)
            return dict(zip(value, map(read_item, value.values())))

    elif isinstance(annotation, type) and dataclasses.is_dataclass(annotation):
        fields, hints = dataclasses.fields(annotation), typing.get_type_hints(annotation)
        init = {f.name: reader(hints[f.name]) for f in fields if f.init}
        names = {f.name for f in fields}

        def read(value):
            if type(value) is not dict or not init.keys() <= value.keys() <= names:
                _fail(annotation, value)
            try:
                values = {name: read_field(value[name]) for name, read_field in init.items()}
            except TypeError as exc:
                raise TypeError(f"{annotation.__name__}: {exc}") from None
            return annotation(**values)

    else:
        raise NotImplementedError(f"no reader for {annotation!r}")
    return read
