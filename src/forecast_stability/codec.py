"""Strict JSON reading of the config dataclasses; writing is ``dataclasses.asdict``.

``from_json`` takes each field's name, type and default from the dataclass
itself, so each is stated once; only tagged shapes are read by hand. An
unknown key, a missing required key or a value of the wrong type raises
ValueError naming its key path, as in ``models[1].kind.params.lags:
expected int, got 7.5``. An int reads as a float where a float is
expected; a bool is never a number, and a float must be finite.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import typing

MISSING = dataclasses.MISSING  # the value of an absent key


def fault(where: str, what: object) -> ValueError:
    """The error for the value at key path ``where``; '' is the top level."""
    return ValueError(f"{where or 'config'}: {what}")


def _wrong(what: str, value: object, where: str) -> ValueError:
    return fault(where, "missing" if value is MISSING else f"expected {what}, got {value!r}")


def take(obj: object, where: str, *keys: str, only: bool = False) -> tuple[list, dict]:
    """The values at ``keys`` of JSON object ``obj`` (MISSING if absent), and its other members.

    With ``only``, any other member is an unknown key.
    """
    if not isinstance(obj, dict):
        raise _wrong("an object", obj, where)
    rest = {key: value for key, value in obj.items() if key not in keys}
    for key in rest if only else ():
        raise fault(f"{where}.{key}" if where else key, "unknown key")
    return [obj.get(key, MISSING) for key in keys], rest


def tagged(obj: object, where: str, *tags: str) -> tuple[str, object, dict]:
    """The one key of ``tags`` in JSON object ``obj``, its value, and the other members."""
    values, rest = take(obj, where, *tags)
    present = [(tag, value) for tag, value in zip(tags, values) if value is not MISSING]
    if len(present) != 1:
        raise fault(where, f"expected exactly one of {' and '.join(map(repr, tags))}")
    return (*present[0], rest)


def items(value: object, where: str) -> list[tuple[str, object]]:
    """The key path and value of each item of a JSON array."""
    if not isinstance(value, (list, tuple)):
        raise _wrong("an array", value, where)
    return [(f"{where}[{index}]", item) for index, item in enumerate(value)]


def read(tp, value: object, where: str):
    """``value`` checked as a ``tp``: bool, int, float, str, tuple or dataclass."""
    if typing.get_origin(tp) is tuple:
        types, pairs = typing.get_args(tp), items(value, where)
        if len(types) != len(pairs):
            raise fault(where, f"expected {len(types)} items, got {len(pairs)}")
        return tuple(read(t, v, path) for t, (path, v) in zip(types, pairs))
    if dataclasses.is_dataclass(tp):
        return from_json(tp, value, where)
    if tp is float and type(value) is int:
        with contextlib.suppress(OverflowError):
            value = float(value)
    if type(value) is not tp:
        raise _wrong(tp.__name__, value, where)
    if tp is float and not math.isfinite(value):
        raise _wrong("a finite float", value, where)
    return value


def from_json(cls, obj: object, where: str, **built):
    """Read the dataclass ``cls`` from the JSON object ``obj`` at key path ``where``.

    A field not in ``built`` is read from the key of its name, or takes its
    default if the key is absent; ``obj`` may have no other key. ``built``
    holds the fields of tagged shapes, which the caller has read. A
    ValueError from ``cls`` is raised again naming ``where``.
    """
    hints = typing.get_type_hints(cls)
    fields = [f for f in dataclasses.fields(cls) if f.name not in built]
    values, _ = take(obj, where, *(f.name for f in fields), only=True)
    for f, value in zip(fields, values):
        if value is not MISSING or f.default is MISSING:
            built[f.name] = read(hints[f.name], value, f"{where}.{f.name}" if where else f.name)
    try:
        return cls(**built)
    except ValueError as exc:
        raise fault(where, exc) from exc
