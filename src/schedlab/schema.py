"""Strict construction of frozen dataclasses from parsed JSON.

A dataclass is its own schema: ``build`` takes the allowed keys from its
fields, the required keys from the fields without a default, and each
value's type from the field annotation.  JSON values are never coerced
across kinds:

- ``int`` takes a JSON integer only (no bool, no ``1000.0``);
- ``float`` takes any finite JSON number (no bool, NaN or infinity);
- ``bool`` takes only ``true``/``false``; ``str`` only a string;
- a str-valued enum takes one of its string values;
- ``X | Y`` takes the first arm the value fits (``None`` only as ``null``),
  ``tuple[X, ...]`` a JSON array, a nested dataclass a JSON object, and
  ``object`` any value, left for the caller to check.

Every rejection is a ``ValidationError`` naming the dotted path of the
offending value, e.g. ``config.schedule.T``.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import math
import types
import typing

from .errors import ValidationError


def build(cls, data, path: str):
    """An instance of the dataclass ``cls`` from the JSON object ``data``."""
    if not isinstance(data, dict):
        raise ValidationError(f"{path} must be a JSON object, got {data!r}")
    hints = _hints(cls)
    unknown = sorted(set(data) - set(hints))
    if unknown:
        raise ValidationError(f"unknown {path} fields: {unknown}")
    for f in dataclasses.fields(cls):
        required = f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
        if required and f.name not in data:
            raise ValidationError(f"{path} needs '{f.name}'")
    return cls(**{k: coerce(hints[k], v, f"{path}.{k}") for k, v in data.items()})


_hints = functools.cache(typing.get_type_hints)


def replace(obj, changes: dict, path: str):
    """``dataclasses.replace(obj, ...)`` with each JSON value in ``changes``
    checked against the type of the field it replaces."""
    hints = _hints(type(obj))
    return dataclasses.replace(
        obj, **{k: coerce(hints[k], v, f"{path}.{k}") for k, v in changes.items()}
    )


def coerce(tp, value, path: str):
    """``value`` as the annotated type ``tp``, or a ``ValidationError``."""
    if tp in _KINDS:
        if tp is float and type(value) in (int, float):
            try:
                if math.isfinite(value):  # an int beyond float range overflows
                    return float(value)
            except OverflowError:
                pass
        elif type(value) is tp:
            return value
        raise ValidationError(f"{path} must be {_KINDS[tp]}, got {value!r}")
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):
        if value is None and type(None) in args:
            return None
        arms = [a for a in args if a is not type(None)]
        for arm in arms[:-1]:
            try:
                return coerce(arm, value, path)
            except ValidationError:
                pass
        return coerce(arms[-1], value, path)
    if origin is tuple:
        if not isinstance(value, list):
            raise ValidationError(f"{path} must be a JSON array, got {value!r}")
        return tuple(coerce(args[0], v, f"{path}[{i}]") for i, v in enumerate(value))
    if dataclasses.is_dataclass(tp):
        return build(tp, value, path)
    if issubclass(tp, enum.Enum):
        if isinstance(value, str) and value in {m.value for m in tp}:
            return tp(value)
        raise ValidationError(f"{path} must be one of {[m.value for m in tp]}, got {value!r}")
    if tp is object:
        return value
    raise TypeError(f"no JSON form for {tp!r}")


_KINDS = {int: "an integer", float: "a finite number", bool: "true or false", str: "a string"}
