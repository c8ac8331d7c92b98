"""Every JSON config read into its dataclass and written back: manifests, model configs, positional encodings.

A dataclass's type hints are the only declaration of its JSON fields: each
constructor argument is one, required when it has no default. The hints
read are `int`, `float`, `str`, `X | None` (may be null), `list[X]`,
`tuple[X, ...]` (a JSON list) and a class (a JSON object, read by the
class's `from_dict` and written by its `to_dict` when it has them, else
field by field). JSON true/false load as bool, a subclass of int, so they
are never integers or numbers here; any JSON number is a float field's value.
"""

from __future__ import annotations

import dataclasses
import functools
import typing

__all__ = ["from_json", "to_json"]

_TYPE_NAMES = {
    str: ("a string", "strings"),
    int: ("an integer", "integers"),
    float: ("a number", "numbers"),
    list: ("a list", "lists"),
    dict: ("an object", "objects"),
}


def _is(value, kind: type) -> bool:
    if isinstance(value, bool):
        return False
    return isinstance(value, (int, float) if kind is float else kind)


@functools.cache  # once per class: every command reads its configs in its setup
def _fields(cls: type) -> dict[str, tuple]:
    """Each JSON field of `cls` -> (hinted type or its origin, JSON type, may be null, item type, required)."""
    hints = typing.get_type_hints(cls)
    spec = {}
    for f in (f for f in dataclasses.fields(cls) if f.init):
        hint = hints[f.name]
        nullable = type(None) in typing.get_args(hint)
        if nullable:
            (hint,) = (a for a in typing.get_args(hint) if a is not type(None))
        origin = typing.get_origin(hint) or hint
        item = typing.get_args(hint)[0] if origin in (list, tuple) else None
        kind = list if origin is tuple else origin if origin in _TYPE_NAMES else dict
        required = f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
        spec[f.name] = (origin, kind, nullable, item, required)
    return spec


def from_json(cls: type, d, where: str):
    """`cls` built from the JSON object `d`; a non-object, unknown, missing or mistyped field raises ValueError."""
    if not isinstance(d, dict):
        raise ValueError(f"{where} must be a JSON object, got {d!r}")
    spec = _fields(cls)
    unknown = d.keys() - spec.keys()
    if unknown:
        raise ValueError(f"unknown {where} fields: {', '.join(sorted(unknown))}")
    values = {}
    for name, value in d.items():
        origin, kind, nullable, item, _ = spec[name]
        if value is None and nullable:
            pass
        elif not _is(value, kind):
            raise ValueError(f"{where} field {name!r} must be {_TYPE_NAMES[kind][0]}, got {value!r}")
        elif item is not None and not all(_is(x, item) for x in value):
            raise ValueError(f"{where} field {name!r} must list {_TYPE_NAMES[item][1]}, got {value!r}")
        elif origin is float:
            value = float(value)
        elif origin is tuple:
            value = tuple(map(item, value))
        elif kind is dict:
            read = getattr(origin, "from_dict", None)
            value = read(value) if read else from_json(origin, value, f"{where} {name}")
        values[name] = value
    missing = [name for name, (*_, required) in spec.items() if required and name not in d]
    if missing:
        raise ValueError(f"{where} missing fields: {', '.join(missing)}")
    return cls(**values)


def to_json(obj) -> dict:
    """The JSON fields of dataclass `obj` in declaration order, None left out, a tuple written as a list."""
    out = {}
    for name, (_, kind, *_) in _fields(type(obj)).items():
        value = getattr(obj, name)
        if value is None:
            continue
        if kind is dict:
            value = value.to_dict() if hasattr(value, "to_dict") else to_json(value)
        out[name] = list(value) if isinstance(value, tuple) else value
    return out
