"""Type checks for JSON objects read from files: manifests and model configs.

A spec maps each allowed field to (type, may be null), or to
(list, may be null, item type) for a list whose items must have one type.
JSON true/false load as bool, a subclass of int, so they are never
integers or numbers here; any JSON number is a float field's value.
"""

from __future__ import annotations

__all__ = ["check_fields"]

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


def check_fields(d, spec: dict, where: str) -> None:
    """Reject a non-object, unknown fields and values of the wrong JSON type with ValueError."""
    if not isinstance(d, dict):
        raise ValueError(f"{where} must be a JSON object, got {d!r}")
    unknown = set(d) - set(spec)
    if unknown:
        raise ValueError(f"unknown {where} fields: {', '.join(sorted(unknown))}")
    for name, value in d.items():
        kind, nullable, *item = spec[name]
        if nullable and value is None:
            continue
        if not _is(value, kind):
            raise ValueError(f"{where} field {name!r} must be {_TYPE_NAMES[kind][0]}, got {value!r}")
        if item and not all(_is(x, item[0]) for x in value):
            raise ValueError(f"{where} field {name!r} must list {_TYPE_NAMES[item[0]][1]}, got {value!r}")
