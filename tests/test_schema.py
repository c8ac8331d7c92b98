"""JSON configs read into dataclasses and written back from their type hints alone."""

import dataclasses
import json
import re

import pytest

from corm.schema import from_json, to_json


@dataclasses.dataclass
class Inner:
    name: str
    weight: float = 1.0


@dataclasses.dataclass
class Settings:
    size: int
    label: str = "a"


def grown(annotation, default) -> type:
    """`Settings` with one more annotated field, `extra`, and no other edit."""
    return dataclasses.make_dataclass(
        "Grown", [("extra", annotation, dataclasses.field(default=default))], bases=(Settings,)
    )


@pytest.mark.parametrize(
    "annotation,default,given,value,written,bad,named",
    [
        (int, 0, 5, 5, 5, 5.5, "test field 'extra' must be an integer, got 5.5"),
        (int, 0, 5, 5, 5, True, "test field 'extra' must be an integer, got True"),
        (float, 0.5, 2, 2.0, 2.0, "2", "test field 'extra' must be a number, got '2'"),
        (str, "", "b", "b", "b", 3, "test field 'extra' must be a string, got 3"),
        (int | None, None, 3, 3, 3, "3", "test field 'extra' must be an integer, got '3'"),
        (list[int] | None, None, [1, 2], [1, 2], [1, 2], [1, "2"], "test field 'extra' must list integers"),
        (tuple[float, ...], (), [1, 2.5], (1.0, 2.5), [1.0, 2.5], [1, True], "test field 'extra' must list numbers"),
        (Inner | None, None, {"name": "x"}, Inner("x"), {"name": "x", "weight": 1.0}, {"name": 3},
         "test extra field 'name' must be a string, got 3"),
        (Inner | None, None, {"name": "x"}, Inner("x"), {"name": "x", "weight": 1.0}, {"nme": "x"},
         "unknown test extra fields: nme"),
    ],
    ids=["int", "int_not_bool", "float", "str", "nullable", "list", "tuple", "nested", "nested_unknown"],
)
def test_an_added_field_is_read_checked_defaulted_and_written(annotation, default, given, value, written, bad, named):
    cls = grown(annotation, default)
    with pytest.raises(ValueError, match="unknown test fields: extra"):
        from_json(Settings, {"size": 1, "extra": given}, "test")
    assert from_json(cls, {"size": 1}, "test").extra == default
    read = from_json(cls, {"size": 1, "extra": given}, "test")
    assert read.extra == value and type(read.extra) is type(value)
    assert to_json(read) == {"size": 1, "label": "a", "extra": written}
    assert from_json(cls, json.loads(json.dumps(to_json(read))), "test") == read
    with pytest.raises(ValueError, match=re.escape(named)):
        from_json(cls, {"size": 1, "extra": bad}, "test")


def test_null_is_read_only_where_the_hint_allows_it():
    assert from_json(grown(int | None, 4), {"size": 1, "extra": None}, "test").extra is None
    with pytest.raises(ValueError, match="test field 'size' must be an integer, got None"):
        from_json(Settings, {"size": None}, "test")


def test_missing_required_fields_named_in_declaration_order():
    cls = dataclasses.make_dataclass("Pair", [("b", int), ("a", str), ("c", int, dataclasses.field(default=0))])
    with pytest.raises(ValueError, match="^test missing fields: b, a$"):
        from_json(cls, {"c": 1}, "test")


def test_a_non_object_is_rejected():
    with pytest.raises(ValueError, match=re.escape("test must be a JSON object, got [1]")):
        from_json(Settings, [1], "test")


def test_none_left_out_and_non_constructor_fields_neither_read_nor_written():
    cls = dataclasses.make_dataclass(
        "Noted", [("size", int | None, dataclasses.field(default=None)),
                  ("note", str, dataclasses.field(default="x", init=False))]
    )
    assert to_json(cls()) == {}
    with pytest.raises(ValueError, match="unknown test fields: note"):
        from_json(cls, {"note": "y"}, "test")
