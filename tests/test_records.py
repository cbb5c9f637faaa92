"""Frozen records against their dataclasses.dataclass(frozen=True) twins."""

import dataclasses
import subprocess
import sys
from pathlib import Path

import pytest

from dfs_sense.records import record


@record
class Point:
    """A record with a required field and two defaults."""

    x: float
    label: str = "p"
    tags: dict | None = None


@dataclasses.dataclass(frozen=True)
class PointTwin:
    x: float
    label: str = "p"
    tags: dict | None = None


@record
class Checked:
    value: float
    square: float | None = None

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("negative")
        object.__setattr__(self, "square", self.value ** 2)


@dataclasses.dataclass(frozen=True)
class CheckedTwin:
    value: float
    square: float | None = None

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("negative")
        object.__setattr__(self, "square", self.value ** 2)


@record
class Pair:
    a: tuple
    b: int


@dataclasses.dataclass(frozen=True)
class PairTwin:
    a: tuple
    b: int


def _twin_repr(obj, twin_name: str) -> str:
    # the twin's repr with its class name swapped for the record's
    return repr(obj).replace(twin_name, twin_name[:-len("Twin")], 1)


@pytest.mark.parametrize("args,kwargs", [
    ((1.5,), {}),
    ((1.5, "q"), {}),
    ((1.5,), {"label": "q"}),
    ((), {"x": 1.5, "tags": {"k": [1, 2]}}),
    ((-0.0, "it's"), {"tags": {"n": None}}),
])
def test_binding_defaults_and_repr_match_dataclass(args, kwargs):
    r, d = Point(*args, **kwargs), PointTwin(*args, **kwargs)
    assert repr(r) == _twin_repr(d, "PointTwin")
    assert (r.x, r.label, r.tags) == (d.x, d.label, d.tags)


def test_nested_repr_matches_dataclass():
    r = Pair((Point(1.0), None), 3)
    d = PairTwin((PointTwin(1.0), None), 3)
    assert repr(r) == repr(d).replace("PairTwin", "Pair").replace("PointTwin", "Point")


def test_equality_and_hash_match_dataclass():
    for a, b in [((1, 2), 3), ((), 0), ((float("nan"),), 1), (("x",), -1)]:
        r, d = Pair(a, b), PairTwin(a, b)
        assert hash(r) == hash(d) == hash((a, b))
        assert (r == Pair(a, b)) == (d == PairTwin(a, b))
        assert r == r and d == d
    assert Pair((1,), 2) != Pair((1,), 3)
    assert PairTwin((1,), 2) != PairTwin((1,), 3)
    # another class never compares equal, whatever its fields
    assert Pair((1,), 2) != PairTwin((1,), 2)
    assert Pair((1,), 2).__eq__(PairTwin((1,), 2)) is NotImplemented
    assert PairTwin((1,), 2).__eq__(Pair((1,), 2)) is NotImplemented
    assert {Pair((1,), 2): "a"}[Pair((1,), 2)] == "a"


def test_unhashable_field_raises_like_dataclass():
    with pytest.raises(TypeError):
        hash(Point(1.0, tags={}))
    with pytest.raises(TypeError):
        hash(PointTwin(1.0, tags={}))


def test_assignment_and_deletion_raise_attribute_error():
    for obj in (Point(1.0), PointTwin(1.0)):
        with pytest.raises(AttributeError, match="cannot assign to field 'x'"):
            obj.x = 2.0
        with pytest.raises(AttributeError, match="cannot assign to field 'other'"):
            obj.other = 2.0
        with pytest.raises(AttributeError, match="cannot delete field 'x'"):
            del obj.x
        assert obj.x == 1.0


@pytest.mark.parametrize("args,kwargs", [
    ((), {}),                                  # missing x
    ((), {"label": "q"}),                      # missing x
    ((1.0,), {"colour": "red"}),               # unknown field
    ((1.0,), {"x": 2.0}),                      # x twice
    ((1.0, "q"), {"label": "r"}),              # label twice
    ((1.0, "q", {}, 4), {}),                   # too many positional
])
def test_bad_arguments_raise_type_error(args, kwargs):
    with pytest.raises(TypeError):
        PointTwin(*args, **kwargs)
    with pytest.raises(TypeError):
        Point(*args, **kwargs)


def test_post_init_runs_and_may_set_fields():
    r, d = Checked(3.0), CheckedTwin(3.0)
    assert r.square == d.square == 9.0
    assert repr(r) == _twin_repr(d, "CheckedTwin")
    assert Checked(value=2.0) == Checked(2.0, 99.0)
    for cls in (Checked, CheckedTwin):
        with pytest.raises(ValueError, match="negative"):
            cls(-1.0)


def test_import_generates_no_dataclass_code():
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import dfs_sense.cli; "
            "print('dataclasses' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, str(src)],
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
