"""``model.Record``: the frozen record every pipeline stage returns."""

from __future__ import annotations

import pytest

from qdyncost.costs import CostPair
from qdyncost.model import Record


class Point(Record):
    x: float
    y: float = 0.0
    label: str = ""


class Twin(Record):
    x: float
    y: float = 0.0
    label: str = ""


class Checked(Record):
    n: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"negative: {self}")


def test_fields_follow_the_annotations_in_order():
    assert list(Point._fields) == ["x", "y", "label"]
    assert list(Checked._fields) == ["n"]


@pytest.mark.parametrize("args, kwargs", [
    ((1.0,), {}), ((1.0, 0.0), {}), ((1.0, 0.0, ""), {}), ((), {"x": 1.0}),
    ((1.0,), {"label": ""}), ((), {"label": "", "x": 1.0, "y": 0.0}),
])
def test_positional_and_keyword_fields_build_one_record(args, kwargs):
    record = Point(*args, **kwargs)
    assert (record.x, record.y, record.label) == (1.0, 0.0, "")
    assert record == Point(1.0) and hash(record) == hash(Point(1.0))
    # every field is stored, defaults too: budget.allocate spreads vars(shares)
    assert vars(record) == {"x": 1.0, "y": 0.0, "label": ""}


def test_equality_and_hash_run_over_the_fields():
    assert Point(1.0, 2.0) == Point(x=1.0, y=2.0)
    assert hash(Point(1.0, 2.0)) == hash(Point(x=1.0, y=2.0))
    assert Point(1.0, 2.0) != Point(1.0, 3.0)
    # records of different classes are never equal, whatever their fields
    assert Point(1.0) != Twin(1.0)
    assert Point(1.0) != (1.0, 0.0, "")
    assert len({Point(1.0), Point(1.0), Twin(1.0)}) == 2


def test_repr_matches_the_dataclass_text():
    assert repr(Point(1.0, label="a")) == "Point(x=1.0, y=0.0, label='a')"
    assert str(Checked(3)) == "Checked(n=3)"


@pytest.mark.parametrize("name", ["x", "y", "label", "other"])
def test_assignment_and_deletion_raise(name):
    record = Point(1.0)
    with pytest.raises(AttributeError):
        setattr(record, name, 2.0)
    with pytest.raises(AttributeError):
        delattr(record, name)
    assert record == Point(1.0)


@pytest.mark.parametrize("args, kwargs, given", [
    ((), {}, "0 by position and none by name"),                     # x missing
    ((), {"y": 1.0}, "0 by position and 'y' by name"),              # x missing
    ((1.0,), {"z": 2.0}, "1 by position and 'z' by name"),          # z unknown
    ((1.0, 2.0), {"y": 3.0}, "2 by position and 'y' by name"),      # y twice
    ((1.0,), {"x": 1.0}, "1 by position and 'x' by name"),          # x twice
    ((1.0, 2.0, "a", "b"), {}, "4 by position and none by name"),   # one too many
])
def test_missing_unknown_or_doubled_field_raises_type_error(args, kwargs, given):
    with pytest.raises(TypeError) as exc:
        Point(*args, **kwargs)
    assert str(exc.value) == f"Point() takes the fields x, y, label; got {given}"


def test_replace_returns_a_changed_copy():
    record = Point(1.0, 2.0, "a")
    changed = record.replace(y=5.0)
    assert changed == Point(1.0, 5.0, "a") and record == Point(1.0, 2.0, "a")
    assert record.replace() == record and record.replace() is not record
    with pytest.raises(TypeError, match="got 3 by position and 'z' by name"):
        record.replace(z=1.0)


def test_post_init_runs_on_every_build():
    with pytest.raises(ValueError, match="negative: Checked\\(n=-1\\)"):
        Checked(-1)
    with pytest.raises(ValueError):
        Checked(1).replace(n=-1)


def test_negative_cost_message_is_unchanged():
    with pytest.raises(ValueError) as exc:
        CostPair(-1.0, 0)
    assert str(exc.value) == "negative cost: CostPair(toffoli=-1.0, ancilla=0, bound=False)"


def test_cost_pair_keeps_the_record_rules():
    # CostPair writes its __init__ out, for speed; it is still a record
    pair = CostPair(1.0, 2)
    assert pair == CostPair(1.0, 2, False) == CostPair(ancilla=2, toffoli=1.0)
    assert list(vars(pair)) == list(CostPair._fields) == ["toffoli", "ancilla", "bound"]
    assert pair.replace(bound=True) == CostPair(1.0, 2, True)
    for args, kwargs in (((1.0,), {}), ((1.0, 2), {"toffoli": 1.0}), ((1.0, 2), {"z": 0})):
        with pytest.raises(TypeError):
            CostPair(*args, **kwargs)
    with pytest.raises(AttributeError):
        pair.toffoli = 0.0
