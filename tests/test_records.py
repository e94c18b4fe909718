"""The results are immutable named tuples: no field can be assigned, the
checked records check through every constructor, and derived values follow
their fields."""

import copy
import math
import pickle

import pytest

import conicrect
from conicrect import (
    DomainError,
    Ellipse,
    Hyperbola,
    LagrangeParams,
    LandenPair,
    agm,
    check_borwein,
    construction_points,
    integrate,
    landen_theorem_check,
    lemniscate,
)
from conicrect.cli import RunReport


def _samples() -> list[tuple]:
    """One instance of every public record type, from real calls."""
    pair = LandenPair(2.0, 1.0)
    breakdown, report = landen_theorem_check(pair, 0.5)
    return [
        agm(1.0, 0.5),
        lemniscate(1.0),
        integrate(math.sin, 0.0, 1.0),
        pair.hyperbola,
        pair.ellipse_inner,
        pair,
        breakdown,
        report,
        LagrangeParams(4.0, 2.0),
        construction_points(pair, 0.5),
        RunReport("agm", {"p": 1.0, "q": 0.5}, {"limit": 0.75}),
    ]


SAMPLES = _samples()

# record type -> a valid field tuple and field tuples its check rejects
CHECKED = {
    Hyperbola: ((1.0, 2.0), [(0.0, 1.0), (-1.0, 1.0), (1.0, math.inf), (math.nan, 1.0)]),
    Ellipse: ((2.0, 1.0), [(1.0, 0.0), (math.inf, 1.0), (1.0, math.nan)]),
    LandenPair: ((2.0, 1.0), [(1.0, 1.0), (1.0, 2.0), (math.inf, 1.0), (2.0, math.nan)]),
    LagrangeParams: ((4.0, 2.0), [(1.0, 2.0), (1.0, 0.0), (1.7e308, 1e308), (1e-200, 1e-201)]),
}


def test_the_samples_cover_every_public_record():
    public = {
        obj
        for obj in (getattr(conicrect, name) for name in conicrect.__all__)
        if isinstance(obj, type) and issubclass(obj, tuple)
    }
    assert {type(record) for record in SAMPLES} == public | {RunReport}


@pytest.mark.parametrize("record", SAMPLES, ids=lambda record: type(record).__name__)
def test_no_field_or_attribute_can_be_assigned(record):
    # a subclass without __slots__ = () would take "extra" into an instance dict
    derived = [name for name in ("residual", "p1", "q1") if hasattr(record, name)]
    for name in (*record._fields, *derived, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, 1.0)
    for name in record._fields:
        with pytest.raises(AttributeError):
            delattr(record, name)


@pytest.mark.parametrize("cls", list(CHECKED), ids=lambda cls: cls.__name__)
def test_checked_records_check_every_constructor(cls):
    good, bads = CHECKED[cls]
    record = cls(*good)
    for built in (cls._make(good), record._replace(), copy.copy(record), pickle.loads(pickle.dumps(record))):
        assert type(built) is cls and built == record
    for bad in bads:
        with pytest.raises(DomainError):
            cls(*bad)
        with pytest.raises(DomainError):
            cls._make(bad)
        with pytest.raises(DomainError):
            record._replace(**dict(zip(record._fields, bad)))


def test_derived_values_follow_replace():
    report = check_borwein(0.3)._replace(rhs=2.0)
    assert report.residual == abs(report.lhs - 2.0)
    params = LagrangeParams(4.0, 2.0)._replace(q=1.0)
    assert (params.p1, params.q1) == (0.5 * (4.0 + 1.0), math.sqrt(4.0 * 1.0))
    assert LandenPair(3.0, 1.0)._replace(n=2.0).hyperbola == Hyperbola(1.0, 2.0 * math.sqrt(6.0))


def test_records_are_tuples():
    # a deliberate part of the specification: records unpack, index and
    # compare like the tuple of their fields, whatever their type
    a, b = Hyperbola(1.0, 2.0)
    assert (a, b) == (1.0, 2.0) and Hyperbola(1.0, 2.0)[1] == 2.0
    assert Hyperbola(1.0, 2.0) == (1.0, 2.0) == Ellipse(1.0, 2.0)
    assert LagrangeParams(4.0, 2.0) == (4.0, 2.0)


def test_run_report_flags_default_to_an_empty_tuple():
    assert RunReport._field_defaults["flags"] == ()
    assert isinstance(RunReport("agm", {}, {}).flags, tuple)
