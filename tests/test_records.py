"""The record types keep their value semantics: copies, pickles, reprs."""

import copy
import pickle

import pytest

from dicepool import (
    BenchReport,
    RadixPlan,
    WastePoint,
    bench_recycler,
    enumerate_exact,
    waste_point,
)

RECORDS = {
    "WastePoint": lambda: waste_point(6, 256),
    "RadixPlan": lambda: RadixPlan((2, 3, 52)),
    "BenchReport": lambda: bench_recycler(6, 100),
    "EnumerationResult": lambda: enumerate_exact(3, 3),
}


@pytest.mark.parametrize("make", RECORDS.values(), ids=RECORDS.keys())
def test_round_trips_to_an_equal_record(make):
    record = make()
    for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record),
                 copy.deepcopy(record)):
        assert type(twin) is type(record)
        assert twin == record
        assert repr(twin) == repr(record)


def test_reprs():
    assert repr(RadixPlan((2, 3))) == "RadixPlan(ranges=(2, 3))"
    assert repr(WastePoint(0.5, 1.0, 2.0)) == (
        "WastePoint(p=0.5, waste_iter=1.0, waste_roll=2.0)"
    )
    report = BenchReport("recycler", 6, 2, 6, 0.5, 5.25, 0.16, 0.91, 2.0, 5, 0.25)
    assert repr(report) == (
        "BenchReport(sampler='recycler', n=6, rolls=2, bits_in=6, pool_delta=0.5, "
        "entropy_out=5.25, waste_per_roll=0.16, efficiency=0.91, chi_square=2.0, "
        "dof=5, elapsed=0.25)"
    )
    assert repr(enumerate_exact(3, 3)) == (
        "EnumerationResult(tape_bits=3, sides=3, counts=[2, 2, 2], "
        "discard_states=[(2, 0), (2, 1)])"
    )


@pytest.mark.parametrize("record,name", [
    (WastePoint(0.5, 1.0, 2.0), "p"),
    (WastePoint(0.5, 1.0, 2.0), "extra"),
    (RadixPlan((2, 3)), "ranges"),
    (RadixPlan((2, 3)), "product"),
    (RadixPlan((2, 3)), "extra"),
])
def test_frozen_records_refuse_assignment(record, name):
    with pytest.raises(AttributeError):
        setattr(record, name, 7)


def test_plan_compares_and_hashes_by_its_ranges():
    assert RadixPlan((2, 3)) == RadixPlan([2, 3])
    assert RadixPlan((2, 3)) != RadixPlan((3, 2))
    assert hash(RadixPlan((2, 3))) == hash(RadixPlan(iter([2, 3])))
    assert len({RadixPlan((2, 3)), RadixPlan([2, 3]), RadixPlan((3, 2))}) == 2


def test_plan_replace_and_make_rebuild_from_the_ranges():
    # namedtuple's _replace builds through _make, which must not keep the
    # old plan's product and tables, nor skip the range check
    plan = RadixPlan((2, 3))._replace(ranges=(5,))
    assert plan == RadixPlan((5,))
    assert (plan.product, plan.steps) == (5, ((5, None),))
    with pytest.raises(ValueError, match="unexpected field names"):
        RadixPlan((2, 3))._replace(product=7)
    with pytest.raises(ValueError, match=r"range must be in \[1, inf\], got 0"):
        RadixPlan._make([(0,), 0, ()])
