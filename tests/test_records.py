"""The value records: equality, hashing, repr, immutability, copies and
pickles, and the checks each constructor makes."""

import copy
import pickle

import pytest

from cubres import (
    ColorScheme,
    Counterexample,
    CubeDiffPlusOne,
    DeterminantTable,
    DiffPlusC,
    EvenPowerPlusC,
    Prime,
    ResidueMatrix,
    SumPlusC,
    TheoremReport,
    build_matrix,
    generate_table,
)

_P5 = "Prime(value=5, mod3=2, mod4=1, mod12=5)"

# (make, field, repr): make builds a fresh record each call, and field
# names one of its fields, or any name for a record with none
FROZEN = [
    (lambda: Prime(7), "mod3", "Prime(value=7, mod3=1, mod4=3, mod12=7)"),
    (lambda: DiffPlusC(1), "c", "DiffPlusC(c=1)"),
    (lambda: SumPlusC(-2), "c", "SumPlusC(c=-2)"),
    (lambda: CubeDiffPlusOne(), "c", "CubeDiffPlusOne()"),
    (lambda: EvenPowerPlusC(2, 3), "t", "EvenPowerPlusC(t=2, c=3)"),
    (lambda: generate_table("diff", 5, (1, 2), (0, 1)), "cells",
     f"DeterminantTable(prime={_P5}, family='diff', t=1, n_range=(1, 2), c_range=(0, 1), "
     "cells=_RowCells({(1, 0): 0, (1, 1): 1, (2, 0): -1, (2, 1): 1}))"),
    (lambda: ColorScheme(), "zero",
     "ColorScheme(zero=(59, 117, 196), negative=(230, 126, 34), positive=(46, 139, 87))"),
    (lambda: Counterexample(1, 2, 3, 4), "n", "Counterexample(n=1, c=2, expected=3, actual=4, detail='')"),
    (lambda: Counterexample(1, 2, 3, 4, "x"), "detail",
     "Counterexample(n=1, c=2, expected=3, actual=4, detail='x')"),
]
IDS = ["Prime", "DiffPlusC", "SumPlusC", "CubeDiffPlusOne", "EvenPowerPlusC", "DeterminantTable",
       "ColorScheme", "Counterexample", "Counterexample-detail"]

ROUND_TRIPS = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda record: pickle.loads(pickle.dumps(record)),
}


@pytest.mark.parametrize("make, field, text", FROZEN, ids=IDS)
def test_a_frozen_record_compares_prints_and_refuses_changes(make, field, text):
    record = make()
    assert repr(record) == text
    assert record == make() and not record != make()
    if isinstance(record, DeterminantTable):
        with pytest.raises(TypeError, match="unhashable type: '_RowCells'"):
            hash(record)
    else:
        assert hash(record) == hash(make())
    with pytest.raises(AttributeError, match=f"^cannot assign to field '{field}'$"):
        setattr(record, field, 0)
    with pytest.raises(AttributeError, match="^cannot assign to field 'other'$"):
        record.other = 0
    with pytest.raises(AttributeError, match=f"^cannot delete field '{field}'$"):
        delattr(record, field)
    assert repr(record) == text


@pytest.mark.parametrize("make, field, text", FROZEN, ids=IDS)
@pytest.mark.parametrize("trip", ROUND_TRIPS.values(), ids=ROUND_TRIPS)
def test_a_frozen_record_survives_copy_and_pickle(make, field, text, trip):
    record = make()
    twin = trip(record)
    assert type(twin) is type(record)
    assert twin == record and repr(twin) == text
    with pytest.raises(AttributeError):
        setattr(twin, field, 0)


def test_records_of_different_classes_are_never_equal():
    assert DiffPlusC(1) != SumPlusC(1)
    assert DiffPlusC(1).__eq__(SumPlusC(1)) is NotImplemented
    assert Prime(7) != 7
    assert Counterexample(1, 2, 3, 4) != (1, 2, 3, 4, "")
    assert DiffPlusC(1) != DiffPlusC(2)
    assert len({DiffPlusC(1), DiffPlusC(1), SumPlusC(1), EvenPowerPlusC(1, 1)}) == 3


def test_a_residue_matrix_is_equal_only_to_itself():
    m = build_matrix(DiffPlusC(0), 5, 2)
    assert repr(m) == ("ResidueMatrix(order=2, entries=((0, 1), (1, 0)), "
                       f"prime={_P5}, formula=DiffPlusC(c=0))")
    assert m == m and m != build_matrix(DiffPlusC(0), 5, 2)
    assert hash(m) == object.__hash__(m)
    with pytest.raises(AttributeError, match="^cannot assign to field 'order'$"):
        m.order = 3
    with pytest.raises(AttributeError, match="^cannot delete field 'entries'$"):
        del m.entries
    for name, trip in ROUND_TRIPS.items():
        twin = trip(m)
        assert type(twin) is ResidueMatrix and twin is not m, name
        assert (twin.order, twin.prime, twin.formula) == (m.order, m.prime, m.formula), name
        assert twin.entries == m.entries and repr(twin) == repr(m), name


def test_a_theorem_report_is_mutable_and_unhashable():
    make = lambda: TheoremReport("T3_1", Prime(5), 3, [Counterexample(1, 2, 3, 4)], ["n"])
    report = make()
    assert repr(report) == (f"TheoremReport(claim='T3_1', prime={_P5}, cases_checked=3, "
                            "counterexamples=[Counterexample(n=1, c=2, expected=3, actual=4, "
                            "detail='')], notes=['n'])")
    assert report == make() and report != TheoremReport("T3_1", Prime(5), 3)
    with pytest.raises(TypeError, match="unhashable type: 'TheoremReport'"):
        hash(report)
    for name, trip in ROUND_TRIPS.items():
        assert trip(report) == report, name
    deep = copy.deepcopy(report)
    assert deep.counterexamples is not report.counterexamples
    report.cases_checked = 4
    assert report != make() and report.cases_checked == 4
    del report.notes
    with pytest.raises(AttributeError):
        report.notes
    # each report gets its own empty lists
    a, b = TheoremReport("T3_1", Prime(5), 3), TheoremReport("T3_1", Prime(5), 3)
    assert a.counterexamples == [] and a.notes == [] and a.passed
    assert a.counterexamples is not b.counterexamples and a.notes is not b.notes
    assert TheoremReport(claim="x", prime=Prime(5), cases_checked=0, notes=["y"]).notes == ["y"]


@pytest.mark.parametrize("make, error, message", [
    (lambda: Prime(4), ValueError, "modulus must be prime, got 4"),
    (lambda: Prime(2), ValueError, "modulus must be an odd prime, got 2"),
    (lambda: Prime(True), ValueError, "modulus must be prime, got 1"),
    (lambda: Prime(7.0), TypeError, "modulus must be an integer, got float"),
    (lambda: Prime("7"), TypeError, "modulus must be an integer, got str"),
    (lambda: EvenPowerPlusC(0, 1), ValueError, "t must be a positive integer, got 0"),
    (lambda: ColorScheme(zero=(1, 2)), ValueError, "not an RGB triple: (1, 2)"),
    (lambda: ColorScheme(zero=(1, 2, 256)), ValueError, "not an RGB triple: (1, 2, 256)"),
    (lambda: ColorScheme(positive=(1, 2, 3.0)), TypeError, "color component must be an integer, got float"),
    (lambda: ColorScheme((1, 2, 3), (1, 2, 3)), ValueError, "scheme colors must be pairwise distinct"),
    (lambda: ResidueMatrix(DiffPlusC(0), Prime(5), 0), ValueError, "matrix order must be >= 1, got 0"),
    (lambda: ResidueMatrix(DiffPlusC(0), 9, 1), ValueError, "modulus must be prime, got 9"),
    (lambda: DeterminantTable("diff", 5, (1, 1), (0, 0), 1), TypeError,
     "DeterminantTable.__init__() takes from 3 to 5 positional arguments but 6 were given"),
    (lambda: DiffPlusC(), TypeError,
     "DiffPlusC.__init__() missing 1 required positional argument: 'c'"),
    (lambda: SumPlusC(1, 2), TypeError,
     "SumPlusC.__init__() takes 2 positional arguments but 3 were given"),
    (lambda: CubeDiffPlusOne(1), TypeError,
     "CubeDiffPlusOne.__init__() takes 1 positional argument but 2 were given"),
    (lambda: Prime(7, mod3=1), TypeError, "Prime.__init__() got an unexpected keyword argument 'mod3'"),
    (lambda: Counterexample(1, 2, 3), TypeError,
     "Counterexample.__init__() missing 1 required positional argument: 'actual'"),
    (lambda: TheoremReport("x", Prime(5)), TypeError,
     "TheoremReport.__init__() missing 1 required positional argument: 'cases_checked'"),
])
def test_each_constructor_check_keeps_its_error(make, error, message):
    with pytest.raises(error) as info:
        make()
    assert type(info.value) is error
    assert (str(info.value) if error is not KeyError else str(info.value.args[0])) == message


def test_keyword_arguments_and_defaults_are_kept():
    assert Prime(value=11) == Prime(11)
    assert DiffPlusC(c=3) == DiffPlusC(3) and SumPlusC(c=3) == SumPlusC(3)
    assert EvenPowerPlusC(c=1, t=2) == EvenPowerPlusC(2, 1)
    assert ColorScheme(negative=(1, 2, 3)).zero == (59, 117, 196)
    assert Counterexample(n=1, c=2, expected=3, actual=4, detail="d").detail == "d"
    table = generate_table("diff", 5, (1, 2), (0, 1))
    again = DeterminantTable(family="diff", prime=Prime(5), n_range=(1, 2), c_range=(0, 1),
                             t=1, extended=False)
    assert again == table
    # orders 1..p and shifts 0..2p - 1, with t = 1
    assert DeterminantTable("diff", 5) == DeterminantTable("diff", 5, (1, 5), (0, 9), t=1)
