"""The library's five frozen records: CanonicalKey, RelationGenerator,
SmoothingGraph, SumWitness and SweepResult.

Each is built from all of its fields by position or by keyword, prints as
its fields, cannot be changed and pickles.  Each compares and hashes as the
tuple of its fields, and equals only a record of its own class.
"""

import pickle

import pytest

from chordcalc import (
    CanonicalKey,
    ModuleElement,
    RelationGenerator,
    SmoothingGraph,
    SumWitness,
)
from chordcalc.verify import SweepResult

KEY = CanonicalKey("double", ((1, 1), ()))
KEY_TEXT = "CanonicalKey(kind='double', payload=((1, 1), ()))"
SUM = CanonicalKey("framed", ((1, 0), (1, 0)))
SUM_TEXT = "CanonicalKey(kind='framed', payload=((1, 0), (1, 0)))"

# (class, field names, field values, repr)
RECORDS = {
    "CanonicalKey": (CanonicalKey, ("kind", "payload"), ("double", ((1, 1), ())), KEY_TEXT),
    "RelationGenerator": (
        RelationGenerator,
        (
            "element",
            "base",
            "moving_chord",
            "occurrence",
            "target_chord",
            "placements",
            "signs",
            "slide_pairs",
        ),
        (ModuleElement.single(KEY, 2), KEY, 1, 0, 2, (KEY,) * 4, (1, -1, 1, -1), ((KEY, KEY),)),
        f"RelationGenerator(element=ModuleElement('double', 2*[((1, 1), ())]), base={KEY_TEXT}, "
        f"moving_chord=1, occurrence=0, target_chord=2, placements=({KEY_TEXT}, {KEY_TEXT}, "
        f"{KEY_TEXT}, {KEY_TEXT}), signs=(1, -1, 1, -1), slide_pairs=(({KEY_TEXT}, {KEY_TEXT}),))",
    ),
    "SmoothingGraph": (
        SmoothingGraph,
        ("node_count", "gluings", "free_loops", "free_ends"),
        (4, ((0, 3), (2, 1)), 0, (0, 1, 2, 3)),
        "SmoothingGraph(node_count=4, gluings=((0, 3), (2, 1)), free_loops=0, "
        "free_ends=(0, 1, 2, 3))",
    ),
    "SumWitness": (
        SumWitness,
        ("d1", "d2", "cuts_a", "cuts_b", "sum_a", "sum_b", "w_a", "w_b", "w_values"),
        (SUM, SUM, (0, 0), (0, 1), SUM, SUM, 8, 24, (8, 24)),
        f"SumWitness(d1={SUM_TEXT}, d2={SUM_TEXT}, cuts_a=(0, 0), cuts_b=(0, 1), "
        f"sum_a={SUM_TEXT}, sum_b={SUM_TEXT}, w_a=8, w_b=24, w_values=(8, 24))",
    ),
    "SweepResult": (
        SweepResult,
        ("description", "checked", "failures"),
        ("w-kill double n=2", 3, ()),
        "SweepResult(description='w-kill double n=2', checked=3, failures=())",
    ),
}


def _built(name):
    """The record ``name`` built twice: by position, then by keyword."""
    cls, names, values, _ = RECORDS[name]
    return cls(*values), cls(**dict(zip(names, values)))


@pytest.mark.parametrize("name", RECORDS)
def test_a_record_prints_its_fields(name):
    text = RECORDS[name][3]
    for record in _built(name):
        assert repr(record) == text


@pytest.mark.parametrize("name", RECORDS)
def test_a_record_takes_each_field_once(name):
    cls, names, values, _ = RECORDS[name]
    fields = dict(zip(names, values))
    for call in (
        lambda: cls(*values, None),
        lambda: cls(*values[:1]),
        lambda: cls(*values[:-1]),
        lambda: cls(*values, **{names[0]: values[0]}),
        lambda: cls(**fields, other=None),
    ):
        with pytest.raises(TypeError):
            call()


@pytest.mark.parametrize("name", RECORDS)
def test_equal_records_are_equal_and_hash_equal_but_equal_no_tuple(name):
    record, again = _built(name)
    values = RECORDS[name][2]
    assert record is not again
    assert record == again and not record != again
    assert hash(record) == hash(again)
    assert {record: 1}[again] == 1
    assert record != values and values != record
    assert {values: 1}.get(record) is None


def test_records_of_two_classes_differ():
    generator = _built("RelationGenerator")[0]
    assert generator != KEY and KEY != generator
    assert _built("SumWitness")[0] != _built("SweepResult")[0]


@pytest.mark.parametrize("name", RECORDS)
def test_a_record_cannot_be_changed(name):
    record = _built(name)[0]
    names, values = RECORDS[name][1:3]
    for attr in (*names, "other"):
        with pytest.raises(AttributeError):
            setattr(record, attr, None)
        with pytest.raises(AttributeError):
            delattr(record, attr)
    assert tuple(getattr(record, attr) for attr in names) == values
    assert not hasattr(record, "other")


@pytest.mark.parametrize("name", RECORDS)
def test_a_record_pickles(name):
    cls, text = RECORDS[name][0], RECORDS[name][3]
    record = _built(name)[0]
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(record, protocol))
        assert type(back) is cls and repr(back) == text
        assert back == record


def test_a_module_element_pickles_at_every_protocol():
    element = ModuleElement("double", [(KEY, 2), (CanonicalKey("double", ((), (1, 1))), -1)])
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(element, protocol))
        assert type(back) is ModuleElement and back == element and repr(back) == repr(element)


def test_a_tampered_module_element_pickle_is_rebuilt_through_the_check():
    # an element is rebuilt by its public constructor, as a key is: a
    # coefficient changed to 0 is dropped, one changed to a str is refused
    data = pickle.dumps(ModuleElement.single(KEY, 2), 2)
    assert data.count(b"K\x02") == 1
    back = pickle.loads(data.replace(b"K\x02", b"K\x00"))
    assert back.is_zero() and back == ModuleElement.zero("double")
    with pytest.raises(TypeError, match="^integer coefficients only, got str$"):
        pickle.loads(data.replace(b"K\x02", b"X\x01\x00\x00\x002"))


def test_a_sweep_result_passes_without_failures():
    assert _built("SweepResult")[0].passed
    assert not SweepResult("w-kill double n=2", 3, ((KEY, 1),)).passed


def test_records_match_their_fields_by_position():
    match _built("SumWitness")[0]:
        case SumWitness(d1, d2, cuts_a, cuts_b):
            assert (d1, d2, cuts_a, cuts_b) == (SUM, SUM, (0, 0), (0, 1))
        case _:
            pytest.fail("no match")


def test_keys_order_by_kind_then_payload():
    keys = [
        CanonicalKey("linear", ((1, 0), (1, 0))),
        CanonicalKey("framed", ((1, 1), (1, 1))),
        CanonicalKey("double", ((), (1, 1))),
        CanonicalKey("framed", ((1, 0), (1, 0))),
        CanonicalKey("dlinear", ((1, 1), ())),
        KEY,
    ]
    assert [(k.kind, k.payload) for k in sorted(keys)] == [
        ("dlinear", ((1, 1), ())),
        ("double", ((), (1, 1))),
        ("double", ((1, 1), ())),
        ("framed", ((1, 0), (1, 0))),
        ("framed", ((1, 1), (1, 1))),
        ("linear", ((1, 0), (1, 0))),
    ]
    low, high = keys[3], keys[1]
    assert (low < high, low <= high, low > high, low >= high) == (True, True, False, False)
    assert (high < low, high <= low, high > low, high >= low) == (False, False, True, True)
    assert (low <= low, low >= low, low < low, low > low) == (True, True, False, False)


def test_a_key_does_not_order_against_a_tuple():
    for compare in (
        lambda: KEY < (1,),
        lambda: KEY <= (1,),
        lambda: KEY > (1,),
        lambda: KEY >= (1,),
        lambda: (1,) < KEY,
    ):
        with pytest.raises(TypeError):
            compare()
