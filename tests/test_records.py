"""The record classes: value semantics, and a start-up free of the modules
that generated records would import."""

import copy
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import rowmotion
from rowmotion.catalog import CatalogEntry, FamilyEntry
from rowmotion.constructions import H, K, Chain, OSum, Prod, build
from rowmotion.homomesy import (
    AverageReport,
    ConjectureReport,
    OccurrenceTable,
    Witness,
)
from rowmotion.poset import (
    IdealSet,
    InvalidSubset,
    LaneCounts,
    Listing,
    OrbitReport,
)
from rowmotion.roots import RootLayer, RootSystem
from rowmotion.verify import CheckResult
from rowmotion.words import SizeProfile, long_sequences


def test_nodes_of_different_types_are_never_equal():
    assert Chain(3) == Chain(3) and hash(Chain(3)) == hash(Chain(3))
    assert Chain(3) != K(3)
    assert Prod(Chain(2), Chain(3)) != OSum(Chain(2), Chain(3))


def test_nodes_of_different_types_build_different_posets():
    posets = [build(Chain(3)), build(K(3)), build(H(3))]
    assert [p.n_elements for p in posets] == [3, 8, 6]


def test_a_node_prints_its_fields():
    assert (repr(Prod(Chain(2), Chain(3)))
            == "Prod(left=Chain(n=2), right=Chain(n=3))")


@pytest.mark.parametrize("record, field", [
    (Chain(3), "n"),
    (Prod(Chain(2), Chain(3)), "left"),
    (CheckResult("name", True, "ok"), "passed"),
])
def test_a_frozen_record_refuses_assignment(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, 4)


# every result tuple of the package, with its fields in order
TUPLE_RECORDS = {
    AverageReport: ("expected", "n_orbits", "passed", "failures",
                    "failure_lengths", "orbits"),
    ConjectureReport: ("entry_name", "n_orbits", "passed", "witnesses"),
    CatalogEntry: ("name", "expr", "layer_family", "layer_rank",
                   "layer_pivot"),
    FamilyEntry: ("name", "description"),
    RootSystem: ("family", "rank", "cartan", "positive_roots"),
    RootLayer: ("family", "rank", "pivot", "poset", "star"),
    Listing: ("masks", "lengths", "sizes"),
    LaneCounts: ("ideal_counts", "antichain_counts", "lengths", "starts",
                 "widths"),
    OccurrenceTable: ("orbit_length", "ideal_counts", "antichain_counts"),
    Witness: ("orbit_index", "seed_bits", "element_label", "partner_label",
              "lhs", "rhs", "identity"),
    CheckResult: ("name", "passed", "details"),
    SizeProfile: ("m", "n", "p_values", "q_values"),
}


@pytest.mark.parametrize("cls", TUPLE_RECORDS, ids=lambda cls: cls.__name__)
def test_a_tuple_record_is_the_tuple_of_its_fields(cls):
    fields = TUPLE_RECORDS[cls]
    values = tuple((name, k) for k, name in enumerate(fields))
    record = cls(*values)
    assert cls._fields == fields
    assert record == cls(**dict(zip(fields, values))) == values
    assert cls(*values[:2], **dict(zip(fields[2:], values[2:]))) == record
    assert hash(record) == hash(values)
    assert type(cls(**dict(zip(fields, values)))) is cls
    assert tuple(getattr(record, name) for name in fields) == values
    assert repr(record) == cls.__name__ + "(" + ", ".join(
        f"{name}={value!r}" for name, value in zip(fields, values)) + ")"
    for args, kwargs in (
            (values[:-1], {}),  # a missing field
            ((), dict(zip(fields[1:], values[1:]))),
            (values + (None,), {}),  # an extra field
            (values, {"nonsense": 1}),  # an unknown keyword
            (values, {fields[0]: 1}),  # a field given twice
            (values[:-1], {fields[0]: 1})):
        with pytest.raises(TypeError):
            cls(*args, **kwargs)
    changed = record._replace(**{fields[-1]: "new"})
    assert type(changed) is cls
    assert changed == values[:-1] + ("new",) and record == values
    with pytest.raises(TypeError):
        record._replace(nonsense=1)
    with pytest.raises(AttributeError):
        setattr(record, fields[0], 1)
    assert not hasattr(record, "__dict__")
    for clone in (copy.copy(record), copy.deepcopy(record),
                  pickle.loads(pickle.dumps(record))):
        assert type(clone) is cls and clone == record


def test_reports_read_as_dicts_under_their_own_keys():
    check = CheckResult("name", True, "ok")
    assert check.as_dict() == {"name": "name", "passed": True, "details": "ok"}
    witness = Witness(0, "0101", "a", "b", 3, 2, "ideal counts")
    assert witness.as_dict() == {
        "orbit_index": 0, "seed_bits": "0101", "element": "a",
        "partner": "b", "lhs": 3, "rhs": 2, "identity": "ideal counts"}


def test_an_ideal_set_still_validates():
    poset = build(Chain(3))
    assert IdealSet(poset, 0b011) == IdealSet(poset, 0b011)
    for bad in (0b010, 0b1000, -1):
        with pytest.raises(InvalidSubset):
            IdealSet(poset, bad)


def test_cached_fields_are_computed_once():
    report = OrbitReport.from_seed_mask(build(Prod(Chain(2), Chain(2))), 0)
    assert report.ideals is report.ideals
    zeros, ones = long_sequences("0101")
    assert zeros.windows is zeros.windows and ones.windows is ones.windows


def test_the_command_line_imports_no_record_generator():
    src = str(Path(rowmotion.__file__).resolve().parent.parent)
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import rowmotion.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code, src],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
