"""The record classes: value semantics, and a start-up free of the modules
that generated records would import."""

import subprocess
import sys
from pathlib import Path

import pytest

import rowmotion
from rowmotion.constructions import H, K, Chain, OSum, Prod, build
from rowmotion.homomesy import OccurrenceTable, Witness
from rowmotion.poset import IdealSet, InvalidSubset, OrbitReport
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


def test_tuple_records_build_by_position_and_by_keyword():
    check = CheckResult(name="name", passed=True, details="ok")
    assert check == CheckResult("name", True, "ok") == ("name", True, "ok")
    assert (check.name, check.passed, check.details) == ("name", True, "ok")
    assert check.as_dict() == {"name": "name", "passed": True, "details": "ok"}
    profile = SizeProfile(m=1, n=2, p_values=(0, 1, 1), q_values=(0, 0, -1))
    assert profile == SizeProfile(1, 2, (0, 1, 1), (0, 0, -1))
    assert (profile.m, profile.n, profile.p_values, profile.q_values) == (
        1, 2, (0, 1, 1), (0, 0, -1))
    assert hash(profile) == hash((1, 2, (0, 1, 1), (0, 0, -1)))
    table = OccurrenceTable(orbit_length=3, ideal_counts=(2, 1),
                            antichain_counts=(1, 1))
    assert table == OccurrenceTable(3, (2, 1), (1, 1)) == (3, (2, 1), (1, 1))
    assert (table.orbit_length, table.ideal_counts,
            table.antichain_counts) == (3, (2, 1), (1, 1))
    fields = (0, "0101", "a", "b", 3, 2, "ideal counts")
    witness = Witness(orbit_index=0, seed_bits="0101", element_label="a",
                      partner_label="b", lhs=3, rhs=2,
                      identity="ideal counts")
    assert witness == Witness(*fields) == fields
    assert (witness.orbit_index, witness.seed_bits, witness.element_label,
            witness.partner_label, witness.lhs, witness.rhs,
            witness.identity) == fields
    assert hash(witness) == hash(fields)
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
