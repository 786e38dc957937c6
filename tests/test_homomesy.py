"""Orbit statistics, constant averages, and the paired-count checks."""

from fractions import Fraction

import pytest

from rowmotion.constructions import build, Chain, grid_poset
from rowmotion.homomesy import (
    check_conjecture_antichains,
    check_conjecture_ideals,
    check_conjectures,
    occurrence_counts,
    orbit_reports,
    verify_constant_average,
)
from rowmotion.poset import Poset, all_orbits
from rowmotion.roots import layer


def test_average_is_exact_rational():
    reports = orbit_reports(grid_poset(2, 3))
    for o in reports:
        assert isinstance(o.average_size, Fraction)
        assert o.average_size == Fraction(6, 5)


def test_constant_average_default_expectation():
    poset = grid_poset(3, 5)
    rep = verify_constant_average(poset)
    assert rep.passed
    assert rep.expected == Fraction(15, 8)
    assert rep.failures == ()
    assert rep.n_orbits == len(all_orbits(poset))


def test_constant_average_detects_a_violation():
    # claw: one minimum under three maxima; the orbit pairing one top
    # against the other two averages 3/2, not the expected 4/3
    claw = Poset.from_cover_data(
        [("a", 1, "a"), ("b", 2, "b"), ("c", 2, "c"), ("d", 2, "d")],
        [("a", "b"), ("a", "c"), ("a", "d")],
    )
    rep = verify_constant_average(claw)
    assert not rep.passed
    assert rep.expected == Fraction(4, 3)
    assert rep.failures
    orbits = all_orbits(claw)
    assert rep.n_orbits == len(orbits)
    assert rep.failures == tuple(
        (k, o.average_size) for k, o in enumerate(orbits)
        if o.average_size != rep.expected
    )
    for (k, average), length in zip(rep.failures, rep.failure_lengths):
        assert orbits[k].average_size == average != rep.expected
        assert orbits[k].length == length


def test_constant_average_explicit_expectation():
    rep = verify_constant_average(grid_poset(2, 2), expected=Fraction(1, 7))
    assert not rep.passed


def test_occurrence_counts_on_a_chain():
    c = build(Chain(2))
    orbit = all_orbits(c)[0]
    table = occurrence_counts(c, orbit)
    assert table.orbit_length == 3
    # orbit: empty -> {0} -> {0,1} -> empty
    assert table.ideal_counts == (2, 1)
    assert table.antichain_counts == (1, 1)


@pytest.mark.parametrize("family,rank,pivot", [
    ("A", 4, 2), ("B", 3, 2), ("C", 3, 3), ("D", 4, 1),
    ("F", 4, 4), ("G", 2, 2), ("E", 6, 4),
])
def test_paired_counts_on_layers(family, rank, pivot):
    lay = layer(family, rank, pivot)
    ideals = check_conjecture_ideals(lay)
    antichains = check_conjecture_antichains(lay)
    assert ideals.passed and not ideals.witnesses
    assert antichains.passed and not antichains.witnesses
    assert ideals.n_orbits == antichains.n_orbits > 0


def test_conjecture_reports_carry_the_entry_name():
    lay = layer("A", 3, 1)
    rep = check_conjecture_ideals(lay)
    assert rep.entry_name == "layer(A3,1)"


def test_witness_dicts_are_serializable():
    from rowmotion.homomesy import Witness

    w = Witness(0, "0101", "a", "b", 3, 2, "ideal counts")
    d = w.as_dict()
    assert d["element"] == "a" and d["partner"] == "b"
    assert d["lhs"] == 3 and d["rhs"] == 2


COEFFICIENT_ONE_SYSTEMS = [
    *(("A", rank) for rank in range(1, 11)),
    *(("B", rank) for rank in range(2, 11)),
    *(("C", rank) for rank in range(2, 11)),
    *(("D", rank) for rank in range(3, 11)),
    ("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2),
]


def test_every_layer_up_to_rank_10_is_homomesic():
    # the pivot layers of every irreducible system of rank at most 10
    n_layers = n_large = n_elements = 0
    for family, rank in COEFFICIENT_ONE_SYSTEMS:
        for pivot in range(1, rank + 1):
            lay = layer(family, rank, pivot)
            poset = lay.poset
            rep = verify_constant_average(poset)
            assert rep.passed, lay.name
            assert rep.expected == Fraction(poset.n_elements,
                                            poset.max_rank + 1)
            assert all(r.passed for r in check_conjectures(lay)), lay.name
            n_layers += 1
            n_large += poset.n_elements > 30
            n_elements += poset.n_elements
    assert (n_layers, n_large, n_elements) == (242, 56, 5117)
