"""Orbit statistics: constant averages, occurrence counts, and the paired
conjecture checks on layers.

Everything is exact; averages are fractions and comparisons are equalities.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import or_
from typing import Callable

from .poset import (
    DEFAULT_CAP,
    IdealSet,
    OrbitReport,
    OrbitSums,
    Poset,
    add_counters,
    all_orbits,
    bits_of,
    differing_columns,
    orbit_sums,
)
from .roots import RootLayer

# all_orbits under the name this module exports for orbit listings
orbit_reports = all_orbits


@dataclass(frozen=True)
class AverageReport:
    """Outcome of checking that every orbit has the same average antichain
    size; failures pairs orbit indices with their averages, and
    failure_lengths holds the lengths of those orbits in the same order."""

    expected: Fraction
    n_orbits: int
    passed: bool
    failures: tuple[tuple[int, Fraction], ...]
    failure_lengths: tuple[int, ...]


def verify_constant_average(
    poset: Poset,
    expected: Fraction | None = None,
    cap: int = DEFAULT_CAP,
) -> AverageReport:
    """Check every orbit average equals expected; default expectation is
    n_elements / (max_rank + 1).  An orbit of length L passes when its
    antichain sizes add up to expected * L."""
    if expected is None:
        expected = Fraction(poset.n_elements, poset.max_rank + 1)
    sums = orbit_sums(poset, cap)
    total = sums.antichain_sizes()
    failing = tuple(sums.orbits_in(
        sums.mismatches(total, lambda length: expected * length)))
    failures = tuple(
        (index, Fraction(sums.count(total, k), length))
        for index, k, length in failing
    )
    return AverageReport(expected, sums.n_orbits, not failures, failures,
                         tuple(length for _, _, length in failing))


@dataclass(frozen=True)
class OccurrenceTable:
    """Per-element counts over one orbit: ideal_counts[p] is the number of
    ideals containing p, antichain_counts[p] the number whose antichain
    contains p."""

    orbit_length: int
    ideal_counts: tuple[int, ...]
    antichain_counts: tuple[int, ...]


def occurrence_counts(poset: Poset, orbit: OrbitReport) -> OccurrenceTable:
    """Count one walked orbit element by element: the reference for the
    counters of orbit_sums, which the checkers below read instead."""
    n = poset.n_elements
    ideal_counts = [0] * n
    antichain_counts = [0] * n
    for mask in orbit.masks:
        for p in bits_of(mask):
            ideal_counts[p] += 1
        for p in bits_of(poset.maxima_mask(mask)):
            antichain_counts[p] += 1
    return OccurrenceTable(
        orbit.length, tuple(ideal_counts), tuple(antichain_counts)
    )


@dataclass(frozen=True)
class Witness:
    """A concrete failure of one of the paired-count identities."""

    orbit_index: int
    seed_bits: str
    element_label: str
    partner_label: str
    lhs: int
    rhs: int
    identity: str

    def as_dict(self) -> dict:
        return {
            "orbit_index": self.orbit_index,
            "seed_bits": self.seed_bits,
            "element": self.element_label,
            "partner": self.partner_label,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "identity": self.identity,
        }


@dataclass(frozen=True)
class ConjectureReport:
    entry_name: str
    n_orbits: int
    passed: bool
    witnesses: tuple[Witness, ...]


IDEAL_IDENTITY = "ideal occurrences of element plus partner"
ANTICHAIN_IDENTITY = "antichain occurrences of element versus partner"


def _witnesses(
    sums: OrbitSums,
    root_layer: RootLayer,
    failing: list[int],
    values: Callable[[int, int, int], tuple[int, int]],
    identity: str,
) -> tuple[Witness, ...]:
    """Witness every orbit and element p whose leader is among failing[p];
    values(column, p, length) gives the two numbers that differ."""
    poset = root_layer.poset
    star = root_layer.star
    witnesses = []
    for index, k, length in sums.orbits_in(reduce(or_, failing, 0)):
        seed_bits = IdealSet(poset, sums.masks[k]).bit_string()
        for p in range(poset.n_elements):
            if failing[p] >> k & 1:
                lhs, rhs = values(k, p, length)
                witnesses.append(Witness(
                    index, seed_bits, poset.labels[p],
                    poset.labels[star[p]], lhs, rhs, identity,
                ))
    return tuple(witnesses)


def check_conjectures(
    root_layer: RootLayer,
    cap: int = DEFAULT_CAP,
    name: str = "",
) -> tuple[ConjectureReport, ConjectureReport]:
    """Both paired-count checks from one walk of the layer: the ideal form,
    then the antichain form (see the two functions below)."""
    star = root_layer.star
    sums = orbit_sums(root_layer.poset, cap)
    ideals, antichains = sums.ideals, sums.antichains
    paired = [add_counters(c, ideals[q]) for c, q in zip(ideals, star)]
    ideal_witnesses = _witnesses(
        sums, root_layer,
        [sums.mismatches(c, lambda length: length) for c in paired],
        lambda k, p, length: (sums.count(paired[p], k), length),
        IDEAL_IDENTITY,
    )
    antichain_witnesses = _witnesses(
        sums, root_layer,
        [differing_columns(c, antichains[q])
         for c, q in zip(antichains, star)],
        lambda k, p, length: (sums.count(antichains[p], k),
                              sums.count(antichains[star[p]], k)),
        ANTICHAIN_IDENTITY,
    )
    name = name or root_layer.name
    return tuple(
        ConjectureReport(name, sums.n_orbits, not w, w)
        for w in (ideal_witnesses, antichain_witnesses)
    )


def check_conjecture_ideals(
    root_layer: RootLayer,
    cap: int = DEFAULT_CAP,
    name: str = "",
) -> ConjectureReport:
    """In every orbit, an element and its involution partner together appear
    in as many ideals as the orbit is long."""
    return check_conjectures(root_layer, cap, name)[0]


def check_conjecture_antichains(
    root_layer: RootLayer,
    cap: int = DEFAULT_CAP,
    name: str = "",
) -> ConjectureReport:
    """In every orbit, an element and its involution partner appear in equally
    many of the orbit's antichains."""
    return check_conjectures(root_layer, cap, name)[1]
