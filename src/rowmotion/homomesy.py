"""Orbit statistics: constant averages, occurrence counts, and the paired
conjecture checks on layers.

Everything is exact; averages are fractions and comparisons are equalities.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .poset import DEFAULT_CAP, OrbitReport, Poset, all_orbits, bits_of
from .roots import RootLayer

# all_orbits under the name this module exports and its checkers call
orbit_reports = all_orbits


@dataclass(frozen=True)
class AverageReport:
    """Outcome of checking that every orbit has the same average antichain
    size, with the orbits walked; failures pairs orbit indices with their
    averages."""

    expected: Fraction
    n_orbits: int
    passed: bool
    failures: tuple[tuple[int, Fraction], ...]
    orbits: tuple[OrbitReport, ...]


def verify_constant_average(
    poset: Poset,
    expected: Fraction | None = None,
    cap: int = DEFAULT_CAP,
) -> AverageReport:
    """Check every orbit average equals expected; default expectation is
    n_elements / (max_rank + 1)."""
    if expected is None:
        expected = Fraction(poset.n_elements, poset.max_rank + 1)
    reports = tuple(orbit_reports(poset, cap))
    failures = tuple(
        (k, r.average_size)
        for k, r in enumerate(reports)
        if r.average_size != expected
    )
    return AverageReport(expected, len(reports), not failures, failures,
                         reports)


@dataclass(frozen=True)
class OccurrenceTable:
    """Per-element counts over one orbit: ideal_counts[p] is the number of
    ideals containing p, antichain_counts[p] the number whose antichain
    contains p."""

    orbit_length: int
    ideal_counts: tuple[int, ...]
    antichain_counts: tuple[int, ...]


def occurrence_counts(poset: Poset, orbit: OrbitReport) -> OccurrenceTable:
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


def _check_pairs(
    root_layer: RootLayer,
    cap: int,
    name: str,
    counts: Callable[[OccurrenceTable, int, int], tuple[int, int]],
    identity: str,
) -> ConjectureReport:
    """Witness every orbit and element p where counts(table, p, star[p])
    gives two different numbers."""
    poset = root_layer.poset
    star = root_layer.star
    reports = orbit_reports(poset, cap)
    witnesses = []
    for k, orbit in enumerate(reports):
        table = occurrence_counts(poset, orbit)
        for p in range(poset.n_elements):
            lhs, rhs = counts(table, p, star[p])
            if lhs != rhs:
                witnesses.append(
                    Witness(
                        k,
                        orbit.ideals[0].bit_string(),
                        poset.labels[p],
                        poset.labels[star[p]],
                        lhs,
                        rhs,
                        identity,
                    )
                )
    return ConjectureReport(
        name or root_layer.name, len(reports), not witnesses, tuple(witnesses)
    )


def check_conjecture_ideals(
    root_layer: RootLayer,
    cap: int = DEFAULT_CAP,
    name: str = "",
) -> ConjectureReport:
    """In every orbit, an element and its involution partner together appear
    in as many ideals as the orbit is long."""
    return _check_pairs(
        root_layer, cap, name,
        lambda t, p, q: (t.ideal_counts[p] + t.ideal_counts[q],
                         t.orbit_length),
        "ideal occurrences of element plus partner",
    )


def check_conjecture_antichains(
    root_layer: RootLayer,
    cap: int = DEFAULT_CAP,
    name: str = "",
) -> ConjectureReport:
    """In every orbit, an element and its involution partner appear in equally
    many of the orbit's antichains."""
    return _check_pairs(
        root_layer, cap, name,
        lambda t, p, q: (t.antichain_counts[p], t.antichain_counts[q]),
        "antichain occurrences of element versus partner",
    )
