"""Orbit statistics: constant averages, occurrence counts, and the paired
conjecture checks on layers.

Everything is exact; averages are fractions and comparisons are equalities.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .poset import (
    DEFAULT_CAP,
    IdealSet,
    OrbitReport,
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
    antichain sizes add up to expected * L; only a failing check lists the
    orbits, to name the failing ones."""
    if expected is None:
        expected = Fraction(poset.n_elements, poset.max_rank + 1)
    sums = orbit_sums(poset, cap)
    failing = ()
    if sums.mismatches(sums.antichain_sizes(),
                       lambda length: expected * length):
        failing = tuple(
            (k, orbit) for k, orbit in enumerate(all_orbits(poset, cap))
            if orbit.average_size != expected)
        if not failing:
            raise RuntimeError("the orbit listing and the orbit sums disagree")
    return AverageReport(
        expected, sums.n_orbits, not failing,
        tuple((k, orbit.average_size) for k, orbit in failing),
        tuple(orbit.length for _, orbit in failing),
    )


@dataclass(frozen=True)
class OccurrenceTable:
    """Per-element counts over one orbit: ideal_counts[p] is the number of
    ideals containing p, antichain_counts[p] the number whose antichain
    contains p."""

    orbit_length: int
    ideal_counts: tuple[int, ...]
    antichain_counts: tuple[int, ...]


def occurrence_counts(poset: Poset, orbit: OrbitReport) -> OccurrenceTable:
    """Count one orbit element by element: the counters of orbit_sums for
    that orbit, which check_conjectures reads to name failing orbits."""
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


def check_conjectures(
    root_layer: RootLayer,
    cap: int = DEFAULT_CAP,
    name: str = "",
) -> tuple[ConjectureReport, ConjectureReport]:
    """Both paired-count checks from one walk of the layer: the ideal form,
    then the antichain form (see the two functions below).  Only a failing
    check lists the orbits, to name them with their occurrence counts."""
    poset = root_layer.poset
    star = root_layer.star
    sums = orbit_sums(poset, cap)
    ideals, antichains = sums.ideals, sums.antichains
    failing = (
        any(sums.mismatches(add_counters(ideals[p], ideals[q]),
                            lambda length: length)
            for p, q in enumerate(star)),
        any(differing_columns(antichains[p], antichains[q])
            for p, q in enumerate(star)),
    )
    witnesses = ([], [])
    if any(failing):
        for k, orbit in enumerate(all_orbits(poset, cap)):
            t = occurrence_counts(poset, orbit)
            seed_bits = IdealSet(poset, orbit.masks[0]).bit_string()
            for p, q in enumerate(star):
                for found, identity, lhs, rhs in (
                    (witnesses[0], IDEAL_IDENTITY,
                     t.ideal_counts[p] + t.ideal_counts[q], t.orbit_length),
                    (witnesses[1], ANTICHAIN_IDENTITY,
                     t.antichain_counts[p], t.antichain_counts[q]),
                ):
                    if lhs != rhs:
                        found.append(Witness(
                            k, seed_bits, poset.labels[p], poset.labels[q],
                            lhs, rhs, identity,
                        ))
        if tuple(map(bool, witnesses)) != failing:
            raise RuntimeError("the orbit listing and the orbit sums disagree")
    name = name or root_layer.name
    return tuple(
        ConjectureReport(name, sums.n_orbits, not w, tuple(w))
        for w in witnesses
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
