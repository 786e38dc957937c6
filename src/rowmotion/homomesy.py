"""Orbit statistics: constant averages, occurrence counts, and the paired
conjecture checks on layers.

Everything is exact; averages are fractions and comparisons are equalities.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .poset import (
    DEFAULT_CAP,
    IdealSet,
    OrbitReport,
    Poset,
    _list_orbits,
    all_orbits,
    bits_of,
)
from .roots import RootLayer

# all_orbits under the name this module exports for orbit listings
orbit_reports = all_orbits


class AverageReport(NamedTuple):
    """Outcome of checking that every orbit has the same average antichain
    size; failures pairs orbit indices with their averages, and
    failure_lengths holds the lengths of those orbits in the same order.
    orbits is the listing the check read."""

    expected: Fraction
    n_orbits: int
    passed: bool
    failures: tuple[tuple[int, Fraction], ...]
    failure_lengths: tuple[int, ...]
    orbits: tuple[OrbitReport, ...]


def verify_constant_average(
    poset: Poset,
    expected: Fraction | None = None,
    cap: int = DEFAULT_CAP,
) -> AverageReport:
    """List the orbits once and check every orbit average equals expected;
    default expectation is n_elements / (max_rank + 1).  An orbit of length
    L passes when its antichain sizes add up to expected * L."""
    if expected is None:
        expected = Fraction(poset.n_elements, poset.max_rank + 1)
    orbits = tuple(all_orbits(poset, cap))
    num, den = expected.numerator, expected.denominator
    failing = tuple((k, orbit) for k, orbit in enumerate(orbits)
                    if sum(orbit.antichain_sizes) * den != num * orbit.length)
    return AverageReport(
        expected, len(orbits), not failing,
        tuple((k, orbit.average_size) for k, orbit in failing),
        tuple(orbit.length for _, orbit in failing),
        orbits,
    )


class OccurrenceTable(NamedTuple):
    """Per-element counts over one orbit: ideal_counts[p] is the number of
    ideals containing p, antichain_counts[p] the number whose antichain
    contains p."""

    orbit_length: int
    ideal_counts: tuple[int, ...]
    antichain_counts: tuple[int, ...]


def occurrence_counts(poset: Poset, orbit: OrbitReport) -> OccurrenceTable:
    """Count one orbit element by element, walking its masks;
    check_conjectures reads the same counts from the orbit listing."""
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


def _listed_occurrences(
    columns: list[int], minima: list[int], cycle: list[int]
) -> OccurrenceTable:
    """occurrence_counts of one orbit of a listing, by popcount.  With S
    the bit set of the orbit's positions, element x lies in
    (columns[x] & S).bit_count() of its ideals and in
    (minima[x] & S).bit_count() of their antichains: the minima are the
    antichains of the images, and an orbit's images are the orbit itself."""
    orbit = _positions(cycle)
    return OccurrenceTable(
        len(cycle),
        tuple([(c & orbit).bit_count() for c in columns]),
        tuple([(c & orbit).bit_count() for c in minima]),
    )


def _positions(cycle: list[int]) -> int:
    """The bit set of a cycle's positions."""
    orbit = 0
    for i in cycle:
        orbit |= 1 << i
    return orbit


class Witness(NamedTuple):
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


class ConjectureReport(NamedTuple):
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
    """Both paired-count checks from one listing of the layer: the ideal
    form, then the antichain form (see the two functions below).

    With L an orbit's length and S the bit set of its positions, S above S
    counts I(p) + I(q) in the column of p stacked above that of its partner
    q, and A(p) + L - A(q) in the minima of p stacked above the complement
    of those of q: both forms hold where every such count is L.  A failing
    orbit is counted element by element to name its witnesses."""
    poset = root_layer.poset
    star = root_layer.star
    masks, columns, minima, cycles = _list_orbits(poset, cap)
    full = (1 << len(masks)) - 1
    pairs = sorted({(min(p, q), max(p, q)) for p, q in enumerate(star)})
    stacked = [columns[p] << len(masks) | columns[q] for p, q in pairs]
    stacked += [minima[p] << len(masks) | full ^ minima[q] for p, q in pairs]
    witnesses = ([], [])
    for k, cycle in enumerate(cycles):
        orbit = _positions(cycle)
        orbit |= orbit << len(masks)
        if (list(map(int.bit_count, map(orbit.__and__, stacked)))
                == [len(cycle)] * len(stacked)):
            continue
        t = _listed_occurrences(columns, minima, cycle)
        seed_bits = IdealSet(poset, masks[cycle[0]]).bit_string()
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
    name = name or root_layer.name
    return tuple(
        ConjectureReport(name, len(cycles), not w, tuple(w))
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
