"""Orbit statistics: constant averages, occurrence counts, and the paired
conjecture checks on layers.

Everything is exact; averages are fractions and comparisons are equalities.
"""

from __future__ import annotations

from fractions import Fraction

from ._record import TupleRecord
from .poset import (
    DEFAULT_CAP,
    IdealSet,
    LaneCounts,
    OrbitReport,
    Poset,
    all_orbits,
    bits_of,
    list_orbits,
)
from .roots import RootLayer

# all_orbits under the name this module exports for orbit listings
orbit_reports = all_orbits


class AverageReport(TupleRecord):
    """Outcome of checking that every orbit has the same average antichain
    size; failures pairs orbit indices with their averages, and
    failure_lengths holds the lengths of those orbits in the same order.
    orbits is the listing the check read."""

    __slots__ = ()
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


class OccurrenceTable(TupleRecord):
    """Per-element counts over one orbit.  ideal_counts[p] is the number of
    ideals containing p, antichain_counts[p] the number whose antichain
    contains p."""

    __slots__ = ()
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


def _lane_occurrences(lanes: LaneCounts, r: int) -> OccurrenceTable:
    """occurrence_counts of orbit r of a listing, read from lane r of its
    LaneCounts."""
    start, lane = lanes.starts[r], (1 << lanes.widths[r]) - 1
    return OccurrenceTable(
        lanes.lengths >> start & lane,
        tuple([x >> start & lane for x in lanes.ideal_counts]),
        tuple([x >> start & lane for x in lanes.antichain_counts]),
    )


class Witness(TupleRecord):
    """A concrete failure of one of the paired-count identities."""

    __slots__ = ()
    orbit_index: int
    seed_bits: str
    element_label: str
    partner_label: str
    lhs: int
    rhs: int
    identity: str

    def as_dict(self) -> dict:
        """The fields by name, the labels named element and partner."""
        return dict(zip(("orbit_index", "seed_bits", "element", "partner",
                         "lhs", "rhs", "identity"), self))


class ConjectureReport(TupleRecord):
    __slots__ = ()
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

    Listing.lane_counts gives every orbit's counts at once, one bit lane
    per orbit.  With L an orbit's length, the ideal form holds where
    I(p) + I(q) is L for every element p and its partner q, and the
    antichain form where A(p) is A(q): summed or compared lane by lane,
    each pair is one integer compare for every orbit.  The lanes where a
    pair differs name the failing orbits, and only their lanes are read
    element by element to name their witnesses."""
    poset = root_layer.poset
    star = root_layer.star
    listing = list_orbits(poset, cap)
    lanes = listing.lane_counts(poset)
    ideal, antichain, lengths, _, _ = lanes
    differ = 0
    for p, q in {(min(p, q), max(p, q)) for p, q in enumerate(star)}:
        differ |= (ideal[p] + ideal[q]) ^ lengths | antichain[p] ^ antichain[q]
    witnesses = ([], [])
    for k in lanes.orbits_in(differ):
        t = _lane_occurrences(lanes, k)
        # orbit k's seed starts it, after the orbits before it
        seed = listing.masks[sum(listing.lengths[:k])]
        seed_bits = IdealSet(poset, seed).bit_string()
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
        ConjectureReport(name, len(listing.lengths), not w, tuple(w))
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
