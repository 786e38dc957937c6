"""Walker and enumeration references for the orbit engine, list_orbits.

level_ideal_masks builds the ideals level by level, one prefix of the
linear extension at a time; poset.ideal_masks yields the same masks in the
same order from a depth-first search that visits each ideal once.
walked_orbits lists the orbits by walking them one at a time, one
rowmotion step per ideal, and walked_listing builds the Listing that
poset.list_orbits builds from one bit-sliced step, one mask and one step
at a time.  The other functions check the walked orbits, counting them
with rowmotion.homomesy.occurrence_counts.  poset.all_orbits,
poset.operator_order and the checkers in rowmotion.homomesy read one
Listing instead, and count an orbit by popcounts over its columns, so the
two agree only if both are right.
"""

import math
from fractions import Fraction
from typing import Iterator

from rowmotion.homomesy import (
    ANTICHAIN_IDENTITY,
    IDEAL_IDENTITY,
    AverageReport,
    ConjectureReport,
    Witness,
    occurrence_counts,
)
from rowmotion.poset import (
    DEFAULT_CAP,
    CapExceeded,
    Listing,
    OrbitReport,
    Poset,
    ideal_masks,
)


def level_ideal_masks(poset: Poset, cap: int = DEFAULT_CAP) -> Iterator[int]:
    """All ideals as masks, in lexicographic order of the indicator sequence
    along the linear extension (empty ideal first, full ideal last).

    Built level by level: after element i, the level holds every ideal of
    the first i+1 elements, each ideal s of the level before followed by
    s plus i when everything below i is in s.  The first i+1 elements
    form a down-set, so no level holds more ideals than the last one, and a
    level past the cap raises before any ideal is yielded.  A poset on n
    elements has at least n+1 ideals (the prefixes of the linear
    extension), so n >= cap is refused before the first level.
    """
    if poset.n_elements >= cap:
        raise CapExceeded(f"more than {cap} ideals")
    level = [0]
    for i in range(poset.n_elements):
        bit = 1 << i
        below = poset.down[i] ^ bit
        grown = []
        keep = grown.append
        for s in level:
            keep(s)
            if below & s == below:
                keep(s | bit)
        if len(grown) > cap:
            raise CapExceeded(f"more than {cap} ideals")
        level = grown
    yield from level


def walked_orbits(poset):
    """all_orbits, seed by seed: each ideal not yet seen starts an orbit."""
    seen = set()
    orbits = []
    for mask in ideal_masks(poset):
        if mask not in seen:
            report = OrbitReport.from_seed_mask(poset, mask)
            seen.update(report.masks)
            orbits.append(report)
    return orbits


def walked_listing(poset) -> Listing:
    """list_orbits by walking: each ideal of level_ideal_masks not yet seen
    starts an orbit, walked one rowmotion step at a time, and each ideal's
    antichain size is the popcount of its maxima."""
    seen = set()
    masks = []
    lengths = []
    for seed in level_ideal_masks(poset):
        if seed not in seen:
            orbit = OrbitReport.from_seed_mask(poset, seed).masks
            seen.update(orbit)
            masks += orbit
            lengths.append(len(orbit))
    return Listing(tuple(masks), lengths,
                   bytes(poset.maxima_mask(m).bit_count() for m in masks))


def walked_average(poset, expected=None) -> AverageReport:
    """verify_constant_average, orbit by orbit."""
    if expected is None:
        expected = Fraction(poset.n_elements, poset.max_rank + 1)
    orbits = walked_orbits(poset)
    failing = [(k, o) for k, o in enumerate(orbits)
               if o.average_size != expected]
    return AverageReport(
        expected, len(orbits), not failing,
        tuple((k, o.average_size) for k, o in failing),
        tuple(o.length for _, o in failing),
        tuple(orbits),
    )


def walked_conjectures(root_layer, name=""):
    """check_conjectures, orbit by orbit: (ideal form, antichain form)."""
    poset = root_layer.poset
    star = root_layer.star
    forms = (
        (IDEAL_IDENTITY,
         lambda t, p, q: (t.ideal_counts[p] + t.ideal_counts[q],
                          t.orbit_length)),
        (ANTICHAIN_IDENTITY,
         lambda t, p, q: (t.antichain_counts[p], t.antichain_counts[q])),
    )
    witnesses = ([], [])
    orbits = walked_orbits(poset)
    for k, orbit in enumerate(orbits):
        table = occurrence_counts(poset, orbit)
        for (identity, counts), found in zip(forms, witnesses):
            for p in range(poset.n_elements):
                lhs, rhs = counts(table, p, star[p])
                if lhs != rhs:
                    found.append(Witness(
                        k, orbit.ideals[0].bit_string(), poset.labels[p],
                        poset.labels[star[p]], lhs, rhs, identity,
                    ))
    name = name or root_layer.name
    return tuple(ConjectureReport(name, len(orbits), not w, tuple(w))
                 for w in witnesses)


def walked_order(poset) -> int:
    """operator_order, as the lcm of the walked orbit lengths."""
    return math.lcm(*(o.length for o in walked_orbits(poset)))
