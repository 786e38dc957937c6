"""Walker references for the bit-sliced orbit engine.

walked_orbits lists the orbits by walking them one at a time, one
rowmotion step per ideal; poset.all_orbits reads the same listing from one
bit-sliced step.  The other functions count the walked orbits with
rowmotion.homomesy.occurrence_counts.  The checkers in rowmotion.homomesy
and poset.operator_order read the counters of poset.orbit_sums instead, so
the two agree only if both are right.
"""

import math
from fractions import Fraction

from rowmotion.homomesy import (
    ANTICHAIN_IDENTITY,
    IDEAL_IDENTITY,
    AverageReport,
    ConjectureReport,
    Witness,
    occurrence_counts,
)
from rowmotion.poset import OrbitReport, ideal_masks


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
