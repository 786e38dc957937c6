"""The bit-sliced orbit engine against the orbit-by-orbit walker.

all_orbits reads the listing from one bit-sliced step, and
verify_constant_average, check_conjectures and operator_order read that
same listing: the averages from its orbits, the per-orbit counts by
popcounts over its columns, the order from its lengths.
tests/orbit_oracles.py computes the same listing, counts and reports by
walking every orbit.  The shapes are those of the acceptance suite, plus
inputs that fail.  ideal_masks is held to the
level-by-level enumeration of the same module, and _rows, the listing's
back-transpose, to _columns, which computes the same transpose.
"""

import random
import time
from fractions import Fraction

import pytest

from orbit_oracles import (
    level_ideal_masks,
    walked_average,
    walked_conjectures,
    walked_order,
    walked_orbits,
)
from rowmotion import homomesy, poset as poset_module
from rowmotion.catalog import SPORADIC
from rowmotion.cli import main
from rowmotion.constructions import (
    Chain,
    DUnion,
    J,
    K,
    OSum,
    Prod,
    build,
    grid_poset,
    k_product_poset,
)
from rowmotion.homomesy import (
    check_conjectures,
    occurrence_counts,
    verify_constant_average,
)
from rowmotion.poset import (
    DEFAULT_CAP,
    CapExceeded,
    OrbitReport,
    Poset,
    all_orbits,
    ideal_masks,
    operator_order,
)
from rowmotion.roots import FAMILY_RANK_RANGE, layer

CLAW = OSum(Chain(1), DUnion(Chain(1), DUnion(Chain(1), Chain(1))))
CLAW_TEXT = "osum(chain(1),dunion(chain(1),dunion(chain(1),chain(1))))"


def classical_layers():
    for family, ranks in (("A", range(1, 8)), ("B", range(2, 8)),
                          ("C", range(2, 8)), ("D", range(4, 8))):
        for rank in ranks:
            for pivot in range(1, rank + 1):
                lay = layer(family, rank, pivot)
                if lay.poset.n_elements <= 30:
                    yield lay


def listed_counts(poset):
    """The per-orbit counts check_conjectures reads from the listing."""
    _, columns, minima, cycles = poset_module._list_orbits(poset, DEFAULT_CAP)
    return [homomesy._listed_occurrences(columns, minima, cycle)
            for cycle in cycles]


def assert_same_average(poset, expected=None):
    walked = walked_orbits(poset)
    assert all_orbits(poset) == walked
    assert listed_counts(poset) == [occurrence_counts(poset, orbit)
                                    for orbit in walked]
    engine = verify_constant_average(poset, expected)
    assert engine == walked_average(poset, expected)
    return engine


def assert_same_layer(root_layer):
    engine = check_conjectures(root_layer)
    assert engine == walked_conjectures(root_layer)
    assert_same_average(root_layer.poset)
    assert operator_order(root_layer.poset) == walked_order(root_layer.poset)
    return engine


def test_catalog_layers():
    for entry in SPORADIC:
        assert_same_layer(entry.realize_layer())


def test_classical_layers_up_to_30_elements():
    layers = list(classical_layers())
    assert len(layers) > 50
    for lay in layers:
        assert_same_layer(lay)


def test_grids_with_m_plus_n_up_to_10():
    for total in range(2, 11):
        for m in range(1, total):
            poset = grid_poset(m, total - m)
            expected = Fraction(m * (total - m), total)
            assert assert_same_average(poset, expected).passed
            assert operator_order(poset) == walked_order(poset) == total


def test_k_products_up_to_5_by_4():
    for m in range(1, 6):
        for n in range(1, 5):
            poset = k_product_poset(m, n)
            expected = Fraction(2 * m * n, m + 2 * n - 1)
            assert assert_same_average(poset, expected).passed
            assert operator_order(poset) == walked_order(poset)


def test_a_failing_average_names_the_same_orbits():
    claw = build(CLAW)
    rep = assert_same_average(claw)
    assert rep.expected == Fraction(4, 3)
    assert [k for k, _ in rep.failures] == [1, 2, 3]
    assert all(average == Fraction(3, 2) for _, average in rep.failures)
    assert operator_order(claw) == walked_order(claw)
    # an expectation no orbit meets fails every orbit, lengths and all,
    # also where expected * length rounds down to the true sum (6 of 6.05)
    # or is negative
    for poset, expected in ((grid_poset(2, 2), Fraction(1, 7)),
                            (grid_poset(2, 3), Fraction(121, 100)),
                            (build(Chain(1)), Fraction(-3, 2))):
        rep = assert_same_average(poset, expected)
        assert len(rep.failures) == rep.n_orbits


def test_an_identity_star_gives_the_same_witnesses():
    lay = layer("A", 3, 2)
    fake = lay._replace(star=tuple(range(lay.poset.n_elements)))
    ideals, antichains = assert_same_layer(fake)
    assert not ideals.passed and antichains.passed
    assert len(ideals.witnesses) == 4


def test_a_shifted_star_gives_the_same_witnesses():
    # p -> p+1 mod n pairs distinct elements, so both forms fail
    lay = layer("A", 3, 2)
    n = lay.poset.n_elements
    fake = lay._replace(star=tuple((p + 1) % n for p in range(n)))
    ideals, antichains = assert_same_layer(fake)
    assert len(ideals.witnesses) == 4 and len(antichains.witnesses) == 2


@pytest.mark.parametrize("family,rank,pivot", [
    ("A", 4, 2), ("D", 4, 1), ("A", 5, 3),
])
def test_swapped_partners_give_the_same_witnesses(family, rank, pivot):
    # swapping the partners of two elements fails some orbits and not
    # others, so an orbit counted over the wrong positions, elements or
    # columns is caught whether it passes or fails
    lay = layer(family, rank, pivot)
    n = lay.poset.n_elements
    partial = 0
    for a in range(n):
        for b in range(a + 1, n):
            star = list(lay.star)
            star[a], star[b] = star[b], star[a]
            fake = lay._replace(star=tuple(star))
            reports = check_conjectures(fake)
            assert reports == walked_conjectures(fake), (a, b)
            partial += any(
                0 < len({w.orbit_index for w in rep.witnesses}) < rep.n_orbits
                for rep in reports)
    assert partial >= n


def test_only_failing_orbits_are_counted_element_by_element(monkeypatch):
    # the paired counts decide each orbit; an orbit is counted element by
    # element only to name its witnesses
    counted = []
    real = homomesy._listed_occurrences

    def spy(columns, minima, cycle):
        counted.append(cycle[0])
        return real(columns, minima, cycle)

    monkeypatch.setattr(homomesy, "_listed_occurrences", spy)
    for entry in SPORADIC[:6]:
        assert all(rep.passed for rep in check_conjectures(
            entry.realize_layer()))
    assert counted == []
    lay = layer("A", 5, 3)
    star = list(lay.star)
    star[0], star[1] = star[1], star[0]
    reports = check_conjectures(lay._replace(star=tuple(star)))
    failing = {w.orbit_index for rep in reports for w in rep.witnesses}
    assert 0 < len(counted) == len(failing) < reports[0].n_orbits


def test_empty_and_one_element_posets():
    for poset in (Poset.empty(), build(Chain(1))):
        rep = assert_same_average(poset)
        assert rep.passed and rep.n_orbits == 1
        assert operator_order(poset) == walked_order(poset)


def test_rows_transpose_back_like_columns():
    # _columns and _rows compute the same transpose, one output at a time
    # and one input block at a time; sizes straddle the 8-bit blocks
    rng = random.Random(10)
    for n in (0, 1, 7, 8, 9, 64, 65, 128):
        for k in (1, 7, 8, 9, 12870):
            columns = [rng.getrandbits(k) for _ in range(n)]
            assert (poset_module._rows(columns, k)
                    == poset_module._columns(columns, k)), (n, k)


def test_counters_on_a_chain():
    # orbit of chain(2): empty -> {0} -> {0,1} -> empty
    (table,) = listed_counts(build(Chain(2)))
    assert table.orbit_length == 3
    assert table.ideal_counts == (2, 1)
    assert table.antichain_counts == (1, 1)


def count_listings(monkeypatch):
    """The posets listed from here on: each listing runs _step once."""
    calls = []
    real = poset_module._step

    def counted(cur, lower, upper, full):
        calls.append(len(cur))
        return real(cur, lower, upper, full)

    monkeypatch.setattr(poset_module, "_step", counted)
    return calls


def test_a_failing_check_lists_its_poset_once(monkeypatch, capsys):
    calls = count_listings(monkeypatch)
    assert not verify_constant_average(build(CLAW)).passed
    assert calls == [4]
    lay = layer("A", 3, 2)
    fake = lay._replace(star=tuple(range(lay.poset.n_elements)))
    assert not check_conjectures(fake)[0].passed
    assert calls == [4, 4]
    # the failing check also gives the command its orbits
    calls.clear()
    assert main(["verify-delta1", CLAW_TEXT, "--format", "json"]) == 1
    assert calls == [4]
    calls.clear()
    assert main(["verify-grid", "3", "4"]) == 0
    assert calls == [12]
    calls.clear()
    assert main(["verify-k", "3", "3"]) == 0
    assert calls == [k_product_poset(3, 3).n_elements]
    capsys.readouterr()


def test_a_cycle_that_misses_its_seed_raises(monkeypatch):
    # a step that sends every ideal to the empty one is no permutation:
    # the walk from the second ideal ends at the first, not at its seed
    def collapse(cur, lower, upper, full):
        return [0] * len(cur), [0] * len(cur)

    monkeypatch.setattr(poset_module, "_step", collapse)
    with pytest.raises(RuntimeError, match="misses its seed"):
        all_orbits(grid_poset(2, 2))


def test_all_orbits_walks_no_orbit(monkeypatch):
    # grid 6x9 has 54 elements and 5005 ideals, neither a multiple of 8
    shapes = [grid_poset(4, 4), grid_poset(6, 9), k_product_poset(3, 3),
              layer("E", 6, 2).poset]
    walked = [walked_orbits(poset) for poset in shapes]

    def refuse(*args, **kwargs):
        raise AssertionError("walked an orbit")

    monkeypatch.setattr(OrbitReport, "from_seed_mask", refuse)
    monkeypatch.setattr(Poset, "rowmotion_ideal_mask", refuse)
    for poset, orbits in zip(shapes, walked):
        assert all_orbits(poset) == orbits


def test_checkers_walk_no_orbit(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("walked an orbit")

    monkeypatch.setattr(OrbitReport, "from_seed_mask", refuse)
    monkeypatch.setattr(Poset, "rowmotion_ideal_mask", refuse)
    monkeypatch.setattr(Poset, "maxima_mask", refuse)
    monkeypatch.setattr(homomesy, "occurrence_counts", refuse)
    lay = layer("D", 5, 2)
    assert verify_constant_average(lay.poset).passed
    assert all(rep.passed for rep in check_conjectures(lay))
    assert operator_order(grid_poset(3, 4)) == 7


def test_conjectures_walk_each_layer_once(monkeypatch, capsys):
    calls = count_listings(monkeypatch)
    assert main(["conjectures", "layer(D5,2)"]) == 0
    assert calls == [layer("D", 5, 2).poset.n_elements]
    capsys.readouterr()


def test_a_long_orbit_is_listed_in_one_step(capsys):
    # chain(2000) has one orbit through all 2001 ideals; stepping every
    # ideal once per step until it closes took several seconds
    start = time.perf_counter()
    assert main(["verify-delta1", "chain(2000)", "--budget",
                 "--cap", "3000"]) == 0
    assert time.perf_counter() - start < 1
    capsys.readouterr()
    assert operator_order(build(Chain(1200))) == 1201


@pytest.mark.parametrize("poset", [grid_poset(3, 4), k_product_poset(3, 3),
                                   build(CLAW), layer("E", 6, 2).poset])
def test_ideal_masks_are_in_lexicographic_order(poset):
    masks = list(ideal_masks(poset))
    n = poset.n_elements
    assert masks == sorted(masks, key=lambda m: [m >> i & 1 for i in range(n)])
    assert len(set(masks)) == len(masks)
    assert all(poset.is_ideal_mask(m) for m in masks)


def test_ideal_masks_refuse_before_yielding():
    masks = ideal_masks(grid_poset(4, 4), cap=69)
    with pytest.raises(CapExceeded, match="more than 69 ideals"):
        next(masks)
    assert len(list(ideal_masks(grid_poset(4, 4), cap=70))) == 70


def test_ideal_masks_refuse_by_element_count():
    # n elements give at least n+1 ideals: the prefixes of the extension
    chain = build(Chain(6))
    with pytest.raises(CapExceeded, match="more than 6 ideals"):
        next(ideal_masks(chain, cap=6))
    assert len(list(ideal_masks(chain, cap=7))) == 7


def catalog_realizations():
    for entry in SPORADIC:
        yield entry.realize_poset()
        if entry.expr is not None:
            yield build(entry.expr)


def layers_up_to_rank_8():
    for family, (low, high) in FAMILY_RANK_RANGE.items():
        for rank in range(low, min(high or 8, 8) + 1):
            for pivot in range(1, rank + 1):
                yield layer(family, rank, pivot).poset


ENUMERATED = {
    "catalog": catalog_realizations,
    "layers": layers_up_to_rank_8,
    "grids": lambda: (grid_poset(m, n) for m in range(1, 12)
                      for n in range(1, 13 - m)),
    "k_products": lambda: (k_product_poset(m, n) for m in range(1, 6)
                           for n in range(1, 5)),
    "chains": lambda: (build(Chain(n)) for n in range(1, 41)),
    "others": lambda: (build(CLAW), build(DUnion(Chain(3), Chain(3))),
                       build(J(Prod(Chain(3), Chain(4))))),
}


def enumeration(enumerate_masks, poset, cap):
    """The masks, or the message of the refusal."""
    try:
        return list(enumerate_masks(poset, cap))
    except CapExceeded as exc:
        return f"CapExceeded: {exc}"


@pytest.mark.parametrize("shapes", sorted(ENUMERATED))
def test_ideal_masks_match_the_level_oracle(shapes):
    posets = list(ENUMERATED[shapes]())
    assert len(posets) >= 3
    for poset in posets:
        count = len(enumeration(level_ideal_masks, poset, DEFAULT_CAP))
        n = poset.n_elements
        for cap in (DEFAULT_CAP, count - 1, count, n, n + 1, 1):
            want = enumeration(level_ideal_masks, poset, cap)
            assert enumeration(ideal_masks, poset, cap) == want, (poset, cap)


def test_ideal_masks_work_grows_with_the_ideals():
    # a chain's prefixes are its only ideals; enumerating the partial
    # ideals of every prefix instead would make about n*n/2 masks of up to
    # n bits here
    chain = build(Chain(8000))
    start = time.perf_counter()
    masks = list(ideal_masks(chain, cap=8001))
    assert time.perf_counter() - start < 1
    assert len(masks) == 8001
    assert masks[0] == 0 and masks[1] == 1 and masks[-1] == chain.full_mask


def test_ideal_masks_refuse_a_wide_poset_on_the_first_next():
    masks = ideal_masks(build(Prod(Chain(2), K(100))), cap=20000)
    with pytest.raises(CapExceeded, match="^more than 20000 ideals$"):
        next(masks)
