"""The orbit engine, list_orbits, against the orbit-by-orbit walker.

list_orbits returns a Listing from one bit-sliced step, and all_orbits,
verify_constant_average (through all_orbits), check_conjectures and
operator_order read that Listing: the averages from its antichain sizes
(Listing.sizes, held to the walked orbits' maxima on the catalog, the
listings perfbench times and two edge shapes), the per-orbit counts from
its lane table (Listing.lane_counts), a failing orbit's from its own lane,
and the order from its orbit lengths; a Listing with one orbit split or
two merged gives other orbits.
tests/orbit_oracles.py computes the same Listing, counts and reports by
walking every orbit.  The shapes are those
of the acceptance suite, plus inputs that fail.  ideal_masks is held to the
level-by-level enumeration of the same module, and on posets of at most 14
elements to every down-closed subset, found by brute force; its lookup
tables are held to the ideals its walk meets.  Poset.min_ideals, the ideal
lower bound it refuses by before the walk, is held to the ideal counts of
the same shapes and of random expression trees, and to the exact counts of
grids, chains, their sums, K(r) and H(n).  _columns and _rows, the
listing's two transposes, and _bit_counts, its antichain-size counter, are
held to a transpose read one bit at a time.
"""

import ast
import random
import time
import traceback
from collections import Counter
from fractions import Fraction
from functools import reduce
from itertools import accumulate
from math import comb
from pathlib import Path

import pytest

from orbit_oracles import (
    level_ideal_masks,
    walked_average,
    walked_conjectures,
    walked_listing,
    walked_order,
    walked_orbits,
)
from rowmotion import homomesy, poset as poset_module
from rowmotion.catalog import SPORADIC
from rowmotion.cli import UNBUDGETED_CAP, main
from rowmotion.constructions import (
    H,
    Chain,
    DUnion,
    J,
    K,
    Layer,
    OSum,
    Prod,
    build,
    grid_poset,
    k_product_poset,
    parse_poset_expr,
)
from rowmotion.homomesy import (
    check_conjectures,
    occurrence_counts,
    verify_constant_average,
)
from rowmotion.poset import (
    DEFAULT_CAP,
    CapExceeded,
    LaneCounts,
    NotGraded,
    OrbitReport,
    Poset,
    all_orbits,
    ideal_masks,
    list_orbits,
    operator_order,
)
from rowmotion.roots import FAMILY_RANK_RANGE, layer
from test_acceptance import classical_cases, grid_cases, k_cases

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
    """The per-orbit counts check_conjectures reads from the lanes of the
    listing."""
    lanes = list_orbits(poset).lane_counts(poset)
    return [homomesy._lane_occurrences(lanes, r)
            for r in range(len(lanes.starts))]


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
    # the paired counts decide each orbit; an orbit's lane is read element
    # by element only to name its witnesses
    counted = []
    real = homomesy._lane_occurrences

    def spy(lanes, r):
        counted.append(r)
        return real(lanes, r)

    monkeypatch.setattr(homomesy, "_lane_occurrences", spy)
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


def acceptance_shapes():
    """The posets of the acceptance suite, plus the claw."""
    yield from (grid_poset(m, n) for m, n in grid_cases())
    yield from (k_product_poset(m, n) for m, n in k_cases())
    yield from (layer(*case).poset for case in classical_cases())
    yield from (entry.realize_poset() for entry in SPORADIC)
    yield build(CLAW)


def test_every_part_of_a_listing_matches_the_walker():
    for poset in acceptance_shapes():
        listing = list_orbits(poset)
        walked = walked_listing(poset)
        # every ideal once, orbit after orbit
        assert sorted(listing.masks) == sorted(level_ideal_masks(poset))
        assert sum(listing.lengths) == len(listing.masks)
        assert type(listing.masks) is tuple and type(listing.sizes) is bytes
        assert listing.masks == walked.masks, poset
        assert listing.lengths == walked.lengths, poset
        assert listing.sizes == walked.sizes, poset


def regrouped(lengths):
    """Each way to cut one orbit of lengths in two, then each way to join
    two neighbouring orbits."""
    for r, length in enumerate(lengths):
        for cut in range(1, length):
            yield lengths[:r] + [cut, length - cut] + lengths[r + 1:]
    for r in range(len(lengths) - 1):
        yield lengths[:r] + [lengths[r] + lengths[r + 1]] + lengths[r + 2:]


@pytest.mark.parametrize("poset", [
    grid_poset(2, 2), grid_poset(3, 4), k_product_poset(3, 2),
    SPORADIC[0].realize_layer().poset], ids=["2x2", "3x4", "3xK1", "layer"])
def test_a_listing_with_an_orbit_split_or_merged_gives_other_orbits(
        monkeypatch, poset):
    listing = walked_listing(poset)
    assert list_orbits(poset) == listing
    walked = walked_orbits(poset)
    served = []
    monkeypatch.setattr(poset_module, "list_orbits",
                        lambda poset, cap=DEFAULT_CAP: served[-1])
    served.append(listing)
    assert all_orbits(poset) == walked
    # some orbit can be cut and some two joined
    assert len(listing.lengths) > 1 and max(listing.lengths) > 1
    for lengths in regrouped(listing.lengths):
        served.append(listing._replace(lengths=lengths))
        assert all_orbits(poset) != walked, lengths


def perfbench_listed():
    """The expressions of perfbench/run.py's LISTED, read from its source
    without importing it."""
    source = (Path(__file__).resolve().parent.parent / "perfbench"
              / "run.py").read_text()
    (value,) = [node.value for node in ast.parse(source).body
                if isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == ["LISTED"]]
    return [expr for expr, _ in ast.literal_eval(value)]


def matches_walked_sizes(poset, table, lengths) -> bool:
    """Whether table, cut into orbits of the given lengths, holds the
    maxima counts of the walked orbits, orbit by orbit."""
    walked = [[poset.maxima_mask(m).bit_count() for m in orbit.masks]
              for orbit in walked_orbits(poset)]
    cuts = list(accumulate(lengths, initial=0))
    return walked == [list(table[a:b]) for a, b in zip(cuts, cuts[1:])]


def test_orbit_sizes_match_the_walker():
    listed = perfbench_listed()
    assert len(listed) == 7
    ten = reduce(DUnion, [Chain(1)] * 10)
    shapes = ([entry.realize_poset() for entry in SPORADIC]
              + [build(parse_poset_expr(expr)) for expr in listed]
              + [Poset.empty(), build(ten)])
    rotations_seen = 0
    for poset in shapes:
        listing = list_orbits(poset)
        lengths = listing.lengths
        table = listing.sizes
        assert isinstance(table, bytes) and len(table) == len(listing.masks)
        assert matches_walked_sizes(poset, table, lengths), poset
        # each orbit turned by one place, as its image sizes would read
        cuts = list(accumulate(lengths, initial=0))
        rotated = b"".join(table[b - 1:b] + table[a:b - 1]
                           for a, b in zip(cuts, cuts[1:]))
        if rotated != table:
            rotations_seen += 1
            assert not matches_walked_sizes(poset, rotated, lengths), poset
    assert rotations_seen == len(shapes) - 1  # all but the empty poset
    assert max(list_orbits(build(ten)).sizes) == 10


def test_empty_and_one_element_posets():
    for poset in (Poset.empty(), build(Chain(1))):
        rep = assert_same_average(poset)
        assert rep.passed and rep.n_orbits == 1
        assert operator_order(poset) == walked_order(poset)


def transposed(columns, k):
    """k rows, bit x of row i read from bit i of columns[x], one bit at a
    time."""
    if not columns or not k:
        return [0] * k
    bits = [format(c, "b").zfill(k)[::-1] for c in columns]
    return [int("".join(row)[::-1], 2) for row in zip(*bits)]


def test_rows_transpose_back_like_columns():
    # _columns and _rows compute the same transpose, one output at a time
    # and one input block at a time; sizes straddle the 8-bit blocks, and
    # the widths 56..72 the one-call pack and unpack of up to 64 bits
    rng = random.Random(10)
    for n in (0, 1, 7, 8, 9, 64, 65, 128):
        for k in (1, 7, 8, 9, 56, 63, 64, 65, 72, 12870):
            columns = [rng.getrandbits(k) for _ in range(n)]
            expected = transposed(columns, k)
            assert poset_module._rows(columns, k) == expected, (n, k)
            assert poset_module._columns(columns, k) == expected, (n, k)
    # no rows, two rows, and masks of 200 and 400 bits: one block
    # transpose per byte covers several 8-byte groups of each mask
    for n, k in [(n, k) for n in (0, 1, 7, 8, 9, 64, 65, 128)
                 for k in (0, 2)] + [(n, k) for n in (200, 400)
                                     for k in (0, 1, 2, 7, 9, 64, 65)]:
        columns = [rng.getrandbits(k) for _ in range(n)]
        expected = transposed(columns, k)
        assert poset_module._rows(columns, k) == expected, (n, k)
        assert poset_module._columns(columns, k) == expected, (n, k)


def test_bit_counts_match_the_transposed_popcounts():
    # the counter adds columns into planes; 255 columns of ones give the
    # largest count a byte holds
    rng = random.Random(23)
    for k in (0, 1, 7, 9, 12870):
        for n, columns in (
                (0, []),
                (1, [rng.getrandbits(k)]),
                (9, [rng.getrandbits(k) for _ in range(9)]),
                (64, [rng.getrandbits(k) for _ in range(64)]),
                (255, [(1 << k) - 1] * 255)):
            counts = poset_module._bit_counts(columns, k)
            assert isinstance(counts, bytes)
            assert list(counts) == [r.bit_count()
                                    for r in transposed(columns, k)], (n, k)


def test_a_listing_of_wide_masks_matches_the_walker():
    # 400 elements, so each mask spans 50 bytes, and 20301 ideals
    poset = grid_poset(2, 200)
    orbits = all_orbits(poset)
    assert sum(o.length for o in orbits) == 20301
    assert orbits == walked_orbits(poset)


def test_counters_on_a_chain():
    # orbit of chain(2): empty -> {0} -> {0,1} -> empty
    (table,) = listed_counts(build(Chain(2)))
    assert table.orbit_length == 3
    assert table.ideal_counts == (2, 1)
    assert table.antichain_counts == (1, 1)


def lane_width(length):
    """The least power of two that is at least 8 and at least length."""
    return max(8, 1 << (length - 1).bit_length())


def lane_tables(lanes, lengths):
    """The OccurrenceTable of each orbit, read from its lane of lanes, the
    lane_width bits from bit starts[r] of each int."""
    tables = []
    for r, length in enumerate(lengths):
        start = lanes.starts[r]
        lane = (1 << lane_width(length)) - 1

        def read(x):
            return x >> start & lane

        tables.append(homomesy.OccurrenceTable(
            read(lanes.lengths),
            tuple(map(read, lanes.ideal_counts)),
            tuple(map(read, lanes.antichain_counts))))
    return tables


def lane_shapes():
    """The empty and one-element posets, every catalog entry, then layers
    whose lanes are 16 and 8 bits (orbit lengths 12, 6, 4 and 2), 16 and 8
    bits (10 and 2), and one of 512 bits (one orbit of 301 ideals)."""
    yield from (Poset.empty(), build(Chain(1)))
    yield from (entry.realize_poset() for entry in SPORADIC)
    yield layer("A", 11, 6).poset
    yield layer("D", 6, 1).poset
    yield layer("A", 300, 1).poset


def test_lane_counts_match_the_walker_orbit_by_orbit():
    shapes = list(lane_shapes())
    assert [sorted(set(list_orbits(poset).lengths))
            for poset in shapes[-3:]] == [[2, 4, 6, 12], [2, 10], [301]]
    for poset in shapes:
        listing = list_orbits(poset)
        lanes = listing.lane_counts(poset)
        walked = [occurrence_counts(poset, orbit)
                  for orbit in walked_orbits(poset)]
        assert lane_tables(lanes, listing.lengths) == walked, poset
        # the lanes lie widest first, each at a multiple of its width,
        # and hold every set bit of the table
        widths = [lane_width(length) for length in listing.lengths]
        order = sorted(range(len(widths)), key=lanes.starts.__getitem__)
        assert [widths[r] for r in order] == sorted(widths, reverse=True)
        end = 0
        for r in order:
            assert lanes.starts[r] == end and end % widths[r] == 0
            end += widths[r]
        ideal, antichain, lengths, starts, _ = lanes
        assert lanes.widths == widths
        assert all(x >> end == 0 for x in (lengths, *ideal, *antichain))
        # a layout one position off, either way, reads other counts
        for off in (
                LaneCounts(ideal, antichain, lengths,
                           [s + 1 for s in starts], widths),
                LaneCounts([x << 1 for x in ideal],
                           [x << 1 for x in antichain], lengths << 1,
                           starts, widths)):
            assert lane_tables(off, listing.lengths) != walked, poset


def test_lanes_name_their_orbits():
    poset = layer("A", 11, 6).poset
    listing = list_orbits(poset)
    lanes = listing.lane_counts(poset)
    n_orbits = len(listing.lengths)
    assert lanes.orbits_in(0) == []
    assert lanes.orbits_in(lanes.lengths) == list(range(n_orbits))
    for r, start in enumerate(lanes.starts):
        end = start + lane_width(listing.lengths[r])
        assert lanes.orbits_in(1 << start) == [r]
        assert lanes.orbits_in(1 << end - 1) == [r]
    assert lanes.orbits_in(1 << lanes.starts[-1] | 1 << lanes.starts[0]) \
        == [0, n_orbits - 1]


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
        return [0] * len(cur)

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


def down_closed_subsets(poset):
    """Every down-closed subset of a poset of at most 14 elements, by
    brute force over all subsets, sorted by its indicator string with
    element 0 first."""
    n = poset.n_elements
    lower = [0] * n
    for a, b in poset.covers:
        lower[b] |= 1 << a
    # need[m]: the lower covers of the members of m
    need = [0] * (1 << n)
    for m in range(1, 1 << n):
        low = m & -m
        need[m] = need[m ^ low] | lower[low.bit_length() - 1]
    closed = [m for m in range(1 << n) if not need[m] & ~m]
    return sorted(closed, key=lambda m: format(m, f"0{n}b")[::-1])


def _small_expr(rng, depth=0):
    kind = rng.randrange(0 if depth else 3, 8 if depth < 3 else 3)
    if kind == 0:
        return Chain(rng.randint(1, 6))
    if kind == 1:
        return K(rng.randint(1, 4))
    if kind == 2:
        return H(rng.randint(1, 4))
    if kind == 3:
        return J(_small_expr(rng, depth + 1))
    if kind == 4:
        return Layer(*rng.choice([("A", 4, 2), ("D", 4, 1), ("B", 3, 3)]))
    pair = (Prod, OSum, DUnion)[kind - 5]
    return pair(_small_expr(rng, depth + 1), _small_expr(rng, depth + 1))


def small_random_posets(count, seed):
    """count posets of 1 to 14 elements built from seeded random
    expressions of the grammar."""
    rng = random.Random(seed)
    posets = []
    while len(posets) < count:
        expr = _small_expr(rng)
        try:
            poset = build(expr, cap=200)
        except (CapExceeded, NotGraded):
            continue
        if poset.n_elements <= 14:
            posets.append(poset)
    return posets


SMALL_POSETS = small_random_posets(60, 20261019) + [Poset.empty()]


@pytest.mark.parametrize("poset", SMALL_POSETS)
def test_ideal_masks_match_every_down_closed_subset(poset):
    want = down_closed_subsets(poset)
    k = len(want)
    assert list(ideal_masks(poset, k)) == want
    with pytest.raises(CapExceeded, match=f"^more than {k - 1} ideals$"):
        next(ideal_masks(poset, k - 1))


@pytest.mark.parametrize("poset", SMALL_POSETS)
def test_cover_lists_regroup_the_covers_and_close_to_the_order(poset):
    n = poset.n_elements
    assert len(poset.lower) == len(poset.upper) == n
    for lists in (poset.lower, poset.upper):
        assert all(type(t) is tuple and list(t) == sorted(t) for t in lists)
    assert sorted((i, j) for j in range(n) for i in poset.lower[j]) \
        == list(poset.covers)
    assert sorted((i, j) for i in range(n) for j in poset.upper[i]) \
        == list(poset.covers)
    # le[i][j]: i <= j, the reflexive-transitive closure of the covers
    le = [[i == j for j in range(n)] for i in range(n)]
    for i, j in poset.covers:
        le[i][j] = True
    for k in range(n):
        for i in range(n):
            if le[i][k]:
                for j in range(n):
                    le[i][j] = le[i][j] or le[k][j]
    assert poset.down == tuple(sum(1 << i for i in range(n) if le[i][j])
                               for j in range(n))
    assert poset.up == tuple(sum(1 << j for j in range(n) if le[i][j])
                             for i in range(n))


def _walk_state(frame):
    """(table entries, ideals met) of an ideal_masks frame: the ideals met
    are those recorded and those stacked, two ints each."""
    state = frame.f_locals
    entries = sum(len(table) for _, table, _ in state["grow"])
    return entries, len(state["masks"]) + len(state["stack"]) // 2


def test_ideal_masks_fill_their_tables_as_they_walk():
    # each of 16 maximal elements covers each of 16 minimal ones: 2**16
    # ideals of minimal elements and 2**16 - 1 that hold them all; an
    # eager table for a minimal element would hold 2**15 keys, one per
    # set of the other minimal elements
    fan = reduce(DUnion, [Chain(1)] * 16)
    built = build(OSum(fan, fan))
    bottom = (1 << 16) - 1
    want = list(range(1 << 16)) + [bottom | top << 16
                                   for top in range(1, 1 << 16)]
    want.sort(key=lambda m: format(m, "032b")[::-1])
    assert len(want) == built.min_ideals == 131071
    # the same cover data, built plainly, is bounded only by its widest
    # rank: a cap between 2**16 and the count is refused in the walk
    poset = Poset.from_cover_data(
        zip(built.keys, built.rank, built.labels),
        [(built.keys[i], built.keys[j]) for i, j in built.covers])
    assert poset.min_ideals == 1 << 16
    cap = 100000
    with pytest.raises(CapExceeded) as refused:
        next(ideal_masks(poset, cap))
    frames = [frame for frame, _ in traceback.walk_tb(
        refused.value.__traceback__) if frame.f_code.co_name == "ideal_masks"]
    entries, met = _walk_state(frames[0])
    assert met > cap and entries <= met
    with pytest.raises(CapExceeded):
        next(ideal_masks(poset, len(want) - 1))
    walk = ideal_masks(poset, len(want))
    first = next(walk)
    entries, met = _walk_state(walk.gi_frame)
    assert met == len(want) and entries <= met
    assert [first, *walk] == want


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
        assert poset.min_ideals <= count, poset
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


# -- the ideal lower bound ----------------------------------------------------


def _generic_bound(poset):
    """max(n + 1, 2**w), w the size of the widest rank."""
    width = max(Counter(poset.rank).values(), default=0)
    return max(poset.n_elements + 1, 1 << width)


def _bounded_tree(rng, depth=0):
    """A seeded random expression: Prod, OSum, DUnion or J over chains, K
    and H of a few elements, at most four constructors deep.  The second
    part of a DUnion is redrawn until it is as high as the first, and is
    a chain of that height if ten draws miss."""
    if depth == 3 or depth and rng.random() < 0.4:
        return rng.choice((Chain(rng.randint(1, 4)), K(rng.randint(0, 2)),
                           H(rng.randint(1, 3))))
    node = rng.choice((Prod, OSum, DUnion, J))
    if node is J:
        return J(_bounded_tree(rng, depth + 1))
    left = _bounded_tree(rng, depth + 1)
    right = _bounded_tree(rng, depth + 1)
    if node is DUnion:
        height = build(left, cap=200).max_rank
        for _ in range(10):
            if build(right, cap=200).max_rank == height:
                break
            right = _bounded_tree(rng, depth + 1)
        else:
            right = Chain(height)
    return node(left, right)


def bounded_random_trees(count, seed, most=5000):
    """count (expression, poset, ideal count) triples of _bounded_tree, each
    of at most 200 elements and most ideals, counted by the level oracle,
    which reads no min_ideals."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        try:
            expr = _bounded_tree(rng)
            poset = build(expr, cap=200)
            ideals = len(list(level_ideal_masks(poset, most)))
        except CapExceeded:
            continue
        out.append((expr, poset, ideals))
    return out


def test_min_ideals_is_at_most_the_ideal_count_on_random_trees():
    trees = bounded_random_trees(200, 20261021)
    for expr, poset, count in trees:
        assert _generic_bound(poset) <= poset.min_ideals <= count, expr
    # each constructor's own bound is above the generic one on some tree
    above = {type(expr) for expr, poset, _ in trees
             if poset.min_ideals > _generic_bound(poset)}
    assert above == {Prod, OSum, DUnion}


def test_min_ideals_is_exact_on_grids_chains_and_sums_of_them():
    for m in range(1, 13):
        for n in range(1, 13):
            assert grid_poset(m, n).min_ideals == comb(m + n, m)
    for n in range(0, 41):
        assert build(Chain(n)).min_ideals == n + 1
    for r in range(0, 13):
        poset = build(K(r))
        assert poset.min_ideals == 2 * r + 4 == len(list(ideal_masks(poset)))
    for n in range(1, 11):
        poset = build(H(n))
        assert poset.min_ideals == 1 << n == len(list(ideal_masks(poset)))
    assert Poset.empty().min_ideals == 1
    grid = Prod(Chain(3), Chain(4))
    # a product with the empty poset is empty, its one ideal the empty one
    for expr in (Prod(Chain(3), Chain(0)), Prod(Chain(0), grid)):
        assert build(expr).min_ideals == 1
    for expr in (OSum(grid, Chain(2)), OSum(Chain(2), grid),
                 OSum(OSum(grid, grid), Chain(1)),
                 DUnion(grid, Chain(6)), DUnion(Chain(6), grid),
                 DUnion(grid, Prod(Chain(2), Chain(5))),
                 OSum(DUnion(Chain(2), Chain(2)), grid)):
        poset = build(expr)
        assert poset.min_ideals == len(list(ideal_masks(poset))), expr


def guarded_inputs():
    """The argv of perfbench/run.py's guarded_inputs workload, read from
    its source without importing it."""
    source = (Path(__file__).resolve().parent.parent / "perfbench"
              / "run.py").read_text()
    (fixed,) = [node.value for node in ast.parse(source).body
                if isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == ["FIXED"]]
    (commands,) = [value for key, value in zip(fixed.keys, fixed.values)
                   if ast.literal_eval(key) == "guarded_inputs"]
    return [ast.literal_eval(command.args[0]) for command in commands.elts]


def _spy_refusals(monkeypatch):
    """Replace poset.ideal_masks by a wrapper; the list it returns gets the
    ideal_masks frame of every refusal."""
    frames = []
    walk = poset_module.ideal_masks

    def spy(poset, cap=DEFAULT_CAP):
        try:
            yield from walk(poset, cap)
        except CapExceeded as exc:
            frames.extend(frame for frame, _ in traceback.walk_tb(
                exc.__traceback__) if frame.f_code is walk.__code__)
            raise

    monkeypatch.setattr(poset_module, "ideal_masks", spy)
    return frames


# H(15) has 2**15 = 32768 ideals, its bound
@pytest.mark.parametrize("argv", guarded_inputs() + [["orbits", "H(15)"]],
                         ids=" ".join)
def test_a_guarded_input_is_refused_before_the_walk(capsys, monkeypatch,
                                                    argv):
    frames = _spy_refusals(monkeypatch)
    assert main([*argv, "--no-timing"]) == 3
    assert capsys.readouterr().err == (
        f"cap exceeded: more than {UNBUDGETED_CAP} ideals\n")
    (frame,) = frames
    assert frame.f_locals["poset"].min_ideals > UNBUDGETED_CAP
    assert "grow" not in frame.f_locals and "masks" not in frame.f_locals


def test_a_cap_between_the_bound_and_the_count_is_refused_in_the_walk(
        capsys, monkeypatch):
    poset = layer("E", 6, 3).poset
    count = len(list(ideal_masks(poset)))
    assert poset.min_ideals == 21 and count == 126
    frames = _spy_refusals(monkeypatch)
    for cap in (poset.min_ideals, 100, count - 1):
        assert main(["orbits", "layer(E6,3)", "--cap", str(cap),
                     "--no-timing"]) == 3
        assert capsys.readouterr().err == (
            f"cap exceeded: more than {cap} ideals\n")
        # the walk recorded cap + 1 ideals before the check refused them
        assert len(frames.pop().f_locals["masks"]) == cap + 1
    assert main(["orbits", "layer(E6,3)", "--cap", str(count),
                 "--no-timing"]) == 0
    assert frames == []
