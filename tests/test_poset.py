"""Core poset mechanics: masks, ideals, antichains, the reverse operator."""

import math
from itertools import combinations

import pytest

from rowmotion.constructions import (
    H,
    J,
    Chain,
    DUnion,
    OSum,
    Prod,
    build,
    grid_poset,
    k_product_poset,
)
from rowmotion.poset import (
    CapExceeded,
    InvalidSubset,
    NotGraded,
    OrbitReport,
    Poset,
    all_orbits,
    antichain_of_ideal,
    bits_of,
    enumerate_ideals,
    ideal_masks,
    ideal_of_antichain,
    operator_order,
    orbit_of,
    rowmotion_antichain,
    rowmotion_ideal,
)
from rowmotion.roots import layer


def test_bits_of_enumerates_set_bits_ascending():
    assert list(bits_of(0)) == []
    assert list(bits_of(0b1011)) == [0, 1, 3]
    assert list(bits_of(1 << 40)) == [40]


def test_chain_shape():
    c = build(Chain(4))
    assert c.n_elements == 4
    assert c.max_rank == 4
    assert c.rank == (1, 2, 3, 4)
    assert c.full_mask == 0b1111
    for i in range(4):
        for j in range(4):
            assert c.le(i, j) == (i <= j)


def test_from_cover_data_rejects_rank_jump():
    # pentagon: a < b < e and a < c < d < e; whatever rank e gets, one of
    # the two covers into it climbs more than one level
    elements = [("a", 1, "a"), ("b", 2, "b"), ("c", 2, "c"),
                ("d", 3, "d"), ("e", 4, "e")]
    covers = [("a", "b"), ("b", "e"), ("a", "c"), ("c", "d"), ("d", "e")]
    with pytest.raises(NotGraded):
        Poset.from_cover_data(elements, covers)


def test_from_cover_data_rejects_short_maximal():
    # maximal element stuck below the top rank
    elements = [("a", 1, "a"), ("b", 2, "b"), ("c", 1, "c")]
    with pytest.raises(NotGraded):
        Poset.from_cover_data(elements, [("a", "b")])


def test_from_cover_data_rejects_ranks_below_one():
    with pytest.raises(NotGraded, match="^ranks must start at 1$"):
        Poset.from_cover_data([("a", 0, "a"), ("b", 1, "b")], [("a", "b")])


def test_from_cover_data_rejects_a_minimal_element_above_rank_one():
    elements = [("a", 1, "a"), ("b", 2, "b"), ("c", 2, "c")]
    with pytest.raises(NotGraded, match="^minimal element c has rank 2$"):
        Poset.from_cover_data(elements, [("a", "b")])


def test_from_cover_data_rejects_duplicate_keys():
    with pytest.raises(ValueError, match="^duplicate element keys$"):
        Poset.from_cover_data([("a", 1, "a"), ("a", 1, "b")], [])


def test_from_cover_data_accepts_diamond():
    # listed out of rank order, and with a cover given twice
    p = Poset.from_cover_data(
        [("d", 3, "d"), ("a", 1, "a"), ("c", 2, "c"), ("b", 2, "b")],
        [("c", "d"), ("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")],
    )
    assert p.max_rank == 3
    assert p.rank == (1, 2, 2, 3)
    assert p.keys == ("a", "c", "b", "d")
    assert p.index_of("b") == 2
    assert p.covers == ((0, 1), (0, 2), (1, 3), (2, 3))
    assert p.lower == ((), (0,), (0,), (1, 2))
    assert p.upper == ((1, 2), (3,), (3,), ())
    assert p.down == (0b0001, 0b0011, 0b0101, 0b1111)
    assert p.up == (0b1111, 0b1010, 0b1100, 0b1000)


def test_ideal_validation():
    g = grid_poset(2, 2)
    # (1,2) without (1,1) is not down-closed
    bad = 1 << g.index_of((1, 2))
    assert not g.is_ideal_mask(bad)
    with pytest.raises(InvalidSubset):
        g.ideal(bits_of(bad))
    good = bad | (1 << g.index_of((1, 1)))
    assert g.is_ideal_mask(good)
    assert g.ideal(bits_of(good)).mask == good


def test_antichain_validation():
    g = grid_poset(2, 2)
    a = g.index_of((1, 1))
    b = g.index_of((1, 2))
    c = g.index_of((2, 1))
    with pytest.raises(InvalidSubset):
        g.antichain([a, b])
    assert g.antichain([b, c]).mask == (1 << b) | (1 << c)


@pytest.mark.parametrize("poset", [
    grid_poset(3, 4), k_product_poset(2, 3), k_product_poset(3, 2),
    build(H(4)), build(J(Prod(Chain(2), Chain(2)))),
    build(DUnion(Chain(3), Chain(3))),
    build(OSum(Chain(1), DUnion(Chain(1), DUnion(Chain(1), Chain(1))))),
    layer("A", 4, 2).poset, layer("D", 4, 1).poset,
], ids=["grid 3x4", "[2]xK(3)", "[3]xK(2)", "H(4)", "J([2]x[2])",
        "two 3-chains", "claw", "layer(A4,2)", "layer(D4,1)"])
def test_antichain_masks_are_the_pairwise_incomparable_subsets(poset):
    assert poset.n_elements <= 12
    for mask in range(1 << poset.n_elements):
        incomparable = not any(
            poset.le(i, j) or poset.le(j, i)
            for i, j in combinations(bits_of(mask), 2))
        assert poset.is_antichain_mask(mask) == incomparable, mask


def test_closure_minima_maxima():
    g = grid_poset(2, 3)
    top = 1 << g.index_of((2, 3))
    assert g.closure_mask(top) == g.full_mask
    assert g.minima_mask(g.full_mask) == 1 << g.index_of((1, 1))
    ideal = g.ideal_of_keys([(1, 1), (1, 2), (2, 1)])
    got = g.maxima_mask(ideal.mask)
    want = (1 << g.index_of((1, 2))) | (1 << g.index_of((2, 1)))
    assert got == want


def test_ideal_of_keys_requires_down_closed_input():
    g = grid_poset(2, 3)
    with pytest.raises(InvalidSubset):
        g.ideal_of_keys([(1, 2), (2, 1)])  # (1,1) missing


def test_ideal_antichain_bijection():
    g = grid_poset(3, 3)
    for ideal in enumerate_ideals(g):
        a = antichain_of_ideal(ideal)
        assert ideal_of_antichain(a) == ideal


def test_reverse_operator_on_chain_levels():
    c = build(Chain(5))
    for r in range(5):
        assert rowmotion_ideal(c.rank_ideal(r)) == c.rank_ideal(r + 1)
    assert rowmotion_ideal(c.rank_ideal(5)) == c.rank_ideal(0)


def test_reverse_operator_is_a_bijection():
    g = grid_poset(2, 4)
    seen = set()
    for ideal in enumerate_ideals(g):
        seen.add(rowmotion_ideal(ideal).mask)
    assert len(seen) == sum(1 for _ in enumerate_ideals(g))


def test_antichain_transport_matches_ideal_operator():
    g = grid_poset(3, 2)
    for ideal in enumerate_ideals(g):
        a = antichain_of_ideal(ideal)
        want = antichain_of_ideal(rowmotion_ideal(ideal))
        assert rowmotion_antichain(a) == want


def test_orbit_of_returns_to_seed():
    g = grid_poset(2, 3)
    seed = g.rank_ideal(0)
    orbit = orbit_of(seed)
    assert orbit.ideals[0] == seed
    assert orbit.masks == tuple(i.mask for i in orbit.ideals)
    assert len(orbit.ideals) == orbit.length
    assert len(set(orbit.ideals)) == orbit.length
    assert rowmotion_ideal(orbit.ideals[-1]) == seed
    assert orbit.antichain_sizes == tuple(
        len(antichain_of_ideal(i).members) for i in orbit.ideals
    )


def test_ideal_masks_complete_and_deterministic():
    g = grid_poset(2, 2)
    masks = list(ideal_masks(g))
    assert len(masks) == 6  # ideals of a 2x2 grid
    assert len(set(masks)) == 6
    assert all(g.is_ideal_mask(m) for m in masks)
    assert masks == list(ideal_masks(g))


def test_ideal_masks_cap():
    g = grid_poset(4, 4)
    with pytest.raises(CapExceeded):
        list(ideal_masks(g, cap=10))


def test_orbit_walk_respects_cap():
    # the orbit of the empty ideal on chain(5) has length 6
    c = build(Chain(5))
    assert orbit_of(c.ideal(())).length == 6
    with pytest.raises(CapExceeded):
        orbit_of(c.ideal(()), cap=4)


def test_orbit_cap_admits_an_orbit_of_exactly_cap_ideals():
    # chain(2) has one orbit, of length 3: the cap is the largest length kept
    c = build(Chain(2))
    assert OrbitReport.from_seed_mask(c, 0, 3).length == 3
    assert orbit_of(c.ideal(()), cap=3).length == 3
    with pytest.raises(CapExceeded, match=r"^more than 2 ideals in one orbit$"):
        OrbitReport.from_seed_mask(c, 0, 2)


def test_all_orbits_partition_the_ideals():
    g = grid_poset(2, 4)
    orbits = all_orbits(g)
    covered = [i.mask for o in orbits for i in o.ideals]
    assert sorted(covered) == sorted(ideal_masks(g))
    assert len(covered) == len(set(covered))
    # deterministic: each orbit is seeded by its first ideal in
    # enumeration order, so seed positions increase
    position = {m: t for t, m in enumerate(ideal_masks(g))}
    seed_pos = [position[o.ideals[0].mask] for o in orbits]
    assert seed_pos == sorted(seed_pos)
    for o in orbits:
        assert min(position[i.mask] for i in o.ideals) == position[o.ideals[0].mask]


def test_operator_order_is_lcm_of_lengths():
    g = grid_poset(3, 3)
    orbits = all_orbits(g)
    assert operator_order(g) == math.lcm(*(o.length for o in orbits))


def test_bit_string_is_low_bit_first():
    c = build(Chain(4))
    assert c.rank_ideal(2).bit_string() == "1100"


def test_disjoint_union_requires_equal_heights():
    with pytest.raises(NotGraded):
        build(DUnion(Chain(2), Chain(3)))
    p = build(DUnion(Chain(2), Chain(2)))
    assert p.n_elements == 4
    assert p.max_rank == 2
