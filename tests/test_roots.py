"""Root systems, height-graded layers, and the flip involution."""

import pytest

from rowmotion.constructions import build, grid_poset, K, Chain, H, Prod
from rowmotion.isomorphism import are_isomorphic
from rowmotion.roots import (
    FAMILY_RANK_RANGE,
    cartan_matrix,
    layer,
    root_system,
)

EXPECTED_COUNTS = {
    ("A", 1): 1, ("A", 2): 3, ("A", 3): 6, ("A", 4): 10, ("A", 5): 15,
    ("B", 2): 4, ("B", 3): 9, ("B", 4): 16,
    ("C", 2): 4, ("C", 3): 9, ("C", 4): 16,
    ("D", 3): 6, ("D", 4): 12, ("D", 5): 20,
    ("E", 6): 36, ("E", 7): 63, ("E", 8): 120,
    ("F", 4): 24,
    ("G", 2): 6,
}


@pytest.mark.parametrize("family,rank", sorted(EXPECTED_COUNTS))
def test_positive_root_counts(family, rank):
    rs = root_system(family, rank)
    assert len(rs.positive_roots) == EXPECTED_COUNTS[(family, rank)]


def test_cartan_matrix_spot_checks():
    b3 = cartan_matrix("B", 3)
    c3 = cartan_matrix("C", 3)
    # the two length patterns are transposes of each other
    for i in range(3):
        for j in range(3):
            assert b3[i][j] == c3[j][i]
    assert b3[2][1] == -2
    g2 = cartan_matrix("G", 2)
    assert g2[0][1] == -3 and g2[1][0] == -1
    a2 = cartan_matrix("A", 2)
    assert a2 == ((2, -1), (-1, 2))


def test_cartan_rows_have_diagonal_two():
    for family, rank in EXPECTED_COUNTS:
        m = cartan_matrix(family, rank)
        assert all(m[i][i] == 2 for i in range(rank))


def test_highest_root_heights():
    # height of the highest root is one less than the Coxeter number
    for (family, rank), h in [
        (("A", 3), 4), (("B", 3), 6), (("C", 3), 6), (("D", 4), 6),
        (("E", 6), 12), (("F", 4), 12), (("G", 2), 6),
    ]:
        rs = root_system(family, rank)
        assert max(sum(r) for r in rs.positive_roots) == h - 1


def test_invalid_families_rejected():
    with pytest.raises(ValueError):
        root_system("E", 9)
    with pytest.raises(ValueError):
        root_system("F", 5)
    with pytest.raises(ValueError):
        root_system("X", 3)
    with pytest.raises(ValueError):
        root_system("B", 1)
    with pytest.raises(ValueError):
        layer("A", 3, 0)
    with pytest.raises(ValueError):
        layer("A", 3, 4)


def test_layer_members_have_unit_pivot_coefficient():
    for family, rank, pivot in [("A", 4, 2), ("B", 3, 1), ("C", 3, 3),
                                ("D", 4, 2), ("F", 4, 4), ("G", 2, 1)]:
        lay = layer(family, rank, pivot)
        for key in lay.poset.keys:
            assert key[pivot - 1] == 1
        # and together they exhaust the unit-coefficient roots
        rs = root_system(family, rank)
        want = sum(1 for r in rs.positive_roots if r[pivot - 1] == 1)
        assert lay.poset.n_elements == want


def test_layer_sizes_match_closed_forms():
    for l in range(1, 8):
        for i in range(1, l + 1):
            assert layer("A", l, i).poset.n_elements == i * (l + 1 - i)
    for l in range(2, 7):
        for i in range(1, l):
            assert layer("B", l, i).poset.n_elements == i * (2 * (l - i) + 1)
            assert layer("C", l, i).poset.n_elements == i * 2 * (l - i)
        assert layer("B", l, l).poset.n_elements == l
        assert layer("C", l, l).poset.n_elements == l * (l + 1) // 2


def _all_pairs_covers(poset):
    """The cover pairs of a layer by the all-pairs rule: w covers v when it
    is one higher and componentwise at least v."""
    keys = poset.keys
    return sorted(
        (i, j) for i, v in enumerate(keys) for j, w in enumerate(keys)
        if sum(w) == sum(v) + 1 and all(a <= b for a, b in zip(v, w))
    )


def test_layer_covers_match_the_all_pairs_rule_up_to_rank_8():
    n_layers = 0
    for family, (lo, hi) in FAMILY_RANK_RANGE.items():
        for rank in range(lo, min(hi or 8, 8) + 1):
            for pivot in range(1, rank + 1):
                poset = layer(family, rank, pivot).poset
                assert list(poset.covers) == _all_pairs_covers(poset), (
                    family, rank, pivot)
                n_layers += 1
    assert n_layers == 166


def test_layer_rank_is_root_height():
    lay = layer("E", 6, 4)
    for p in range(lay.poset.n_elements):
        assert lay.poset.rank[p] == sum(lay.poset.keys[p])


@pytest.mark.parametrize("family,rank,pivot,expr", [
    ("A", 4, 2, Prod(Chain(2), Chain(3))),
    ("A", 5, 3, Prod(Chain(3), Chain(3))),
    ("B", 4, 2, Prod(Chain(2), Chain(5))),
    ("B", 4, 4, Chain(4)),
    ("C", 4, 2, Prod(Chain(2), Chain(4))),
    ("C", 4, 4, H(4)),
    ("D", 5, 2, Prod(Chain(2), K(2))),
    ("D", 5, 4, H(4)),
    ("D", 5, 5, H(4)),
    ("F", 4, 1, K(3)),
])
def test_layer_classification_samples(family, rank, pivot, expr):
    assert are_isomorphic(layer(family, rank, pivot).poset, build(expr))


def test_flip_is_an_order_reversing_involution():
    for family, rank, pivot in [("A", 4, 2), ("B", 3, 2), ("C", 3, 2),
                                ("D", 4, 1), ("F", 4, 4), ("E", 6, 4),
                                ("G", 2, 2)]:
        lay = layer(family, rank, pivot)
        poset, star = lay.poset, lay.star
        n = poset.n_elements
        assert sorted(star) == list(range(n))
        for p in range(n):
            assert star[star[p]] == p
        for a, b in poset.covers:
            assert poset.le(star[b], star[a])
        # ranks reflect through the middle
        top = poset.max_rank + 1
        for p in range(n):
            assert poset.rank[star[p]] == top - poset.rank[p]


def test_flip_fixes_or_pairs_orbit_extremes():
    # the unique bottom maps to the unique top on grid-shaped layers
    lay = layer("A", 5, 2)
    poset = lay.poset
    bottom = [p for p in range(poset.n_elements) if poset.rank[p] == 1]
    top = [p for p in range(poset.n_elements)
           if poset.rank[p] == poset.max_rank]
    assert len(bottom) == 1 and len(top) == 1
    assert lay.star[bottom[0]] == top[0]


def test_star_of_maps_roots():
    lay = layer("A", 3, 2)
    for p in range(lay.poset.n_elements):
        assert lay.star_of(lay.poset.keys[p]) == lay.poset.keys[lay.star[p]]
