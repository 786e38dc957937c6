"""Root systems, height-graded layers, and the flip involution."""

import time

import pytest

import rowmotion.roots as roots
from rowmotion.constructions import build, K, Chain, H, Layer, Prod
from rowmotion.isomorphism import are_isomorphic
from rowmotion.poset import CapExceeded
from rowmotion.roots import (
    FAMILY_RANK_RANGE,
    cartan_matrix,
    layer,
    root_system,
)
from root_oracles import oracle_layer

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


def test_layers_match_the_root_system_oracle_up_to_rank_10():
    # every layer of every type up to rank 10, with E6-E8, F4 and G2: the
    # generator against the filtered root system, the all-pairs cover rule
    # and the parabolic longest element
    n_layers = 0
    for family, (lo, hi) in FAMILY_RANK_RANGE.items():
        for rank in range(lo, min(hi or 10, 10) + 1):
            for pivot in range(1, rank + 1):
                lay = layer(family, rank, pivot)
                poset = lay.poset
                got = {"keys": poset.keys, "ranks": poset.rank,
                       "labels": poset.labels, "covers": poset.covers,
                       "star": lay.star}
                assert got == oracle_layer(family, rank, pivot), (
                    family, rank, pivot)
                n_layers += 1
    assert n_layers == 242


def test_a_long_chain_layer_builds_without_the_root_system():
    start = time.perf_counter()
    lay = layer.__wrapped__("A", 200, 1)
    assert time.perf_counter() - start < 1.0
    poset = lay.poset
    assert poset.n_elements == 200 and poset.max_rank == 200
    assert list(poset.covers) == [(i, i + 1) for i in range(199)]
    assert lay.star == tuple(range(199, -1, -1))


def test_layer_builds_no_root_system_until_asked(monkeypatch):
    built = []
    real = roots.root_system

    def counted(family, rank):
        built.append((family, rank))
        return real(family, rank)

    monkeypatch.setattr(roots, "root_system", counted)
    lay = layer.__wrapped__("e", 7, 3)
    assert built == [] and lay.name == "layer(E7,3)"
    system = lay.system
    assert built == [("E", 7)]
    assert lay.poset.keys == tuple(
        v for v in system.positive_roots if v[2] == 1)


def test_a_capped_layer_stops_at_the_cap_and_is_not_cached():
    before = layer.cache_info().currsize
    with pytest.raises(CapExceeded, match=r"^more than 500 elements$"):
        layer("A", 60, 30, 500)
    with pytest.raises(CapExceeded, match=r"^more than 500 elements$"):
        build(Layer("A", 60, 30), cap=500)
    assert layer.cache_info().currsize == before
    whole = layer("A", 60, 30, 930)
    assert whole.poset.n_elements == 930
    with pytest.raises(CapExceeded, match=r"^more than 929 elements$"):
        layer("A", 60, 30, 929)


def test_a_rank_above_the_cap_is_refused_before_the_cartan_matrix(
        monkeypatch):
    # every layer has at least rank members, so none of A_101 fits in 100
    assert layer("A", 100, 1, 100).poset.n_elements == 100

    def refuse(family, rank):
        raise AssertionError("cartan matrix built")

    monkeypatch.setattr(roots, "cartan_matrix", refuse)
    with pytest.raises(CapExceeded, match=r"^more than 100 elements$"):
        layer("A", 101, 1, 100)
    with pytest.raises(ValueError, match="pivot 102 outside"):
        layer("A", 101, 102, 100)


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
