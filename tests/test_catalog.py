"""The catalog: sporadic entries, parametrized families, classification."""

import pytest

from rowmotion.catalog import (
    FAMILIES,
    SPORADIC,
    classical_layer_expr,
    entry_expr_poset,
    find_entry,
    grid_entry,
    k_product_entry,
    staircase_entry,
)
from rowmotion.constructions import build, grid_poset, k_product_poset, H
from rowmotion.isomorphism import are_isomorphic
from rowmotion.roots import layer

EXPECTED_SIZES = {
    "[2]x[3]x[3]": 18, "[2]x[3]x[4]": 24, "[2]x[3]x[5]": 30,
    "[2]xH4": 20, "[3]xH4": 30, "[4]xH4": 40,
    "[2]xH5": 30, "[2]xH6": 42,
    "J2([2]x[3])": 16, "[2]xJ2([2]x[3])": 32, "[3]xJ2([2]x[3])": 48,
    "J3([2]x[3])": 27, "[2]xJ3([2]x[3])": 54,
    "layer(F4,4)": 14, "layer(E6,2)": 20,
    "layer(E7,1)": 32, "layer(E7,2)": 35,
    "layer(E8,1)": 64, "layer(E8,2)": 56, "layer(E8,8)": 56,
}


def test_catalog_is_complete_and_unique():
    names = [e.name for e in SPORADIC]
    assert len(names) == 20
    assert len(set(names)) == 20
    assert set(names) == set(EXPECTED_SIZES)


@pytest.mark.parametrize("entry", SPORADIC, ids=lambda e: e.name)
def test_entry_sizes(entry):
    assert entry.realize_poset().n_elements == EXPECTED_SIZES[entry.name]


@pytest.mark.parametrize("entry", SPORADIC, ids=lambda e: e.name)
def test_entry_expression_matches_layer(entry):
    expr_poset = entry_expr_poset(entry)
    if expr_poset is None:
        pytest.skip("layer-only entry")
    assert are_isomorphic(entry.realize_poset(), expr_poset)


def test_find_entry_is_forgiving():
    assert find_entry("[2]x[3]x[3]").name == "[2]x[3]x[3]"
    assert find_entry("[2] X [3] x [3]").name == "[2]x[3]x[3]"
    assert find_entry("LAYER(f4,4)").name == "layer(F4,4)"
    assert find_entry("nope") is None


def test_family_stubs():
    assert [f.name for f in FAMILIES] == ["grid", "staircase", "kproduct"]


@pytest.mark.parametrize("m,n", [(1, 1), (2, 3), (3, 4), (1, 6)])
def test_grid_family_layer(m, n):
    expr, lay = grid_entry(m, n)
    assert are_isomorphic(build(expr), grid_poset(m, n))
    built = layer(lay.family, lay.rank, lay.pivot)
    assert are_isomorphic(built.poset, grid_poset(m, n))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_staircase_family_layer(n):
    expr, lay = staircase_entry(n)
    built = layer(lay.family, lay.rank, lay.pivot)
    assert are_isomorphic(built.poset, build(H(n)))
    assert are_isomorphic(build(expr), build(H(n)))


@pytest.mark.parametrize("m,n", [(1, 2), (2, 2), (3, 2), (2, 3), (1, 4)])
def test_k_product_family_layer(m, n):
    expr, lay = k_product_entry(m, n)
    built = layer(lay.family, lay.rank, lay.pivot)
    assert are_isomorphic(built.poset, k_product_poset(m, n))
    assert are_isomorphic(build(expr), k_product_poset(m, n))


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_k_product_family_layer_refuses_one_strand_element(m):
    # [m]xK(0) is two disjoint chains; a layer has one minimal element
    assert k_product_poset(m, 1).rank.count(1) == 2
    with pytest.raises(ValueError, match="n >= 2"):
        k_product_entry(m, 1)


def classical_cases():
    for l in range(1, 6):
        for i in range(1, l + 1):
            yield "A", l, i
    for l in range(2, 6):
        for i in range(1, l + 1):
            yield "B", l, i
            yield "C", l, i
    for l in range(3, 7):
        for i in range(1, l + 1):
            yield "D", l, i


@pytest.mark.parametrize("family,rank,pivot", sorted(classical_cases()),
                         ids=lambda v: str(v))
def test_classical_layers_match_their_expressions(family, rank, pivot):
    expr = classical_layer_expr(family, rank, pivot)
    assert are_isomorphic(layer(family, rank, pivot).poset, build(expr))


def test_classical_expr_rejects_exceptional_families():
    with pytest.raises(ValueError):
        classical_layer_expr("E", 6, 4)
