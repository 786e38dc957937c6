"""Poset constructors, the expression algebra, and the block-shift laws.

The two reference maps below restate what one reverse step does to a fiber
profile.  Both are checked exhaustively against the generic operator, which
knows nothing about fibers, so they validate each other.
"""

import itertools
import time

import pytest

from rowmotion.constructions import (
    H,
    J,
    K,
    MAX_DEPTH,
    Chain,
    DUnion,
    OSum,
    Prod,
    build,
    grid_poset,
    k_product_poset,
    parse_poset_expr,
    to_text,
)
from rowmotion.isomorphism import _stable_colors, are_isomorphic
from rowmotion.poset import (
    CapExceeded,
    Poset,
    enumerate_ideals,
    rowmotion_ideal,
)


def test_grid_counts_and_ranks():
    for m, n in [(1, 1), (2, 3), (3, 4)]:
        g = grid_poset(m, n)
        assert g.n_elements == m * n
        assert g.max_rank == m + n - 1
        for p in range(g.n_elements):
            i, j = g.keys[p]
            assert g.rank[p] == i + j - 1


def test_grid_is_symmetric_in_its_arguments():
    assert are_isomorphic(grid_poset(2, 5), grid_poset(5, 2))


def test_two_strand_poset_shape():
    k = build(K(2))  # strands split at rank 3 of 5
    assert k.n_elements == 6
    assert k.max_rank == 5
    mids = [p for p in range(6) if k.rank[p] == 3]
    assert len(mids) == 2
    a, b = mids
    assert not k.le(a, b) and not k.le(b, a)
    # every other rank level is a single element
    assert sorted(k.rank) == [1, 2, 3, 3, 4, 5]


def test_staircase_shape():
    h = build(H(4))
    assert h.n_elements == 10
    assert h.max_rank == 7
    assert all(i <= j for i, j in h.keys)


def test_product_height_and_size():
    p = build(Prod(Chain(2), H(3)))
    assert p.n_elements == 2 * 6
    assert p.max_rank == 2 + 5 - 1


def test_ordinal_sum_stacks():
    p = build(OSum(Chain(2), Chain(3)))
    assert are_isomorphic(p, build(Chain(5)))


def test_sums_key_each_element_by_side_and_index():
    p = build(OSum(Chain(2), DUnion(Chain(1), Chain(1))))
    assert p.keys == ((0, 0), (0, 1), (1, 0), (1, 1))
    assert p.labels == ("1", "2", "1", "1")
    assert p.rank == (1, 2, 3, 3)
    # a product pairs the flat keys of its operands
    q = build(Prod(Chain(1), OSum(Chain(1), Chain(1))))
    assert q.keys == ((1, (0, 0)), (1, (1, 0)))


def test_an_ordinal_sum_chain_at_the_parser_bound_builds_in_a_second():
    # keys nested once per osum made this build cubic in the depth
    depth = MAX_DEPTH
    text = "osum(chain(1)," * (depth - 1) + "chain(1)" + ")" * (depth - 1)
    start = time.perf_counter()
    poset = build(parse_poset_expr(text))
    elapsed = time.perf_counter() - start
    assert poset.n_elements == poset.max_rank == depth
    assert all(len(key) == 2 and type(key[1]) is int for key in poset.keys)
    assert elapsed < 1.0


def test_ideal_lattice_of_antichain_is_a_grid():
    # ideals of the 2-element antichain form a diamond, the 2x2 grid
    p = build(J(DUnion(Chain(1), Chain(1))))
    assert are_isomorphic(p, grid_poset(2, 2))


def test_ideal_lattice_of_chain_is_a_chain():
    assert are_isomorphic(build(J(Chain(3))), build(Chain(4)))


def test_iterated_ideal_lattice_sizes():
    e = Prod(Chain(2), Chain(3))
    assert build(J(e)).n_elements == 10
    assert build(J(J(e))).n_elements == 16


def _crown(turn=0):
    """Four minimal elements a_i and four maximal ones b_i, with a_i below
    b_i and b_(i+1): one 8-cycle of covers.  turn relabels the b_i."""
    elements = [(f"a{i}", 1, f"a{i}") for i in range(4)]
    elements += [(f"b{i}", 2, f"b{i}") for i in range(4)]
    covers = [(f"a{i}", f"b{(i + d + turn) % 4}")
              for i in range(4) for d in (0, 1)]
    return Poset.from_cover_data(elements, covers)


ANTICHAIN2 = "dunion(chain(1),chain(1))"
K22 = f"osum({ANTICHAIN2},{ANTICHAIN2})"


def _invariants(poset):
    """What are_isomorphic compares before its search, in its order."""
    return (poset.n_elements, sorted(poset.rank), len(poset.covers),
            sorted(_stable_colors(poset)))


def test_the_search_tells_the_crown_from_two_disjoint_k22():
    crown = _crown()
    twice = build(parse_poset_expr(f"dunion({K22},{K22})"))
    # 8 elements, 8 covers and one colour per rank on both sides
    assert _invariants(crown) == _invariants(twice)
    assert not are_isomorphic(crown, twice)
    assert not are_isomorphic(twice, crown)
    assert are_isomorphic(crown, crown)
    assert are_isomorphic(crown, _crown(turn=1))


def _over_chain(poset, length):
    """poset with a chain of length elements below all its minimal ones."""
    elements = [(("chain", t), t + 1, f"c{t}") for t in range(length)]
    elements += [(key, rank + length, label) for key, rank, label
                 in zip(poset.keys, poset.rank, poset.labels)]
    covers = [(("chain", t), ("chain", t + 1)) for t in range(length - 1)]
    if length:
        covers += [(("chain", length - 1), poset.keys[i])
                   for i in range(poset.n_elements) if poset.rank[i] == 1]
    covers += [(poset.keys[i], poset.keys[j]) for i, j in poset.covers]
    return Poset.from_cover_data(elements, covers)


def test_the_search_runs_on_5000_elements():
    # one search step per element, so a search that recursed once per
    # element ran out of stack here
    assert are_isomorphic(build(Chain(5000)), build(Chain(5000)))
    crown = _over_chain(_crown(), 4992)
    twice = _over_chain(build(parse_poset_expr(f"dunion({K22},{K22})")),
                        4992)
    assert crown.n_elements == twice.n_elements == 5000
    # the invariants agree, so the search matches all 4992 chain elements
    # before the crown tells the two apart
    assert _invariants(crown) == _invariants(twice)
    assert not are_isomorphic(crown, twice)
    assert not are_isomorphic(twice, crown)
    assert are_isomorphic(crown, _over_chain(_crown(turn=1), 4992))


def _two_k22(first):
    """Two copies of K22: the minimal elements in first lie below b0 and
    b1, the other two below b2 and b3."""
    elements = [(f"a{i}", 1, f"a{i}") for i in range(4)]
    elements += [(f"b{i}", 2, f"b{i}") for i in range(4)]
    covers = [(f"a{i}", f"b{j}") for i in range(4) for j in range(4)
              if (i in first) == (j < 2)]
    return Poset.from_cover_data(elements, covers)


def test_the_search_backtracks_to_an_isomorphism():
    # the search matches the minimal elements in order, a0 to a0 and a1 to
    # a1; where a0 and a1 lie in two copies of K22 on one side and in one
    # on the other, the maximal elements find no match until it returns
    # to the minimal ones and pairs a1 with a2
    for length in (0, 4992):
        ours = _over_chain(_two_k22({0, 1}), length)
        theirs = _over_chain(_two_k22({0, 2}), length)
        assert are_isomorphic(ours, theirs)
        assert are_isomorphic(theirs, ours)


def _fork(covers):
    """Two minimal elements a, b below three maximal ones c, d, e."""
    elements = [(k, 1 if k in "ab" else 2, k) for k in "abcde"]
    return Poset.from_cover_data(elements, [tuple(c) for c in covers])


@pytest.mark.parametrize("left,right,first_difference", [
    (build(Chain(3)), build(Chain(2)), 0),
    # ranks 1, 2, 2, 3 against 1, 1, 2, 3
    (build(K(1)), build(parse_poset_expr(f"osum({ANTICHAIN2},chain(2))")), 1),
    # ranks 1, 1, 2, 2 with 2 covers against 4
    (build(parse_poset_expr("dunion(chain(2),chain(2))")),
     build(parse_poset_expr(K22)), 2),
    # 4 covers each: a below c, d, e against a and b below two each
    (_fork(["ac", "ad", "ae", "be"]), _fork(["ac", "ad", "bd", "be"]), 3),
], ids=["element count", "rank multiset", "cover count", "colours"])
def test_each_early_invariant_refuses_a_pair(left, right, first_difference):
    ours, theirs = _invariants(left), _invariants(right)
    assert ours[:first_difference] == theirs[:first_difference]
    assert ours[first_difference] != theirs[first_difference]
    assert not are_isomorphic(left, right)
    assert not are_isomorphic(right, left)


def test_build_honours_cap():
    with pytest.raises(CapExceeded):
        build(J(Prod(Chain(6), Chain(6))), cap=100)


def test_build_caps_element_count():
    # the guard must fire before the product is materialized
    with pytest.raises(CapExceeded):
        build(Prod(Chain(900), Chain(900)), cap=1000)
    with pytest.raises(CapExceeded):
        build(Chain(10**9), cap=1000)


def test_to_text_round_trip_shapes():
    e = Prod(Chain(2), J(K(3)))
    assert to_text(e) == "prod(chain(2),J(K(3)))"


# -- fiber profiles ---------------------------------------------------------


def grid_levels(poset, ideal, m):
    """Fiber sizes of a grid ideal, one value per strand, non-increasing."""
    members = {poset.keys[p] for p in ideal.members}
    return tuple(sum(1 for a, b in members if a == i) for i in range(1, m + 1))


def grid_ideal_from_levels(poset, levels):
    keys = [(i, j) for i, v in enumerate(levels, start=1)
            for j in range(1, v + 1)]
    return poset.ideal_of_keys(keys)


def shift_levels(levels, d):
    """Reference reverse step on a non-increasing fiber profile over [d].

    Blocks of equal value rotate: the top block grows by one strand taken
    from the next block, every remaining block advances one level, and the
    bottom block gives one strand to the empty level.  All fibers full maps
    to all fibers empty.
    """
    blocks = []
    for v in levels:
        if blocks and blocks[-1][0] == v:
            blocks[-1][1] += 1
        else:
            blocks.append([v, 1])
    if blocks[0][0] == d:
        n0 = blocks[0][1]
        rest = blocks[1:]
    else:
        n0 = 0
        rest = blocks
    if not rest:
        return (0,) * n0
    out = [(rest[0][0] + 1, n0 + 1)]
    for j in range(len(rest) - 1):
        out.append((rest[j + 1][0] + 1, rest[j][1]))
    if rest[-1][1] > 1:
        out.append((0, rest[-1][1] - 1))
    flat = []
    for lv, c in out:
        flat.extend([lv] * c)
    return tuple(flat)


@pytest.mark.parametrize("m,n", [(1, 1), (1, 4), (2, 2), (2, 3), (3, 3),
                                 (3, 4), (4, 4), (2, 6), (5, 3)])
def test_block_shift_matches_operator_on_grids(m, n):
    poset = grid_poset(m, n)
    for ideal in enumerate_ideals(poset):
        levels = grid_levels(poset, ideal, m)
        assert levels == tuple(sorted(levels, reverse=True))
        want = shift_levels(levels, n)
        got = grid_levels(poset, rowmotion_ideal(ideal), m)
        assert got == want, (levels, got, want)


# -- two-strand fiber profiles ----------------------------------------------


def k_levels(poset, ideal, m, n):
    """Per-strand description: ('L', j) for a rank ideal, ('I', +-1) for a
    split ideal holding the plain or the primed midpoint."""
    mids = {str(n), str(n) + "'"}
    members = {poset.keys[p] for p in ideal.members}
    out = []
    for i in range(1, m + 1):
        fib = {k for c, k in members if c == i}
        got = fib & mids
        if len(got) == 1:
            out.append(("I", 1 if str(n) in got else -1))
        else:
            out.append(("L", len(fib) - (1 if len(got) == 2 else 0)))
    return out


def k_ideal_from_levels(poset, levels, n):
    mids = [str(n), str(n) + "'"]
    keys = []
    for i, (kind, v) in enumerate(levels, start=1):
        if kind == "I":
            fib = [str(j) for j in range(1, n)]
            fib.append(mids[0] if v == 1 else mids[1])
        else:
            fib = [str(j) for j in range(1, min(v, n - 1) + 1)]
            if v >= n:
                fib += mids
            fib += [str(j) for j in range(n + 1, v + 1)]
        keys.extend((i, k) for k in fib)
    return poset.ideal_of_keys(keys)


def shift_k_levels(levels, n):
    """Reference reverse step on two-strand fiber profiles.

    Rank-only profiles behave exactly like grid profiles over 2n-1 levels.
    A profile with split fibers rotates its block counts the same way, with
    two twists: the split level advances to rank n only when a rank n-1
    block sits directly below it, in which case that block becomes the new
    split level with the same midpoint; otherwise the split level stays put
    and switches midpoint.
    """
    if all(kind == "L" for kind, _ in levels):
        return [("L", v) for v in shift_levels([v for _, v in levels], 2 * n - 1)]

    polarity = next(v for kind, v in levels if kind == "I")
    blocks = []
    for kv in levels:
        if blocks and blocks[-1][0] == kv:
            blocks[-1][1] += 1
        else:
            blocks.append([kv, 1])
    if blocks[0][0] == ("L", 2 * n - 1):
        n0 = blocks[0][1]
        rest = blocks[1:]
    else:
        n0 = 0
        rest = blocks

    def advance(kv):
        kind, v = kv
        if kind == "I":
            return ("L", n)
        if v == n - 1:
            return ("I", polarity)
        return ("L", v + 1)

    # does a rank n-1 block sit directly below the split block?
    keeps = True
    for a, b in zip(rest, rest[1:]):
        if a[0] == ("I", polarity):
            keeps = b[0] == ("L", n - 1)
    if rest[-1][0] == ("I", polarity):
        keeps = False

    out = [(advance(rest[0][0]), n0 + 1)]
    for j in range(len(rest) - 1):
        out.append((advance(rest[j + 1][0]), rest[j][1]))
    if rest[-1][1] > 1:
        out.append((("L", 0), rest[-1][1] - 1))
    if not keeps:
        out = [((("I", -polarity)) if kv == ("L", n) else kv, c)
               for kv, c in out]
    flat = []
    for kv, c in out:
        flat.extend([kv] * c)
    return flat


@pytest.mark.parametrize("m,n", [(1, 2), (2, 2), (3, 2), (4, 2),
                                 (1, 3), (2, 3), (3, 3), (2, 4)])
def test_block_shift_matches_operator_on_k_products(m, n):
    poset = k_product_poset(m, n)
    for ideal in enumerate_ideals(poset):
        levels = k_levels(poset, ideal, m, n)
        want = shift_k_levels(levels, n)
        got = k_levels(poset, rowmotion_ideal(ideal), m, n)
        assert got == want, (levels, got, want)


def test_fiber_helpers_invert_each_other():
    poset = k_product_poset(2, 3)
    for ideal in enumerate_ideals(poset):
        levels = k_levels(poset, ideal, 2, 3)
        assert k_ideal_from_levels(poset, levels, 3) == ideal


def test_split_profiles_share_one_midpoint():
    poset = k_product_poset(3, 2)
    for ideal in enumerate_ideals(poset):
        pol = {v for kind, v in k_levels(poset, ideal, 3, 2) if kind == "I"}
        assert len(pol) <= 1
