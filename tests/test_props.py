"""Property-based checks over randomly generated words, ideals, and layers."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from rowmotion.constructions import grid_poset, k_product_poset
from rowmotion.poset import (
    antichain_of_ideal,
    enumerate_ideals,
    ideal_of_antichain,
    rowmotion_ideal,
)
from rowmotion.roots import layer
from rowmotion.words import (
    count_10,
    decode_grid,
    dual_ideal,
    encode_K_starred,
    encode_grid,
    is_full_rank,
    plain_to_starred,
    psi,
    psi_bar,
    psi_iterates,
    size_by_formula,
    starred_to_plain,
    validate_starred,
)


@st.composite
def binary_words(draw, max_zeros=10, max_ones=10):
    m = draw(st.integers(1, max_zeros))
    n = draw(st.integers(1, max_ones))
    bits = draw(st.permutations("0" * m + "1" * n))
    return "".join(bits)


@st.composite
def starred_words(draw, max_zeros=7, max_splits=5):
    """A word over {0,1,*} describing a split-fiber profile: the star sits
    after n-1 ones and is followed by a zero."""
    m = draw(st.integers(1, max_zeros))
    n = draw(st.integers(2, max_splits))
    front_zeros = draw(st.integers(0, m - 1))
    head = draw(st.permutations("0" * front_zeros + "1" * (n - 1)))
    tail = draw(st.permutations("0" * (m - 1 - front_zeros) + "1" * n))
    plain = "".join(head) + "1" + "0" + "".join(tail)
    return plain_to_starred(plain)


@given(binary_words())
def test_step_preserves_letter_counts(word):
    out = psi(word)
    assert sorted(out) == sorted(word)


@given(binary_words(max_zeros=7, max_ones=7))
def test_step_has_full_period(word):
    m = word.count("0")
    n = word.count("1")
    assert psi_iterates(word, m + n)[-1] == word


@given(binary_words())
def test_formula_total_is_area(word):
    m = word.count("0")
    n = word.count("1")
    total = sum(size_by_formula(word, i) for i in range(1, m + n + 1))
    assert total == m * n


@given(binary_words(max_zeros=8, max_ones=8))
def test_formula_matches_iteration(word):
    m, n = word.count("0"), word.count("1")
    sizes = [count_10(w) for w in psi_iterates(word, m + n)]
    for i in range(1, m + n + 1):
        assert size_by_formula(word, i) == sizes[i - 1]


@given(binary_words(max_zeros=6, max_ones=6))
def test_grid_codec_round_trip(word):
    m, n = word.count("0"), word.count("1")
    ideal = decode_grid(word, m, n)
    assert encode_grid(ideal) == word
    assert count_10(word) == len(antichain_of_ideal(ideal).members)


@given(binary_words(max_zeros=6, max_ones=6))
def test_codec_transports_the_step(word):
    m, n = word.count("0"), word.count("1")
    ideal = decode_grid(word, m, n)
    assert psi(word) == encode_grid(rowmotion_ideal(ideal))


@given(starred_words())
def test_split_step_keeps_shape(sword):
    m, n = validate_starred(sword)
    out = psi_bar(sword)
    assert validate_starred(out) == (m, n)


@given(starred_words(max_zeros=4, max_splits=3))
def test_split_step_full_period(sword):
    m, n = validate_starred(sword)
    word = sword
    for _ in range(m + 2 * n - 1):
        word = psi_bar(word)
    assert word == sword


K_POSETS = [(1, 2), (2, 2), (3, 2), (1, 3), (2, 3)]
K_IDEALS = {
    mn: list(enumerate_ideals(k_product_poset(*mn))) for mn in K_POSETS
}


@given(
    st.sampled_from(K_POSETS),
    st.integers(0, 10**9),
)
def test_mirror_commutes_with_the_step(mn, pick):
    ideals = K_IDEALS[mn]
    ideal = ideals[pick % len(ideals)]
    assert dual_ideal(dual_ideal(ideal)) == ideal
    assert rowmotion_ideal(dual_ideal(ideal)) == dual_ideal(
        rowmotion_ideal(ideal)
    )
    if not is_full_rank(ideal):
        assert encode_K_starred(ideal) == encode_K_starred(dual_ideal(ideal))


@given(
    st.sampled_from([("A", 5, 2), ("B", 4, 2), ("C", 4, 4), ("D", 5, 3),
                     ("F", 4, 4), ("G", 2, 1), ("E", 6, 3)]),
)
@settings(deadline=None)
def test_flip_involution_and_stability(case):
    lay = layer(*case)
    poset, star = lay.poset, lay.star
    assert sorted(star) == list(range(poset.n_elements))
    for p in range(poset.n_elements):
        assert star[star[p]] == p
    for a, b in poset.covers:
        assert poset.le(star[b], star[a])


@given(st.sampled_from([(2, 2), (2, 3), (3, 3), (1, 5)]),
       st.integers(0, 10**9))
def test_antichain_ideal_round_trip(mn, pick):
    poset = grid_poset(*mn)
    ideals = list(enumerate_ideals(poset))
    ideal = ideals[pick % len(ideals)]
    assert ideal_of_antichain(antichain_of_ideal(ideal)) == ideal


@given(binary_words(max_zeros=5, max_ones=5))
def test_orbit_average_from_formula(word):
    # one orbit's average antichain size, computed purely on words,
    # equals area over period
    m, n = word.count("0"), word.count("1")
    sizes = [count_10(w) for w in psi_iterates(word, m + n)]
    orbit = min(
        i for i in range(1, m + n + 1)
        if psi_iterates(word, i)[-1] == word
    )
    avg = Fraction(sum(sizes[:orbit]), orbit)
    assert avg == Fraction(m * n, m + n)
