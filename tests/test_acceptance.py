"""Acceptance suite: ten numbered criteria, one test and one line each.

Every equality here is exact rational or integer arithmetic; no check
tolerates floating-point slack.  Time budgets are generous ceilings meant
to catch complexity regressions, not tight performance targets.
"""

import math
import random
import sys
import time
import warnings
from fractions import Fraction

from rowmotion.catalog import SPORADIC, classical_layer_expr
from rowmotion.constructions import build, grid_poset, k_product_poset
from rowmotion.homomesy import (
    check_conjecture_antichains,
    check_conjecture_ideals,
    orbit_reports,
)
from rowmotion.poset import (
    all_orbits,
    antichain_of_ideal,
    enumerate_ideals,
    operator_order,
    rowmotion_ideal,
)
from rowmotion.roots import layer
from rowmotion.words import (
    count_10,
    decode_K_starred,
    decode_grid,
    dual_ideal,
    encode_K_fullrank,
    encode_K_starred,
    encode_grid,
    epsilon_n,
    is_full_rank,
    long_sequences,
    long_zero_sequence_K,
    p_pattern,
    plain_to_starred,
    psi,
    psi_bar,
    psi_bar_iterates,
    psi_iterates,
    size_by_formula,
    starred_to_plain,
    validate_starred,
    window_sizes_K,
    zigzag,
)
from word_oracles import psi_bar_cases


def report(number, detail):
    print(f"[PASS] criterion {number}: {detail}")


def grid_cases():
    for total in range(2, 13):
        for m in range(1, total):
            yield m, total - m


def k_cases():
    for n in range(2, 8):
        for m in range(1, 15):
            if m + 2 * n - 1 <= 13:
                yield m, n


def classical_cases():
    for l in range(1, 8):
        for i in range(1, l + 1):
            yield "A", l, i
    for l in range(2, 8):
        for i in range(1, l + 1):
            yield "B", l, i
            yield "C", l, i
    for l in range(4, 8):
        for i in range(1, l + 1):
            yield "D", l, i


def test_criterion_01_grid_orbit_averages():
    start = time.monotonic()
    n_orbits = 0
    for m, n in grid_cases():
        expected = Fraction(m * n, m + n)
        for orbit in all_orbits(grid_poset(m, n)):
            assert orbit.average_size == expected, (m, n)
            n_orbits += 1
    elapsed = time.monotonic() - start
    assert elapsed < 30
    report(1, f"grids with m+n<=12, {n_orbits} orbits, "
              f"every average mn/(m+n), {elapsed:.1f}s")


def test_criterion_02_k_product_orbit_averages():
    start = time.monotonic()
    n_orbits = 0
    for m, n in k_cases():
        expected = Fraction(2 * m * n, m + 2 * n - 1)
        poset = k_product_poset(m, n)
        by_class = {True: [], False: []}
        for orbit in all_orbits(poset):
            kinds = {is_full_rank(i) for i in orbit.ideals}
            assert len(kinds) == 1, f"orbit mixes classes in [{m}]xK"
            by_class[kinds.pop()].append(orbit)
        for kind, orbits in by_class.items():
            assert orbits, (m, n, kind)
            for orbit in orbits:
                assert orbit.average_size == expected, (m, n, kind)
                n_orbits += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60
    report(2, f"strand products with m+2n-1<=13, {n_orbits} orbits in two "
              f"classes, every average 2mn/(m+2n-1), {elapsed:.1f}s")


def test_criterion_03_operator_orders():
    for m, n in grid_cases():
        poset = grid_poset(m, n)
        assert operator_order(poset) == m + n, (m, n)
        g = math.gcd(m, n)
        for orbit in all_orbits(poset):
            e = (m + n) // orbit.length
            assert orbit.length * e == m + n and g % e == 0, (m, n)
    for m, n in k_cases():
        period = m + 2 * n - 1
        assert operator_order(k_product_poset(m, n)) == period, (m, n)
        # word-level step on split profiles returns within one period
        poset = k_product_poset(m, n)
        for ideal in enumerate_ideals(poset):
            if not is_full_rank(ideal):
                sword = encode_K_starred(ideal)
                assert psi_bar_iterates(sword, period)[-1] == sword
                break
    report(3, "orders m+n and m+2n-1 exact, orbit lengths divide as "
              "required, word period divides m+2n-1")


def test_criterion_04_codec_equivalences():
    grid_ideals = 0
    for m, n in [(1, 1), (1, 4), (2, 2), (2, 3), (3, 3), (3, 4), (4, 4),
                 (2, 6), (4, 5)]:
        poset = grid_poset(m, n)
        for ideal in enumerate_ideals(poset):
            w = encode_grid(ideal)
            assert decode_grid(w, m, n) == ideal
            assert psi(w) == encode_grid(rowmotion_ideal(ideal))
            assert count_10(w) == len(antichain_of_ideal(ideal).members)
            grid_ideals += 1
    k_ideals = 0
    for m, n in [(1, 2), (2, 2), (3, 2), (4, 2), (1, 3), (2, 3), (3, 3),
                 (2, 4)]:
        poset = k_product_poset(m, n)
        for ideal in enumerate_ideals(poset):
            stepped = rowmotion_ideal(ideal)
            if is_full_rank(ideal):
                w = encode_K_fullrank(ideal)
                assert psi(w) == encode_K_fullrank(stepped)
                want = len(antichain_of_ideal(ideal).members)
                assert count_10(w) + epsilon_n(w) == want
            else:
                sword = encode_K_starred(ideal)
                back = decode_K_starred(sword, m, n)
                assert back in (ideal, dual_ideal(ideal))
                assert psi_bar(sword) == encode_K_starred(stepped)
            k_ideals += 1
    report(4, f"five codec suites against the generic operator: "
              f"{grid_ideals} grid ideals, {k_ideals} strand ideals")


def test_criterion_05_frozen_iterate_table():
    start = time.monotonic()
    rows = [
        ("0101110111", 2), ("1010111011", 3), ("1101011101", 3),
        ("1110101110", 3), ("1111010011", 2), ("1111100101", 2),
        ("0111111010", 2), ("1011111100", 2), ("1100011111", 1),
        ("0011101111", 1),
    ]
    word = "0011101111"
    got = psi_iterates(word, 10)
    for i, ((want_w, want_s), w) in enumerate(zip(rows, got), start=1):
        assert w == want_w, i
        assert count_10(w) == want_s, i
        assert size_by_formula(word, i) == want_s, i
    elapsed = time.monotonic() - start
    assert elapsed < 1
    report(5, f"ten frozen rows for 0011101111 bit-exact, {elapsed:.3f}s")


def test_criterion_06_frozen_sequences_and_windows():
    low, high = long_sequences("0011101111")
    assert low.symbols == "00-0-0-0-0-00-0-000-0-"
    assert high.symbols == "-111-111111-1-111-1111"
    assert (low.window(3), high.window(3)) == ("-0-0-0-", "11-1-111-1")
    assert zigzag(low.window(3), high.window(3)) == "1101011101"
    assert (low.window(10), high.window(10)) == ("00-0-", "-111-1111")
    assert zigzag(low.window(10), high.window(10)) == "0011101111"
    seq = long_zero_sequence_K("01*011")
    assert seq.symbols == "0-0-0-0-00-0-"
    assert window_sizes_K("01*011") == [2, 2, 2, 1, 1]
    assert psi_bar_iterates("01*011", 5) == [
        "10*011", "1*0101", "1*0110", "1*0011", "01*011",
    ]
    assert p_pattern("1-111*-11-1") == "1-11*-111-1"
    assert p_pattern("111-1-*-111") == "111-*-1-111"
    report(6, "marked sequences, windows, split orbit, and star patterns "
              "bit-exact")


def test_criterion_07_size_formula_totals():
    rng = random.Random(20260816)
    for trial in range(500):
        total = rng.randint(2, 20)
        m = rng.randint(1, total - 1)
        n = total - m
        word = "".join(rng.sample("0" * m + "1" * n, total))
        got = sum(size_by_formula(word, i) for i in range(1, total + 1))
        assert got == m * n, word
    report(7, "500 random words with m+n<=20, one-period size totals "
              "all equal mn")


def test_criterion_08_catalog_averages():
    start = time.monotonic()
    targets = []
    for entry in SPORADIC:
        targets.append((entry.name, entry.realize_poset()))
    n_classical = 0
    for family, rank, pivot in classical_cases():
        lay = layer(family, rank, pivot)
        if lay.poset.n_elements <= 30:
            targets.append((lay.name, lay.poset))
            n_classical += 1
    must_have = {"layer(F4,4)", "[2]x[3]x[3]", "[2]xH4", "J2([2]x[3])",
                 "layer(A7,4)", "layer(D7,3)", "layer(B7,4)", "layer(C7,7)"}
    assert must_have <= {name for name, _ in targets}
    n_orbits = 0
    for name, poset in targets:
        assert poset.n_elements <= 10**6
        expected = Fraction(poset.n_elements, poset.max_rank + 1)
        for orbit in orbit_reports(poset, cap=10**6):
            assert orbit.average_size == expected, name
            n_orbits += 1
    elapsed = time.monotonic() - start
    assert elapsed < 600
    report(8, f"{len(SPORADIC)} catalog entries plus {n_classical} "
              f"classical layers, {n_orbits} orbits, every average "
              f"n/(max_rank+1), {elapsed:.1f}s")


def test_criterion_09_paired_count_conjectures():
    reports = []
    witnesses = []
    for family, rank, pivot in classical_cases():
        lay = layer(family, rank, pivot)
        if lay.poset.n_elements > 30:
            continue
        for rep in (check_conjecture_ideals(lay),
                    check_conjecture_antichains(lay)):
            reports.append(rep)
            witnesses.extend(rep.witnesses)
    for entry in SPORADIC:
        lay = entry.realize_layer()
        for rep in (check_conjecture_ideals(lay),
                    check_conjecture_antichains(lay)):
            reports.append(rep)
            witnesses.extend(rep.witnesses)
    # counterexamples to an open statement are findings, not failures:
    # shout about them, keep the suite green
    for w in witnesses:
        print(f"COUNTEREXAMPLE FOUND: {w.as_dict()}", file=sys.stderr)
        warnings.warn(f"paired-count counterexample: {w.as_dict()}")
    assert all(r.n_orbits > 0 for r in reports)
    detail = (f"{len(reports)} conjecture reports, "
              f"{len(witnesses)} counterexamples")
    if witnesses:
        print(f"[WARN] criterion 9: {detail}", file=sys.stderr)
    report(9, detail)


def test_criterion_10_property_sweep():
    rng = random.Random(97)
    # codec round-trips on random words
    for _ in range(200):
        m = rng.randint(1, 8)
        n = rng.randint(1, 8)
        word = "".join(rng.sample("0" * m + "1" * n, m + n))
        assert encode_grid(decode_grid(word, m, n)) == word
    # the split step agrees with the five-case table oracle on random
    # starred words
    for _ in range(200):
        m = rng.randint(1, 7)
        n = rng.randint(2, 5)
        front = rng.randint(0, m - 1)
        head = rng.sample("0" * front + "1" * (n - 1), front + n - 1)
        tail = rng.sample("0" * (m - 1 - front) + "1" * n, m - 1 - front + n)
        sword = plain_to_starred("".join(head) + "10" + "".join(tail))
        out = psi_bar(sword)
        assert out == psi_bar_cases(sword), sword
        assert validate_starred(out) == (m, n)
        assert starred_to_plain(out).count("0") == m
    # mirror equivariance, exhaustive on two shapes
    for m, n in [(2, 2), (2, 3)]:
        poset = k_product_poset(m, n)
        for ideal in enumerate_ideals(poset):
            assert dual_ideal(dual_ideal(ideal)) == ideal
            assert rowmotion_ideal(dual_ideal(ideal)) == dual_ideal(
                rowmotion_ideal(ideal)
            )
    # flip involution, order reversal, and layer stability
    n_layers = 0
    for family, rank, pivot in classical_cases():
        lay = layer(family, rank, pivot)
        if lay.poset.n_elements > 30:
            continue
        star, poset = lay.star, lay.poset
        assert sorted(star) == list(range(poset.n_elements))
        assert all(star[star[p]] == p for p in range(poset.n_elements))
        assert all(poset.le(star[b], star[a]) for a, b in poset.covers)
        n_layers += 1
    report(10, f"round-trips, oracle-checked split step, mirror equivariance, and "
               f"flip checks over {n_layers} layers")
