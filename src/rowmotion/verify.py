"""End-to-end verification suites over whole posets.

Each suite sweeps every ideal of the poset in question, checks the orbit
structure and the word codecs against the direct dynamics, and returns a list
of named pass/fail results with enough detail to locate a failure.  All
comparisons are exact.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm
from typing import NamedTuple

from .catalog import CatalogEntry, classical_layer_expr, entry_expr_poset
from .constructions import build, grid_poset, k_product_poset
from .homomesy import AverageReport, verify_constant_average
from .isomorphism import are_isomorphic
from .poset import DEFAULT_CAP, IdealSet, OrbitReport, Poset
from .roots import layer as build_layer
from .words import (
    count_10,
    epsilon_n,
    formula_sizes,
    grid_codec,
    k_codec,
    long_sequences,
    psi,
    psi_bar,
    window_sizes_K,
    zigzag,
)

MAX_DETAILS = 5


class CheckResult(NamedTuple):
    name: str
    passed: bool
    details: str

    def as_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "details": self.details}


def _result(name: str, failures: list[str], note: str = "") -> CheckResult:
    if not failures:
        return CheckResult(name, True, note or "ok")
    shown = "; ".join(failures[:MAX_DETAILS])
    if len(failures) > MAX_DETAILS:
        shown += f"; and {len(failures) - MAX_DETAILS} more"
    return CheckResult(name, False, shown)


def _fraction_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def check_constant_average(
    report: AverageReport,
    label: str = "orbit averages constant",
) -> CheckResult:
    """A report of verify_constant_average as a named check."""
    failures = [
        f"orbit {k} (length {length}) averages {_fraction_str(average)}"
        for (k, average), length in zip(report.failures,
                                        report.failure_lengths)
    ]
    note = (f"{report.n_orbits} orbits, every average "
            f"{_fraction_str(report.expected)}")
    return _result(label, failures, note)


def verify_grid(
    m: int,
    n: int,
    cap: int = DEFAULT_CAP,
) -> tuple[Poset, tuple[OrbitReport, ...], list[CheckResult]]:
    """Every grid check on [m]x[n].  The codec checks read each ideal, its
    rowmotion iterates and their antichain sizes from the orbit listing;
    psi runs once per word, for the transport check, and zigzag once per
    distinct window pair."""
    poset = grid_poset(m, n)
    period = m + n
    checks: list[CheckResult] = []

    average = verify_constant_average(poset, Fraction(m * n, m + n), cap)
    checks.append(check_constant_average(
        average, "orbit averages equal mn/(m+n)"))
    reports = average.orbits

    order = lcm(*(r.length for r in reports))
    checks.append(
        CheckResult(
            "operator order is m+n",
            order == period,
            f"order {order}, expected {period}",
        )
    )

    g = gcd(m, n)
    failures = []
    for k, r in enumerate(reports):
        if period % r.length or g % (period // r.length):
            failures.append(f"orbit {k} has length {r.length}")
    checks.append(
        _result(
            "orbit lengths are (m+n)/e with e dividing gcd(m,n)", failures,
            f"lengths {sorted({r.length for r in reports})}",
        )
    )

    rt_fail: list[str] = []
    eq_fail: list[str] = []
    size_fail: list[str] = []
    formula_fail: list[str] = []
    period_fail: list[str] = []
    window_fail: list[str] = []
    # the m+n predecessors of an iterate all rebuild it from one window pair
    rebuilt: dict[tuple[str, str], str] = {}
    n_ideals = 0
    codec = grid_codec(poset)
    for r in reports:
        words = [codec.encode(mask) for mask in r.masks]
        sizes = r.antichain_sizes
        # in the orbit repeated, the j-th iterate of the i-th word and its
        # antichain size sit at i + j, for every j up to the period
        reps = 1 + -(-period // r.length)
        later, later_sizes = words * reps, list(sizes) * reps
        for i, (mask, w) in enumerate(zip(r.masks, words)):
            n_ideals += 1
            if codec.decode(w) != mask:
                rt_fail.append(f"word {w}")
            if later[i + 1] != psi(w):
                eq_fail.append(f"word {w}")
            if count_10(w) != sizes[i]:
                size_fail.append(f"word {w}: {count_10(w)} vs {sizes[i]}")
            ahead = slice(i + 1, i + 1 + period)
            formula = formula_sizes(w)
            iterated = later_sizes[ahead]
            if formula != iterated:
                # zip_longest: a step missing from either list differs too
                step = next(j for j, (s, f) in enumerate(
                    zip_longest(iterated, formula), 1) if s != f)
                formula_fail.append(f"word {w} step {step}")
            if sum(formula) != m * n:
                period_fail.append(f"word {w}: climb total {sum(formula)}")
            # restates "operator order is m+n" word by word, so that a
            # failure names the words that do not return
            if later[i + period] != w:
                period_fail.append(f"word {w} does not return")
            seq0, seq1 = long_sequences(w)
            pairs = zip(seq0.windows, seq1.windows)
            for j, (pair, want) in enumerate(zip(pairs, later[ahead]), 1):
                if pair not in rebuilt:
                    rebuilt[pair] = zigzag(*pair)
                if rebuilt[pair] != want:
                    window_fail.append(f"word {w} window {j}")
                    break
    checks.append(_result("codec round-trips", rt_fail, f"{n_ideals} ideals"))
    checks.append(
        _result("codec transports the dynamics", eq_fail, f"{n_ideals} ideals")
    )
    checks.append(
        _result("descent count equals antichain size", size_fail,
                f"{n_ideals} ideals")
    )
    checks.append(
        _result("profile formula matches iterated sizes", formula_fail,
                f"{n_ideals} words, {period} steps each")
    )
    checks.append(
        _result("size total over one period is mn", period_fail,
                f"{n_ideals} words")
    )
    checks.append(
        _result("windows rebuild every iterate", window_fail,
                f"{n_ideals} words, {period} windows each")
    )
    return poset, reports, checks


def word_iterate_rows(word: str) -> tuple[list[tuple[int, str, int, int]], bool]:
    """Rows (step, word, direct size, formula size) over one period, plus
    whether every comparison agreed and the word returned."""
    rows = []
    ok = True
    cur = word
    for i, formula in enumerate(formula_sizes(word), start=1):
        cur = psi(cur)
        direct = count_10(cur)
        rows.append((i, cur, direct, formula))
        if direct != formula:
            ok = False
    if cur != word:
        ok = False
    return rows, ok


def verify_k_product(
    m: int,
    n: int,
    cap: int = DEFAULT_CAP,
) -> tuple[Poset, tuple[OrbitReport, ...], list[CheckResult]]:
    """Every check on [m]xK(n-1), in one pass over the orbit listing: each
    ideal's iterates, antichain sizes and rowmotion image are read from the
    listing, and psi_bar runs once per starred ideal, for the transport
    check."""
    poset = k_product_poset(m, n)
    period = m + 2 * n - 1
    expected = Fraction(2 * m * n, period)
    checks: list[CheckResult] = []

    average = verify_constant_average(poset, expected, cap)
    checks.append(check_constant_average(
        average, "orbit averages equal 2mn/(m+2n-1)"))
    reports = average.orbits

    codec = k_codec(poset)
    image_of: dict[int, int] = {}
    for r in reports:
        image_of.update(zip(r.masks, r.masks[1:] + r.masks[:1]))
    class_fail: list[str] = []
    n_orbits = {True: 0, False: 0}
    average_fail: dict[bool, list[str]] = {True: [], False: []}
    full_rt: list[str] = []
    full_eq: list[str] = []
    full_size: list[str] = []
    star_rt: list[str] = []
    star_dual_inv: list[str] = []
    star_eq: list[str] = []
    dual_comm: list[str] = []
    window_fail: list[str] = []
    word_period_fail: list[str] = []
    n_full = 0
    n_star = 0
    seen_words: set[str] = set()
    for k, r in enumerate(reports):
        full, words = zip(*map(codec._word, r.masks))
        if len(set(full)) != 1:
            class_fail.append(f"orbit {k} mixes classes")
        else:
            n_orbits[full[0]] += 1
            if r.average_size != expected:
                average_fail[full[0]].append(
                    f"orbit {k} averages {_fraction_str(r.average_size)}")
        for i, (mask, w) in enumerate(zip(r.masks, words)):
            image = (i + 1) % r.length
            if full[i]:
                n_full += 1
                if codec.decode_fullrank(w) != mask:
                    full_rt.append(f"word {w}")
                if words[image] != psi(w):
                    full_eq.append(f"word {w}")
                gamma = r.antichain_sizes[i]
                if count_10(w) + epsilon_n(w) != gamma:
                    full_size.append(
                        f"word {w}: {count_10(w)}+{epsilon_n(w)} vs {gamma}")
                continue
            n_star += 1
            mate = codec.dual(mask)
            if codec._word(mate) != (False, w):
                star_dual_inv.append(f"word {w}")
            if codec.decode_starred(w) not in (mask, mate):
                star_rt.append(f"word {w}")
            if words[image] != psi_bar(w):
                star_eq.append(f"word {w}")
            # a mate missing from the listing has no image: the check fails
            if image_of.get(mate) != codec.dual(r.masks[image]):
                dual_comm.append(f"ideal {IdealSet(poset, mask).bit_string()}")
            if w not in seen_words:
                seen_words.add(w)
                ahead = [(i + j) % r.length for j in range(1, period + 1)]
                if window_sizes_K(w) != [r.antichain_sizes[k] for k in ahead]:
                    window_fail.append(f"word {w}")
                # restates "operator order is m+2n-1" word by word, so
                # that a failure names the words that do not return
                if words[ahead[-1]] != w:
                    word_period_fail.append(f"word {w}")
    checks.append(
        _result("orbits never mix the two fiber classes", class_fail,
                f"{n_orbits[True]} full-rank orbits, {n_orbits[False]} others")
    )
    for label, full in (("full-rank orbit averages", True),
                        ("starred orbit averages", False)):
        checks.append(
            _result(label, average_fail[full],
                    f"{n_orbits[full]} orbits at {_fraction_str(expected)}")
        )
    order = lcm(*(r.length for r in reports))
    checks.append(
        CheckResult(
            "operator order is m+2n-1",
            order == period,
            f"order {order}, expected {period}",
        )
    )
    checks.append(
        _result("full-rank codec round-trips", full_rt, f"{n_full} ideals")
    )
    checks.append(
        _result("full-rank codec transports the dynamics", full_eq,
                f"{n_full} ideals")
    )
    checks.append(
        _result("full-rank size rule (descents plus middle bonus)", full_size,
                f"{n_full} ideals")
    )
    checks.append(
        _result("starred encoding ignores the middle swap", star_dual_inv,
                f"{n_star} ideals")
    )
    checks.append(
        _result("starred codec round-trips to the class", star_rt,
                f"{n_star} ideals")
    )
    checks.append(
        _result("starred codec transports the dynamics", star_eq,
                f"{n_star} ideals")
    )
    checks.append(
        _result("middle swap commutes with the dynamics", dual_comm,
                f"{n_star} ideals")
    )
    checks.append(
        _result("marked-sequence windows give iterate sizes", window_fail,
                f"{len(seen_words)} class words, {period} steps each")
    )
    checks.append(
        _result("starred word returns after m+2n-1 steps", word_period_fail,
                f"{len(seen_words)} class words")
    )
    return poset, reports, checks


def verify_catalog_entry(
    entry: CatalogEntry,
    cap: int = DEFAULT_CAP,
) -> tuple[Poset, list[CheckResult]]:
    root_layer = entry.realize_layer()
    poset = root_layer.poset
    checks = [check_constant_average(
        verify_constant_average(poset, cap=cap),
        f"orbit averages constant [{entry.name}]",
    )]

    failures = []
    star = root_layer.star
    for a, b in poset.covers:
        if not poset.le(star[b], star[a]):
            failures.append(f"cover {poset.labels[a]} < {poset.labels[b]}")
    checks.append(
        _result(f"involution reverses order [{entry.name}]", failures,
                f"{len(poset.covers)} covers")
    )

    expr_poset = entry_expr_poset(entry)
    if expr_poset is not None:
        same = are_isomorphic(poset, expr_poset)
        checks.append(
            CheckResult(
                f"layer matches the combinator build [{entry.name}]",
                same,
                f"{poset.n_elements} elements each" if same
                else "posets differ",
            )
        )
    return poset, checks


def verify_classical_layer(
    family: str,
    rank: int,
    pivot: int,
    cap: int = DEFAULT_CAP,
) -> tuple[Poset, list[CheckResult]]:
    root_layer = build_layer(family, rank, pivot)
    poset = root_layer.poset
    name = root_layer.name
    checks = [check_constant_average(
        verify_constant_average(poset, cap=cap),
        f"orbit averages constant [{name}]",
    )]
    expr = classical_layer_expr(family, rank, pivot)
    same = are_isomorphic(poset, build(expr))
    checks.append(
        CheckResult(
            f"layer matches its classical realization [{name}]",
            same,
            "isomorphic" if same else "posets differ",
        )
    )
    return poset, checks
