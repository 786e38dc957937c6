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

from ._record import TupleRecord
from .catalog import CatalogEntry, classical_layer_expr, entry_expr_poset
from .constructions import build, grid_poset, k_product_poset
from .homomesy import AverageReport, verify_constant_average
from .isomorphism import are_isomorphic
from .poset import CapExceeded, DEFAULT_CAP, IdealSet, OrbitReport, Poset
from .roots import layer as build_layer
from .words import (
    MarkedSequence,
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


class CheckResult(TupleRecord):
    """A named pass/fail result."""

    __slots__ = ()
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


def _shifts(pair: tuple[MarkedSequence, MarkedSequence],
            later: tuple[MarkedSequence, MarkedSequence],
            successor: str) -> bool:
    """Whether one word's marked sequences (pair) are its successor's
    (later) shifted by one own symbol, and its window 1 rebuilds the
    successor: the zero sequence after its first zero must be the
    successor's before its last zero, and the ones sequence before its
    last one the successor's after its first one.  With the kinds and
    widths the same along the orbit, that gives windows(w)[1:] ==
    windows(successor)[:-1] for both kinds, so window j of a word is
    window 1 of its (j-1)-th successor, and zigzag on window 1 of every
    word covers every window.  False when any part fails or a sequence has
    no own symbol or no window."""
    (zeros, ones), (next_zeros, next_ones) = pair, later
    if (zeros.kind, zeros.width, ones.kind, ones.width) != (
            "0", next_zeros.width, "1", next_ones.width):
        return False
    try:
        a, b = zeros.symbols, next_zeros.symbols
        if a[a.index("0") + 1:] != b[:b.rindex("0")]:
            return False
        a, b = ones.symbols, next_ones.symbols
        if a[:a.rindex("1")] != b[b.index("1") + 1:]:
            return False
        return zigzag(zeros.window(1), ones.window(1)) == successor
    except ValueError:
        return False


def _window_failures(words: list[str], period: int) -> list[str]:
    """The words of one orbit whose windows fail to rebuild an iterate,
    window by window, from their marked sequences built again: each word
    names its first failing window, window j of word i rebuilding word
    (i + j) % length.  Words of one orbit share window pairs, and a pair
    met again is not rebuilt."""
    failures = []
    # window pair -> the word zigzag rebuilds from it
    rebuilt: dict[tuple[str, str], str] = {}
    for i, (zeros, ones) in enumerate(map(long_sequences, words)):
        pairs = zip(zeros.windows, ones.windows)
        for j, pair in zip(range(1, period + 1), pairs):
            if pair not in rebuilt:
                rebuilt[pair] = zigzag(*pair)
            if rebuilt[pair] != words[(i + j) % len(words)]:
                failures.append(f"word {words[i]} window {j}")
                break
    return failures


def verify_grid(
    m: int,
    n: int,
    cap: int = DEFAULT_CAP,
) -> tuple[Poset, tuple[OrbitReport, ...], list[CheckResult]]:
    """Every grid check on [m]x[n].  The codec checks read each ideal, its
    rowmotion iterates and their antichain sizes from the orbit listing,
    the k-th iterate of word i being word (i + k) % length; psi runs once
    per word, for the transport check, from the cut of the word that its
    marked sequences are built from.  The profile formula reads the ones
    sequence, and the windows check reads both, word by word: one overlap
    compare per sequence with the next word's and zigzag on window 1
    prove that every window rebuilds its iterate (_shifts), so only the
    orbit's first pair and the last one are kept.  An orbit where that
    fails is checked again window by window, for the names of its failing
    words and windows (_window_failures).  A grid of cap elements or more
    has more than cap ideals, so it is refused before it is built."""
    if m * n >= cap:
        raise CapExceeded(f"more than {cap} ideals")
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
    n_ideals = 0
    codec = grid_codec(poset)
    for r in reports:
        masks, sizes, length = r.masks, r.antichain_sizes, r.length
        words = list(map(codec.encode, masks))
        # the k-th iterate of word i is word (i + k) % length, and ahead[k]
        # is the size of the k-th iterate of the orbit's first word
        ahead = [sizes[k % length] for k in range(length + period)]
        # the windows check keeps the orbit's first pair and the last one
        shifted = True
        for i, (mask, w) in enumerate(zip(masks, words)):
            n_ideals += 1
            if codec.decode(w) != mask:
                rt_fail.append(f"word {w}")
            if words[(i + 1) % length] != psi(w):
                eq_fail.append(f"word {w}")
            if count_10(w) != sizes[i]:
                size_fail.append(f"word {w}: {count_10(w)} vs {sizes[i]}")
            pair = long_sequences(w)
            if i:
                shifted = shifted and _shifts(last, pair, w)
            else:
                first = pair
            last = pair
            formula = formula_sizes(w, pair[1])
            iterated = ahead[i + 1 : i + 1 + period]
            if formula != iterated:
                # zip_longest: a step missing from either list differs too
                step = next(j for j, (s, f) in enumerate(
                    zip_longest(iterated, formula), 1) if s != f)
                formula_fail.append(f"word {w} step {step}")
            if sum(formula) != m * n:
                period_fail.append(f"word {w}: climb total {sum(formula)}")
            # restates "operator order is m+n" word by word, so that a
            # failure names the words that do not return
            if words[(i + period) % length] != w:
                period_fail.append(f"word {w} does not return")
        if not (shifted and _shifts(last, first, words[0])):
            window_fail += _window_failures(words, period)
    per_ideal, per_word = f"{n_ideals} ideals", f"{n_ideals} words"
    checks += [_result(*check) for check in (
        ("codec round-trips", rt_fail, per_ideal),
        ("codec transports the dynamics", eq_fail, per_ideal),
        ("descent count equals antichain size", size_fail, per_ideal),
        ("profile formula matches iterated sizes", formula_fail,
         f"{per_word}, {period} steps each"),
        ("size total over one period is mn", period_fail, per_word),
        ("windows rebuild every iterate", window_fail,
         f"{per_word}, {period} windows each"),
    )]
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
    check.  Each listed ideal's word and its class come from one
    codec.encode, and each starred ideal's mate, which the dual-invariance
    and commute checks read, from one codec.dual.  The per-class average
    checks read the one constant-average report.  A product of cap
    elements or more is refused before it is built, as in verify_grid."""
    if 2 * m * n >= cap:
        raise CapExceeded(f"more than {cap} ideals")
    poset = k_product_poset(m, n)
    period = m + 2 * n - 1
    expected = Fraction(2 * m * n, period)
    checks: list[CheckResult] = []

    average = verify_constant_average(poset, expected, cap)
    checks.append(check_constant_average(
        average, "orbit averages equal 2mn/(m+2n-1)"))
    reports = average.orbits

    codec = k_codec(poset)
    # each listed ideal's word and rowmotion image
    word_of: dict[int, str] = {}
    image_of: dict[int, int] = {}
    for r in reports:
        word_of.update(zip(r.masks, map(codec.encode, r.masks)))
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
    failing = dict(average.failures)
    for k, r in enumerate(reports):
        masks, sizes, length = r.masks, r.antichain_sizes, r.length
        words = list(map(word_of.__getitem__, masks))
        full = ["*" not in w for w in words]
        # a mixed orbit swaps its full-rank ideals too, for the commute
        # check of the starred ideals before them
        mates = () if all(full) else list(map(codec.dual, masks))
        if len(set(full)) != 1:
            class_fail.append(f"orbit {k} mixes classes")
        else:
            n_orbits[full[0]] += 1
            if k in failing:
                average_fail[full[0]].append(
                    f"orbit {k} averages {_fraction_str(failing[k])}")
        # the j-th iterate of word i is word (i + j) % length, and ahead[j]
        # is the size of the j-th iterate of the orbit's first word
        ahead = [sizes[j % length] for j in range(length + period)]
        for i, (mask, w) in enumerate(zip(masks, words)):
            image = (i + 1) % length
            if full[i]:
                n_full += 1
                if codec.decode(w) != mask:
                    full_rt.append(f"word {w}")
                if words[image] != psi(w):
                    full_eq.append(f"word {w}")
                if count_10(w) + epsilon_n(w) != sizes[i]:
                    full_size.append(f"word {w}: {count_10(w)}+"
                                     f"{epsilon_n(w)} vs {sizes[i]}")
                continue
            n_star += 1
            mate = mates[i]
            # only a mate missing from the listing is encoded here
            if (word_of.get(mate) or codec.encode(mate)) != w:
                star_dual_inv.append(f"word {w}")
            if codec.decode(w) not in (mask, mate):
                star_rt.append(f"word {w}")
            if words[image] != psi_bar(w):
                star_eq.append(f"word {w}")
            # a mate missing from the listing has no image: the check fails
            if image_of.get(mate) != mates[image]:
                dual_comm.append(f"ideal {IdealSet(poset, mask).bit_string()}")
            if w not in seen_words:
                seen_words.add(w)
                if window_sizes_K(w) != ahead[i + 1 : i + 1 + period]:
                    window_fail.append(f"word {w}")
                # restates "operator order is m+2n-1" word by word, so
                # that a failure names the words that do not return
                if words[(i + period) % length] != w:
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
    full_ideals, star_ideals = f"{n_full} ideals", f"{n_star} ideals"
    class_words = f"{len(seen_words)} class words"
    checks += [_result(*check) for check in (
        ("full-rank codec round-trips", full_rt, full_ideals),
        ("full-rank codec transports the dynamics", full_eq, full_ideals),
        ("full-rank size rule (descents plus middle bonus)", full_size,
         full_ideals),
        ("starred encoding ignores the middle swap", star_dual_inv,
         star_ideals),
        ("starred codec round-trips to the class", star_rt, star_ideals),
        ("starred codec transports the dynamics", star_eq, star_ideals),
        ("middle swap commutes with the dynamics", dual_comm, star_ideals),
        ("marked-sequence windows give iterate sizes", window_fail,
         f"{class_words}, {period} steps each"),
        ("starred word returns after m+2n-1 steps", word_period_fail,
         class_words),
    )]
    return poset, reports, checks


def verify_catalog_entry(
    entry: CatalogEntry,
    cap: int = DEFAULT_CAP,
) -> tuple[Poset, list[CheckResult]]:
    root_layer = entry.realize_layer(cap)
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
    root_layer = build_layer(family, rank, pivot, cap)
    poset = root_layer.poset
    name = root_layer.name
    checks = [check_constant_average(
        verify_constant_average(poset, cap=cap),
        f"orbit averages constant [{name}]",
    )]
    expr = classical_layer_expr(family, rank, pivot)
    same = are_isomorphic(poset, build(expr, cap))
    checks.append(
        CheckResult(
            f"layer matches its classical realization [{name}]",
            same,
            "isomorphic" if same else "posets differ",
        )
    )
    return poset, checks
