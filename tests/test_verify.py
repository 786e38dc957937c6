"""The verification suites of rowmotion.verify: their counts, and that each
named check fails when the map it checks is wrong."""

import re
import time
from fractions import Fraction
from math import comb

import pytest

import rowmotion.verify as verify
import rowmotion.words
from rowmotion.catalog import classical_layer_expr
from rowmotion.cli import main
from rowmotion.constructions import build
from rowmotion.poset import CapExceeded, IdealSet, Poset, ideal_masks
from rowmotion.words import (
    MarkedSequence,
    SizeProfile,
    long_sequences,
    psi,
    psi_iterates,
)
import word_oracles


def _counts(checks, unit):
    """{check name: N} for every check whose note reads 'N <unit>'."""
    out = {}
    for c in checks:
        found = re.match(rf"(\d+) {unit}\b", c.details)
        if found:
            out[c.name] = int(found.group(1))
    return out


def _failed(checks):
    return {c.name for c in checks if not c.passed}


@pytest.mark.parametrize("m,n", [(1, 1), (2, 3), (3, 3), (4, 2)])
def test_grid_notes_count_every_ideal(m, n):
    poset, reports, checks = verify.verify_grid(m, n)
    assert not _failed(checks)
    ideals = _counts(checks, "ideals")
    words = _counts(checks, "words")
    assert len(ideals) == 3 and len(words) == 3
    assert set(ideals.values()) == set(words.values()) == {comb(m + n, m)}
    assert sum(r.length for r in reports) == comb(m + n, m)


@pytest.mark.parametrize("m,n", [(1, 1), (2, 2), (3, 2), (2, 3)])
def test_k_notes_count_every_ideal(m, n):
    poset, reports, checks = verify.verify_k_product(m, n)
    assert not _failed(checks)
    ideals = _counts(checks, "ideals")
    full = {ideals[name] for name in ideals if name.startswith("full-rank")}
    starred = {ideals[name] for name in ideals if not name.startswith("full")}
    assert len(full) == 1 and len(starred) == 1
    total = sum(1 for _ in ideal_masks(poset))
    assert full.pop() + starred.pop() == total
    assert sum(r.length for r in reports) == total


def _sorted_word(word):
    # a map that is not rowmotion: it settles on one word and stays there
    return "".join(sorted(word))


def _flat_profile(ones):
    # a profile that never gains or loses: every iterate keeps w's size;
    # the marked ones sequence of w holds m+2n ones, n being its width
    n = ones.width
    m = len(ones.positions) - 2 * n
    return SizeProfile(m, n, (0,) * (m + n), (0,) * (m + n))


# psi and psi_bar feed only the transport checks: every later iterate is
# read from the orbit listing
@pytest.mark.parametrize("name,wrong,suite,args,names", [
    ("psi", _sorted_word, "verify_grid", (3, 4), {
        "codec transports the dynamics",
    }),
    ("psi", _sorted_word, "verify_k_product", (3, 2), {
        "full-rank codec transports the dynamics",
    }),
    ("psi_bar", _sorted_word, "verify_k_product", (3, 2), {
        "starred codec transports the dynamics",
    }),
    ("window_sizes_K", lambda sword: [0], "verify_k_product", (3, 2), {
        "marked-sequence windows give iterate sizes",
    }),
    ("ones_profile", _flat_profile, "verify_grid", (3, 4), {
        "profile formula matches iterated sizes",
        "size total over one period is mn",
    }),
    ("zigzag", lambda window0, window1: "", "verify_grid", (3, 4), {
        "windows rebuild every iterate",
    }),
])
def test_a_wrong_word_map_fails_its_checks(monkeypatch, capsys, name, wrong,
                                           suite, args, names):
    # the suites read ones_profile through words.formula_sizes
    owner = rowmotion.words if name == "ones_profile" else verify
    monkeypatch.setattr(owner, name, wrong)
    _, _, checks = getattr(verify, suite)(*args)
    assert _failed(checks) == names
    assert all("word " in c.details for c in checks if c.name in names)
    command = "verify-grid" if suite == "verify_grid" else "verify-k"
    code = main([command, *map(str, args), "--no-timing"])
    out = capsys.readouterr().out
    assert code == 1
    assert out.count("[FAIL]") == len(names)


def _wrong_k_decode(starred):
    # a decode one bit off on the words of one class
    real = rowmotion.words.KCodec.decode

    def wrong(self, word):
        mask = real(self, word)
        return mask ^ 1 if ("*" in word) == starred else mask
    return wrong


def _dual_one_step_ahead(self, mask, real=rowmotion.words.KCodec.dual):
    return self.poset.rowmotion_ideal_mask(real(self, mask))


def _fiber_decode_one_bit_off(self, word,
                              real=rowmotion.words.FiberCodec.decode):
    return real(self, word) ^ 1


def _one_descent_more(word, real=verify.count_10):
    return real(word) + 1


_FIRST_STARRED = ("word 001*011; word 010*011; word 10*0101; word 1*01010; "
                  "word 1*01100")


# the full details of every failing check under each fault, byte for byte
@pytest.mark.parametrize("owner,name,wrong,suite,args,details", [
    (verify, "psi", _sorted_word, "verify_grid", (3, 4), {
        "codec transports the dynamics":
            "word 0001111; word 0010111; word 0101011; word 1010101; "
            "word 1101010; and 29 more",
    }),
    (verify, "psi", _sorted_word, "verify_k_product", (3, 2), {
        "full-rank codec transports the dynamics":
            "word 000111; word 001011; word 010101; word 101010; "
            "word 110100; and 14 more",
    }),
    (verify, "psi_bar", _sorted_word, "verify_k_product", (3, 2), {
        "starred codec transports the dynamics":
            _FIRST_STARRED + "; and 25 more",
    }),
    (verify, "window_sizes_K", lambda sword: [0], "verify_k_product", (3, 2), {
        "marked-sequence windows give iterate sizes":
            _FIRST_STARRED + "; and 10 more",
    }),
    (rowmotion.words, "ones_profile", _flat_profile, "verify_grid", (3, 4), {
        "profile formula matches iterated sizes":
            "word 0001111 step 1; word 0010111 step 1; word 0101011 step 1; "
            "word 1010101 step 2; word 1101010 step 1; and 30 more",
        "size total over one period is mn":
            "word 0001111: climb total 0; word 0010111: climb total 7; "
            "word 0101011: climb total 14; word 1010101: climb total 21; "
            "word 1101010: climb total 21; and 30 more",
    }),
    (verify, "zigzag", lambda window0, window1: "", "verify_grid", (3, 4), {
        "windows rebuild every iterate":
            "word 0001111 window 1; word 0010111 window 1; "
            "word 0101011 window 1; word 1010101 window 1; "
            "word 1101010 window 1; and 30 more",
    }),
    (rowmotion.words.KCodec, "decode", _wrong_k_decode(False),
     "verify_k_product", (3, 2), {
        "full-rank codec round-trips":
            "word 000111; word 001011; word 010101; word 101010; "
            "word 110100; and 15 more",
    }),
    (rowmotion.words.KCodec, "decode", _wrong_k_decode(True),
     "verify_k_product", (3, 2), {
        "starred codec round-trips to the class":
            _FIRST_STARRED + "; and 25 more",
    }),
    (rowmotion.words.KCodec, "dual", _dual_one_step_ahead,
     "verify_k_product", (3, 2), {
        "starred encoding ignores the middle swap":
            _FIRST_STARRED + "; and 25 more",
        "starred codec round-trips to the class":
            "word 001*011; word 1*01100; word 010*011; word 10*0101; "
            "word 1*01010; and 10 more",
    }),
    (rowmotion.words.FiberCodec, "decode", _fiber_decode_one_bit_off,
     "verify_grid", (3, 4), {
        "codec round-trips":
            "word 0001111; word 0010111; word 0101011; word 1010101; "
            "word 1101010; and 30 more",
    }),
    (verify, "count_10", _one_descent_more, "verify_grid", (3, 4), {
        "descent count equals antichain size":
            "word 0001111: 1 vs 0; word 0010111: 2 vs 1; "
            "word 0101011: 3 vs 2; word 1010101: 4 vs 3; "
            "word 1101010: 4 vs 3; and 30 more",
    }),
    (verify, "count_10", _one_descent_more, "verify_k_product", (3, 2), {
        "full-rank size rule (descents plus middle bonus)":
            "word 000111: 1+0 vs 0; word 001011: 2+0 vs 1; "
            "word 010101: 3+1 vs 3; word 101010: 4+1 vs 4; "
            "word 110100: 3+1 vs 3; and 15 more",
    }),
])
def test_a_wrong_map_fails_with_these_details(monkeypatch, owner, name, wrong,
                                              suite, args, details):
    monkeypatch.setattr(owner, name, wrong)
    _, _, checks = getattr(verify, suite)(*args)
    assert {c.name: c.details for c in checks if not c.passed} == details


def test_a_profile_wrong_at_the_last_step_names_that_step(monkeypatch):
    # the formula check compares every step of the period, the last too
    real = rowmotion.words.ones_profile

    def late(word):
        prof = real(word)
        p_values = prof.p_values[:-1] + (1 - prof.p_values[-1],)
        return SizeProfile(prof.m, prof.n, p_values, prof.q_values)

    monkeypatch.setattr(rowmotion.words, "ones_profile", late)
    _, _, checks = verify.verify_grid(3, 4)
    (check,) = [c for c in checks
                if c.name == "profile formula matches iterated sizes"]
    assert not check.passed
    assert set(re.findall(r"step (\d+)", check.details)) == {"7"}


def test_a_profile_one_step_short_names_the_missing_step(monkeypatch):
    # a formula list shorter than the period must not pass through zip
    real = rowmotion.words.ones_profile

    def short(word):
        prof = real(word)
        return SizeProfile(prof.m, prof.n, prof.p_values[:-1],
                           prof.q_values[:-1])

    monkeypatch.setattr(rowmotion.words, "ones_profile", short)
    _, _, checks = verify.verify_grid(3, 4)
    (check,) = [c for c in checks
                if c.name == "profile formula matches iterated sizes"]
    assert not check.passed
    assert set(re.findall(r"step (\d+)", check.details)) == {"7"}


def test_suites_step_each_ideal_once_for_the_listing(monkeypatch):
    # the listing comes from one bit-sliced step and every check reads each
    # image from it, the middle swap's image too: no mask step runs
    calls = []
    step = Poset.rowmotion_ideal_mask

    def counted(self, mask):
        calls.append(mask)
        return step(self, mask)

    monkeypatch.setattr(Poset, "rowmotion_ideal_mask", counted)
    verify.verify_grid(4, 4)
    assert calls == []
    _, _, checks = verify.verify_k_product(4, 3)
    assert not _failed(checks)
    assert calls == []


def test_k_suite_encodes_each_ideal_once_and_swaps_each_starred_ideal_once(
        monkeypatch):
    # the dual-invariance check reads the mate's word from the listing's
    # words, and the commute check reads the next ideal's mate from the
    # orbit's mates
    calls = {"encode": [], "dual": []}

    def counted(name):
        real = getattr(rowmotion.words.KCodec, name)

        def call(self, mask):
            calls[name].append(mask)
            return real(self, mask)
        return call

    for name in calls:
        monkeypatch.setattr(rowmotion.words.KCodec, name, counted(name))
    poset, reports, checks = verify.verify_k_product(4, 3)
    assert not _failed(checks)
    n_star = _counts(checks, "ideals")["starred codec transports the dynamics"]
    listed = [mask for r in reports for mask in r.masks]
    assert sorted(calls["encode"]) == sorted(listed)
    assert len(calls["dual"]) == len(set(calls["dual"])) == n_star
    codec = rowmotion.words.k_codec(poset)
    assert all("*" in codec.encode(mask) for mask in calls["dual"])


def test_a_long_grid_orbit_passes_without_positions(monkeypatch):
    # [1]x[1500] is one orbit of 1501 words; the windows check keeps two
    # pairs of marked sequences, and no sequence finds its positions
    built = []
    init = MarkedSequence.__init__

    def counted_init(self, symbols, kind, width):
        built.append(self)
        init(self, symbols, kind, width)

    monkeypatch.setattr(MarkedSequence, "__init__", counted_init)
    _, reports, checks = verify.verify_grid(1, 1500)
    assert not _failed(checks)
    assert [r.length for r in reports] == [1501]
    assert len(built) == 2 * 1501
    assert not any("positions" in vars(seq) for seq in built)


@pytest.mark.parametrize("role", ["image", "mate"])
def test_a_wrong_middle_swap_fails_the_commute_check_alone(monkeypatch, role):
    # a swap wrong on every call for one mask, of an orbit's first ideal x
    # or of its second, x's image.  x fails the commute check alone: with
    # a wrong image, or with a mate outside the listing, which has no image
    # there.  The ideal whose swap is wrong also fails the check as itself
    # (a spoiled mate outside the listing), or as the ideal before x, and
    # a wrong mate of x's image encodes to another word
    poset, reports, _ = verify.verify_k_product(3, 2)
    codec = rowmotion.words.k_codec(poset)
    # x decodes to itself, so a spoiled mate keeps the round trip
    r = next(r for r in reports if r.length > 1
             and "*" in codec.encode(r.masks[0])
             and codec.decode(codec.encode(r.masks[0])) == r.masks[0])
    if role == "image":
        target, spoil, before = r.masks[1], 1, r.masks[1]
    else:
        target, spoil, before = r.masks[0], 1 << poset.n_elements, r.masks[-1]
    real = rowmotion.words.KCodec.dual
    spoiled = []

    def wrong(self, mask):
        out = real(self, mask)
        if mask == target:
            spoiled.append(mask)
            return out ^ spoil
        return out

    monkeypatch.setattr(rowmotion.words.KCodec, "dual", wrong)
    _, _, checks = verify.verify_k_product(3, 2)
    assert spoiled and set(spoiled) == {target}
    details = {c.name: c.details for c in checks if not c.passed}
    x, other = (IdealSet(poset, mask).bit_string()
                for mask in (r.masks[0], before))
    expected = {"middle swap commutes with the dynamics":
                f"ideal {x}; ideal {other}"}
    if role == "image":
        expected["starred encoding ignores the middle swap"] = (
            f"word {codec.encode(target)}")
    assert details == expected


def test_suites_step_each_word_once_for_the_transport(monkeypatch):
    # psi and psi_bar run once per word, for the transport check alone
    calls = {"psi": 0, "psi_bar": 0}

    def counted(name):
        real = getattr(verify, name)

        def step(word):
            calls[name] += 1
            return real(word)
        return step

    for name in calls:
        monkeypatch.setattr(verify, name, counted(name))
    _, _, checks = verify.verify_grid(4, 4)
    assert not _failed(checks)
    assert calls == {"psi": comb(8, 4), "psi_bar": 0}
    calls["psi"] = 0
    _, _, checks = verify.verify_k_product(4, 3)
    assert not _failed(checks)
    ideals = _counts(checks, "ideals")
    assert calls == {
        "psi": ideals["full-rank codec transports the dynamics"],
        "psi_bar": ideals["starred codec transports the dynamics"],
    }


@pytest.mark.parametrize("starred", [False, True])
def test_a_failing_orbit_average_is_named_in_its_class(monkeypatch, starred):
    # the class average checks read the failures of the one average report
    poset, reports, _ = verify.verify_k_product(3, 2)
    codec = rowmotion.words.k_codec(poset)
    k = next(k for k, r in enumerate(reports)
             if ("*" in codec.encode(r.masks[0])) == starred)
    real = verify.verify_constant_average

    def wrong(poset, expected, cap):
        return real(poset, expected, cap)._replace(
            passed=False, failures=((k, Fraction(0)),),
            failure_lengths=(reports[k].length,))

    monkeypatch.setattr(verify, "verify_constant_average", wrong)
    _, _, checks = verify.verify_k_product(3, 2)
    label = "starred orbit averages" if starred else "full-rank orbit averages"
    assert _failed(checks) == {"orbit averages equal 2mn/(m+2n-1)", label}
    (check,) = [c for c in checks if c.name == label]
    assert check.details == f"orbit {k} averages 0/1"


@pytest.mark.parametrize("starred,name", [
    (False, "full-rank codec round-trips"),
    (True, "starred codec round-trips to the class"),
])
def test_a_wrong_k_decode_fails_its_round_trip_alone(monkeypatch, starred,
                                                    name):
    real = rowmotion.words.KCodec.decode

    def wrong(self, word):
        mask = real(self, word)
        return mask ^ 1 if ("*" in word) == starred else mask

    monkeypatch.setattr(rowmotion.words.KCodec, "decode", wrong)
    _, _, checks = verify.verify_k_product(3, 2)
    assert _failed(checks) == {name}


def test_a_middle_swap_one_step_ahead_fails_the_class_checks(monkeypatch):
    # the swap followed by one rowmotion step still commutes with the
    # dynamics, but it moves the starred word along its orbit, and it
    # takes an ideal that holds the primed middle out of its class
    real = rowmotion.words.KCodec.dual

    def ahead(self, mask):
        return self.poset.rowmotion_ideal_mask(real(self, mask))

    monkeypatch.setattr(rowmotion.words.KCodec, "dual", ahead)
    _, _, checks = verify.verify_k_product(3, 2)
    assert _failed(checks) == {"starred encoding ignores the middle swap",
                               "starred codec round-trips to the class"}


def test_k_suite_validates_each_starred_word_once_per_use(monkeypatch):
    # psi_bar validates the word of each starred ideal for its step, and
    # window_sizes_K, which reads the class word psi_bar has just read,
    # does not check it again; the codec decodes the words it made
    # without validating them again
    calls = []
    real = rowmotion.words.validate_starred

    def counted(sword):
        calls.append(sword)
        return real(sword)

    monkeypatch.setattr(rowmotion.words, "validate_starred", counted)
    _, _, checks = verify.verify_k_product(4, 3)
    assert not _failed(checks)
    n_star = _counts(checks, "ideals")["starred codec transports the dynamics"]
    n_class = _counts(checks, "class words")[
        "marked-sequence windows give iterate sizes"]
    assert n_star and n_class
    assert len(calls) <= n_star


def test_grid_builds_each_words_marked_sequences_once(monkeypatch):
    # one split of each word gives both its marked sequences and psi's
    # transport step, and the profile formula reads the ones sequence the
    # windows check reads
    rowmotion.words._runs.cache_clear()
    built, split = [], []
    init = MarkedSequence.__init__
    real_split = rowmotion.words._split

    def counted_init(self, symbols, kind, width):
        built.append(kind)
        init(self, symbols, kind, width)

    def counted_split(word):
        split.append(word)
        return real_split(word)

    monkeypatch.setattr(MarkedSequence, "__init__", counted_init)
    monkeypatch.setattr(rowmotion.words, "_split", counted_split)
    _, reports, checks = verify.verify_grid(4, 4)
    assert not _failed(checks)
    assert sorted(built) == ["0"] * comb(8, 4) + ["1"] * comb(8, 4)
    codec = rowmotion.words.grid_codec(reports[0].poset)
    words = [codec.encode(mask) for r in reports for mask in r.masks]
    assert sorted(split) == sorted(words)
    assert len(set(words)) == comb(8, 4)


def test_grid_rebuilds_each_window_pair_once(monkeypatch):
    # every iterate is rebuilt from the same window pair by each of its
    # m+n predecessors; there are as many distinct pairs as ideals
    calls = []
    real = verify.zigzag

    def counted(window0, window1):
        calls.append((window0, window1))
        return real(window0, window1)

    monkeypatch.setattr(verify, "zigzag", counted)
    for m, n in [(4, 4), (3, 4)]:
        calls.clear()
        _, _, checks = verify.verify_grid(m, n)
        assert not _failed(checks)
        assert len(calls) == len(set(calls)) == comb(m + n, m)


def test_a_zigzag_wrong_on_one_pair_fails_the_windows_check(monkeypatch):
    # the pair rebuilt once must still be compared for every word that
    # reaches it
    real = verify.zigzag
    low, high = long_sequences("0101011")
    bad = (low.window(1), high.window(1))

    def wrong(window0, window1):
        word = real(window0, window1)
        return word[1:] + word[0] if (window0, window1) == bad else word

    monkeypatch.setattr(verify, "zigzag", wrong)
    _, _, checks = verify.verify_grid(3, 4)
    assert _failed(checks) == {"windows rebuild every iterate"}
    # each of the seven words on the orbit of 0101011 reaches the pair at
    # the window that rebuilds psi(0101011)
    (check,) = [c for c in checks if not c.passed]
    named = re.findall(r"word ([01]{7}) window (\d)", check.details)
    assert len(named) == 5 and check.details.endswith("; and 2 more")
    for word, j in named:
        assert psi_iterates(word, int(j))[-1] == psi("0101011")


@pytest.mark.parametrize("kind,symbols,corrupted_symbols", [
    (0, "0-0-0-0-0000-0-0-", "0-0-0-0-0x00-0-0-"),
    (1, "-1-1-11111-1-1-11", "-1-1-11x11-1-1-11"),
])
def test_a_sequence_wrong_past_window_one_fails_the_windows_check(
        monkeypatch, kind, symbols, corrupted_symbols):
    # a stray letter in place of an own symbol of one of 0101011's marked
    # sequences leaves window 1 and the dashes alone, so every window still
    # interlocks, but window 3 rebuilds a word one letter too long; window 1
    # of every word is right, so only the overlap with the neighbouring
    # words can catch it
    real = verify.long_sequences
    pair = list(real("0101011"))
    assert pair[kind].symbols == symbols
    bad = MarkedSequence(corrupted_symbols, pair[kind].kind, pair[kind].width)
    assert bad.window(1) == pair[kind].window(1)
    pair[kind] = bad

    def corrupted(word):
        return tuple(pair) if word == "0101011" else real(word)

    monkeypatch.setattr(verify, "long_sequences", corrupted)
    _, reports, checks = verify.verify_grid(3, 4)
    assert _failed(checks) == {"windows rebuild every iterate"}
    (check,) = [c for c in checks if not c.passed]
    assert check.details == "word 0101011 window 3"
    expected = word_oracles.grid_window_failures(reports, corrupted)
    assert check.details == "; ".join(expected)


@pytest.mark.parametrize("m,n", [(2, 3), (3, 4), (4, 4)])
def test_the_windows_check_fails_as_the_window_by_window_loop(monkeypatch, m,
                                                              n):
    # zigzag wrong on one window pair, for the pairs of windows 1, 2 and
    # m+n of a few words: the details are those of the loop over every
    # window of every word
    real = verify.zigzag
    _, reports, _ = verify.verify_grid(m, n)
    codec = rowmotion.words.grid_codec(reports[0].poset)
    words = [codec.encode(mask) for r in reports[:3] for mask in r.masks[:2]]
    for word in words:
        zeros, ones = long_sequences(word)
        for j in (1, 2, m + n):
            bad = (zeros.window(j), ones.window(j))

            def wrong(window0, window1):
                rebuilt = real(window0, window1)
                if (window0, window1) == bad:
                    return rebuilt[1:] + rebuilt[0]
                return rebuilt

            monkeypatch.setattr(verify, "zigzag", wrong)
            _, _, checks = verify.verify_grid(m, n)
            (check,) = [c for c in checks
                        if c.name == "windows rebuild every iterate"]
            expected = word_oracles.grid_window_failures(
                reports, rebuild=wrong)
            assert expected, (word, j)
            assert check == verify._result(check.name, expected), (word, j)


@pytest.mark.parametrize("family,rank,pivot", [
    ("A", 3, 1), ("D", 5, 2), ("C", 4, 4),
])
def test_classical_layer_passes_every_check(family, rank, pivot):
    poset, checks = verify.verify_classical_layer(family, rank, pivot)
    assert isinstance(poset, Poset)
    assert poset.n_elements == build(
        classical_layer_expr(family, rank, pivot)).n_elements
    assert len(checks) == 2 and not _failed(checks)
    expected = Fraction(poset.n_elements, poset.max_rank + 1)
    assert checks[0].details.endswith(
        f"every average {expected.numerator}/{expected.denominator}")


def test_classical_layer_refuses_a_large_layer_before_building_it():
    # layer(A200,100) has 10000 elements: both builds stop at the cap
    start = time.perf_counter()
    with pytest.raises(CapExceeded):
        verify.verify_classical_layer("A", 200, 100, cap=100)
    assert time.perf_counter() - start < 1.0


def test_average_note_reads_the_default_expectation():
    # [2]x[3]: 6 elements over ranks 1..4, 10 ideals in two orbits of 5
    poset = build(classical_layer_expr("A", 4, 2))
    check = verify.check_constant_average(verify.verify_constant_average(poset))
    assert check.passed
    assert check.details == "2 orbits, every average 6/5"
