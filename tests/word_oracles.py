"""Reference implementations that the tests compare the library against.

psi_bar_cases is the five-case block table for the starred step.  It reads
the plain form of the word, unlike the run shift that rowmotion.words.psi_bar
uses, so the two agree only if both descriptions of the step are right.

sliced_window is the window of a marked sequence read from the slice of
its own-symbol positions, found one character at a time by own_positions,
with min and max for the ends; rowmotion.words.MarkedSequence.window
takes the ends straight from its positions, which run up or down by kind.

grid_window_failures is the windows check of verify_grid window by
window: zigzag on every window pair of every word, against the listed
iterates.  rowmotion.verify proves the same claim from window 1 of each
word and the overlap of consecutive words' marked sequences, and runs this
loop only on an orbit where that proof fails.

string_size_profile and string_window_sizes_K read the P/Q profile and
the K window sizes one character at a time, from the marked sequences
and their windows as strings; rowmotion.words reads both with string
replaces over the whole marked sequence, without building a window.

run_long_sequences and run_long_zero_sequence_K build the marked sequences
string by string from the runs of the word, one builder for the binary
forms and another for the starred form; rowmotion.words builds all three
with one builder from the runs of the other symbol.

block_set_profile is the paper's P/Q rule for words that start with 0 and
end with 1: four index sets read off the block form.  rowmotion.words
reads the same profile from the dashes of the marked ones sequence.

The fiber readers below read an ideal of [m]x[n] or [m]xK(n-1) through its
element keys: the largest column of each grid row, and for K the top rank of
each fiber together with the middle it holds when it holds exactly one.  The
codecs in rowmotion.words fix each fiber by its size alone instead.
"""

from dataclasses import dataclass
from itertools import accumulate, groupby

from rowmotion.constructions import grid_poset, k_product_poset
from rowmotion.words import (
    MarkedSequence,
    SizeProfile,
    grid_codec,
    long_sequences,
    parse_blocks,
    plain_to_starred,
    psi,
    starred_to_plain,
    validate_starred,
    zigzag,
)


def psi_bar_cases(sword: str) -> str:
    """One starred step through the five-case table."""
    _, n = validate_starred(sword)
    return plain_to_starred(_cases(starred_to_plain(sword), n))


def _cases(word: str, n: int) -> str:
    """Five-case table on the plain form of a starred word."""
    blocks = parse_blocks(word)
    s = len(blocks)
    if s < 2:
        raise ValueError("starred words have at least two block pairs")
    total = 0
    i = 0
    for j, (a, _) in enumerate(blocks, start=1):
        total += a
        if total == n:
            i = j
            break
    if not 1 <= i <= s - 1:
        raise ValueError("no block boundary at the middle one")
    out = list(blocks)
    a_i = blocks[i - 1][0]
    if i == 1 and s == 2:
        (a1, b1), (a2, b2) = blocks
        parts = ["0" * (b1 - 1) + "1" * a1, "0" * (b2 + 1) + "1" * a2]
        return "".join(parts)
    if i == 1:
        parts = ["0" * (blocks[0][1] - 1) + "1" * blocks[0][0]]
        parts.append("0" * blocks[1][1] + "1" * (blocks[1][0] + 1))
        for j in range(2, s - 1):
            parts.append("0" * blocks[j][1] + "1" * blocks[j][0])
        parts.append("0" * (blocks[-1][1] + 1) + "1" * (blocks[-1][0] - 1))
        return "".join(parts)
    if a_i == 1:
        return psi(word)
    if i < s - 1:
        parts = ["0" * (blocks[0][1] - 1) + "1" * (blocks[0][0] + 1)]
        for j in range(1, s - 1):
            a, b = blocks[j]
            if j == i - 1:
                a -= 1
            elif j == i:
                a += 1
            parts.append("0" * b + "1" * a)
        parts.append("0" * (blocks[-1][1] + 1) + "1" * (blocks[-1][0] - 1))
        return "".join(parts)
    # i == s-1 with a_i > 1: the last ones count survives intact
    parts = ["0" * (blocks[0][1] - 1) + "1" * (blocks[0][0] + 1)]
    for j in range(1, s - 1):
        a, b = blocks[j]
        if j == i - 1:
            a -= 1
        parts.append("0" * b + "1" * a)
    parts.append("0" * (blocks[-1][1] + 1) + "1" * blocks[-1][0])
    return "".join(parts)

# -- the sliced window -------------------------------------------------------


def own_positions(seq) -> list[int]:
    """The own-symbol positions of a MarkedSequence in window order: left
    to right for kind '0', right to left for kind '1'."""
    own = [p for p, ch in enumerate(seq.symbols) if ch == seq.kind]
    return own[::-1] if seq.kind == "1" else own


def sliced_window(seq, i: int) -> str:
    """Window i of a MarkedSequence from its chosen own-symbol positions."""
    positions = own_positions(seq)
    if i < 1 or i + seq.width > len(positions):
        raise ValueError(f"window {i} out of range")
    chosen = positions[i : i + seq.width]
    lo, hi = min(chosen), max(chosen)
    if lo > 0 and seq.symbols[lo - 1] == "-":
        lo -= 1
    if hi + 1 < len(seq.symbols) and seq.symbols[hi + 1] == "-":
        hi += 1
    return seq.symbols[lo : hi + 1]


def grid_window_failures(reports, sequences=long_sequences,
                         rebuild=zigzag) -> list[str]:
    """The words of a grid orbit listing whose windows do not rebuild an
    iterate, orbit by orbit: window j of each word against the j-th listed
    iterate, for j up to m+n, each word naming its first failing window."""
    codec = grid_codec(reports[0].poset)
    period = codec.m + codec.n
    failures = []
    for r in reports:
        words = [codec.encode(mask) for mask in r.masks]
        later = words * (1 + -(-period // r.length))
        for i, word in enumerate(words):
            zeros, ones = sequences(word)
            pairs = zip(zeros.windows, ones.windows)
            wants = later[i + 1 : i + 1 + period]
            for j, (pair, want) in enumerate(zip(pairs, wants), 1):
                if rebuild(*pair) != want:
                    failures.append(f"word {word} window {j}")
                    break
    return failures

# -- the run-by-run marked sequences ----------------------------------------


def _runs(word: str) -> list[tuple[str, int]]:
    return [(ch, len(list(g))) for ch, g in groupby(word)]


def run_long_sequences(word: str) -> tuple[MarkedSequence, MarkedSequence]:
    """The zero and ones forms of a binary word, run by run."""
    m, n = word.count("0"), word.count("1")
    runs = _runs(word)
    z = "".join("-" if ch == "1" else "0" * c for ch, c in runs)
    m0 = "".join(
        "0" + "-0" * (c - 1) for ch, c in reversed(runs) if ch == "1"
    )
    o = "".join("-" if ch == "0" else "1" * c for ch, c in runs)
    m1 = "".join(
        "1" + "-1" * (c - 1) for ch, c in reversed(runs) if ch == "0"
    )
    return (
        MarkedSequence(z + m0 + z, "0", m),
        MarkedSequence(o + m1 + o, "1", n),
    )


def run_long_zero_sequence_K(sword: str) -> MarkedSequence:
    """The marked zero sequence of a starred word, run by run: a plain run
    of c symbols gives c zeros, the star run c-1."""
    m, _ = validate_starred(sword)
    runs = [(set(chunk), len(chunk)) for chunk in
            ("".join(g) for _, g in groupby(sword, key=lambda c: c == "0"))]
    z = "".join("-" if syms != {"0"} else "0" * c for syms, c in runs)
    middle_parts = []
    for syms, c in reversed(runs):
        if syms == {"0"}:
            continue
        if "*" in syms:
            middle_parts.append("-0" * (c - 1))
        else:
            middle_parts.append("0" + "-0" * (c - 1))
    middle = "".join(middle_parts)
    return MarkedSequence(z + middle + z, "0", m)

# -- profile and window sizes from strings ----------------------------------


def string_size_profile(word: str) -> SizeProfile:
    """The P/Q profile from the marked ones sequence as a string: step i
    loses one when the i-th one from the right is followed by a dash and
    gains one when the (n+i)-th is."""
    m, n = word.count("0"), word.count("1")
    if m + n != len(word):
        raise ValueError(f"not a binary word: {word!r}")
    ones = run_long_sequences(word)[1]
    dash = [ones.symbols[p + 1 : p + 2] == "-" for p in own_positions(ones)]
    p_vals = tuple(int(dash[n + i]) for i in range(m + n))
    q_vals = tuple(-int(dash[i]) for i in range(m + n))
    return SizeProfile(m, n, p_vals, q_vals)


def string_window_sizes_K(sword: str) -> list[int]:
    """The "-0" count of every window of the marked zero sequence."""
    seq = run_long_zero_sequence_K(sword)
    n_windows = len(own_positions(seq)) - seq.width
    return [sliced_window(seq, i).count("-0")
            for i in range(1, n_windows + 1)]

# -- the block-set profile ---------------------------------------------------


@dataclass(frozen=True)
class BlockSets:
    """The k zero runs of a word and the index sets A-D of its block form,
    with the P/Q values they give for steps 1..m+n."""

    k: int
    set_a: frozenset[int]
    set_b: frozenset[int]
    set_c: frozenset[int]
    set_d: frozenset[int]
    p_values: tuple[int, ...]
    q_values: tuple[int, ...]


def block_set_profile(word: str) -> BlockSets:
    if not (word.startswith("0") and word.endswith("1")):
        raise ValueError("the block sets need a word from 0 to 1")
    m, n = word.count("0"), word.count("1")
    zero_runs = [len(list(g)) for ch, g in groupby(word) if ch == "0"]
    one_runs = [len(list(g)) for ch, g in groupby(word) if ch == "1"]
    k = len(zero_runs)
    a = list(accumulate(zero_runs))
    b = list(accumulate(reversed(one_runs)))
    set_a = frozenset(x + 1 for x in a)
    set_b = frozenset(m + 1 + b[i] for i in range(k - 1))
    set_c = frozenset(b[i] + 1 for i in range(k))
    set_d = frozenset(n + 1 + a[i] for i in range(k - 1))
    p_values = tuple(
        int(i in set_b or (i <= m + 1 and i not in set_a))
        for i in range(1, m + n + 1)
    )
    q_values = tuple(
        -int(i in set_c or (n + 2 <= i <= n + m and i not in set_d))
        for i in range(1, m + n + 1)
    )
    return BlockSets(k, set_a, set_b, set_c, set_d, p_values, q_values)


# -- key-based fiber reading -------------------------------------------------


def _word(values: list[int], n_cols: int) -> str:
    """Word of a fiber profile, fiber 1 first: the i-th zero from the left
    follows as many ones as fiber m+1-i has cells."""
    word = ["1"] * (len(values) + n_cols)
    for i, v in enumerate(reversed(values)):
        word[v + i] = "0"
    return "".join(word)


def _values(word: str) -> list[int]:
    """Inverse of _word, fiber 1 first."""
    zeros = [pos for pos, ch in enumerate(word) if ch == "0"]
    return [pos - i for i, pos in enumerate(zeros)][::-1]


def grid_word(ideal) -> str:
    """Word of an ideal of [m]x[n] from the largest column of each row."""
    keys = ideal.poset.keys
    m = max(i for i, _ in keys)
    n = max(j for _, j in keys)
    rows = [0] * (m + 1)
    for idx in ideal.members:
        i, j = keys[idx]
        rows[i] = max(rows[i], j)
    return _word(rows[1:], n)


def grid_ideal(word: str, m: int, n: int):
    return grid_poset(m, n).ideal_of_keys(
        (i, j) for i, v in enumerate(_values(word), start=1)
        for j in range(1, v + 1)
    )


def _k_rank(key: str, n: int) -> int:
    return n if key.endswith("'") else int(key)


def k_fiber_levels(ideal) -> tuple[int, int, list[tuple[int, str | None]]]:
    """Per-fiber (level, polarity) pairs.

    A full-rank fiber of level j holds everything of rank <= j and gets
    polarity None; a fiber holding exactly one of the two middle elements gets
    level n and polarity "n" or "n'".
    """
    poset = ideal.poset
    m = max(c for c, _ in poset.keys)
    n = poset.n_elements // (2 * m)
    mid, mid2 = str(n), str(n) + "'"
    fibers: list[set[str]] = [set() for _ in range(m + 1)]
    for idx in ideal.members:
        c, kkey = poset.keys[idx]
        fibers[c].add(kkey)
    out = []
    for c in range(1, m + 1):
        s = fibers[c]
        has1, has2 = mid in s, mid2 in s
        if has1 != has2:
            out.append((n, mid if has1 else mid2))
        else:
            top = max((_k_rank(k, n) for k in s), default=0)
            out.append((top, None))
    return m, n, out


def k_level_keys(level: int, n: int, polarity: str | None) -> list[str]:
    """Keys of the K ideal at a level of the plain (polarity None) or starred
    reading."""
    mid, mid2 = str(n), str(n) + "'"
    if polarity is not None:
        return [str(i) for i in range(1, n)] + [polarity]
    keys = [str(i) for i in range(1, min(level, n - 1) + 1)]
    if level >= n:
        keys += [mid, mid2]
        keys += [str(i) for i in range(n + 1, level + 1)]
    return keys


def k_is_full_rank(ideal) -> bool:
    _, _, levels = k_fiber_levels(ideal)
    return all(pol is None for _, pol in levels)


def k_word_fullrank(ideal) -> str:
    _, n, levels = k_fiber_levels(ideal)
    return _word([lev for lev, _ in levels], 2 * n - 1)


def k_word_starred(ideal) -> str:
    _, n, levels = k_fiber_levels(ideal)
    values = [n if pol is not None else lev if lev <= n - 1 else lev + 1
              for lev, pol in levels]
    return plain_to_starred(_word(values, 2 * n))


def k_ideal_fullrank(word: str, m: int, n: int):
    return k_product_poset(m, n).ideal_of_keys(
        (c, key) for c, v in enumerate(_values(word), start=1)
        for key in k_level_keys(v, n, None)
    )


def k_ideal_starred(sword: str, m: int, n: int):
    """The representative holding the unprimed middle."""
    keys = []
    for c, v in enumerate(_values(starred_to_plain(sword)), start=1):
        if v == n:
            fiber = k_level_keys(n, n, str(n))
        else:
            fiber = k_level_keys(v if v < n else v - 1, n, None)
        keys += [(c, key) for key in fiber]
    return k_product_poset(m, n).ideal_of_keys(keys)


def k_dual(ideal):
    """Swap the two middle elements in every fiber, key by key."""
    poset = ideal.poset
    n = poset.n_elements // (2 * max(c for c, _ in poset.keys))
    mid, mid2 = str(n), str(n) + "'"
    swap = {mid: mid2, mid2: mid}
    return poset.ideal_of_keys(
        (c, swap.get(kkey, kkey))
        for c, kkey in (poset.keys[idx] for idx in ideal.members)
    )
