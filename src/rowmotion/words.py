"""Binary-word codecs and word-level rowmotion dynamics.

Ideals of a two-chain product [m]x[n] correspond to lattice paths, hence to
binary words with m zeros and n ones; rowmotion becomes the block map psi.
Ideals of [m]xK(n-1) get two codecs: full-rank ideals reuse the grid word on
2n-1 columns, non-full-rank classes (up to the polarity duality) use words
with 2n ones whose n-th one is starred.  The marked long sequences expose
every iterate of the dynamics through sliding windows, and the P/Q profile
computes antichain sizes along an orbit without iterating.

All codecs read an ideal of [m]xQ, for Q a chain [n] or K(n-1), fiber by
fiber, and one rule fixes each fiber {c}xQ by its size: it holds the first
`size` entries of Q's column order, which is 1..n for the chain and
1..n-1, n, n', n+1..2n-1 for K.  The one exception is a K-fiber of size n
that holds the primed middle n' instead of n; n is the only size at which a
K-fiber holds exactly one middle.  A codec object, built once per poset by
grid_codec or k_codec, keeps the masks of these prefixes for every fiber
and works on ideal masks; the public encode/decode functions wrap it for
IdealSets.

Every word step and marked sequence reads one decomposition, the block
form: the pairs (symbol run, zero run after it), a symbol being a one or
the star.  psi is one run shift on it, psi_bar is that shift followed by
one star push, and one builder makes the marked zero and ones sequences of
plain and starred words alike.  The P/Q profile and the K window sizes
read which own symbols of a marked sequence a dash flanks, with string
replaces over the whole sequence instead of a scan symbol by symbol.

Words are plain strings; positions are 1-based in all public descriptions
(storage is 0-based).
"""

from __future__ import annotations

import re
from functools import cached_property, lru_cache
from itertools import accumulate, compress, zip_longest
from operator import add, neg, or_, sub
from typing import Callable, Iterable, NamedTuple, Sequence

from ._record import Record
from .constructions import grid_poset, k_product_poset
from .poset import IdealSet, InvalidSubset, Poset

# -- the block form and the basic map psi ------------------------------------

_ZERO_RUNS = re.compile("(0+)")


def _blocks(word: str) -> tuple[list[str], list[int]]:
    """The block form: pairs (symbol run j, length of the zero run after
    it), as two parallel lists.  A symbol is a one or the star; the first
    symbol run may be empty and the last zero run may have length 0."""
    parts = _ZERO_RUNS.split(word)
    runs = parts[0::2]
    zeros = [len(z) for z in parts[1::2]]
    if runs[-1] or not zeros:
        zeros.append(0)
    else:
        runs.pop()
    return runs, zeros


def _binary_counts(word: str) -> tuple[int, int]:
    """(zeros, ones) of a binary word; ValueError for any other letter."""
    m, n = word.count("0"), word.count("1")
    if m + n != len(word):
        raise ValueError(f"not a binary word: {word!r}")
    return m, n


def _binary_blocks(word: str) -> tuple[list[str], list[int]]:
    _binary_counts(word)
    return _blocks(word)


def parse_blocks(word: str) -> list[tuple[int, int]]:
    """Alternating run lengths [(ones, zeros), ...].

    The first ones-count and the last zeros-count may be 0; all other entries
    are positive.  parse_blocks("0110") == [(0, 1), (2, 1)].
    """
    runs, zeros = _binary_blocks(word)
    return [(len(r), z) for r, z in zip(runs, zeros)]


def unparse_blocks(blocks: list[tuple[int, int]]) -> str:
    return "".join("1" * a + "0" * b for a, b in blocks)


def count_10(word: str) -> int:
    """Number of "10" factors; equals the antichain size of the decoded ideal."""
    return word.count("10")


def _shift(runs: list[str], zeros: list[int], starred: bool = False) -> str:
    """The run shift of a block form: one zero leaves the first run and
    joins the last, a one is fed in at the front and one retired at the
    back, and every zero run slides in front of the symbol run it used to
    follow.  On a single pair this swaps the two runs.  A starred word then
    pushes its star through the shifted symbol runs."""
    zeros[0] -= 1
    zeros[-1] += 1
    runs[0] = "1" + runs[0]
    runs[-1] = runs[-1][:-1]
    if starred:
        _push(runs)
    return "".join("0" * z + r for z, r in zip(zeros, runs))


def psi(word: str) -> str:
    """One rowmotion step on the word side.

    Every zero block shifts one slot left against the ones stream: the word
    1^{a_1}0^{b_1}...1^{a_s}0^{b_s} becomes
    0^{b_1-1}1^{a_1+1}...0^{b_i}1^{a_i}...0^{b_s+1}1^{a_s-1}; a word of a
    single block pair 1^a 0^b just swaps to 0^b 1^a.
    """
    return _shift(*_binary_blocks(word))


def _iterates(step: Callable[[str], str], word: str, steps: int) -> list[str]:
    out = []
    cur = word
    for _ in range(steps):
        cur = step(cur)
        out.append(cur)
    return out


def psi_iterates(word: str, steps: int) -> list[str]:
    """[psi(w), psi^2(w), ..., psi^steps(w)]."""
    return _iterates(psi, word, steps)


# -- fiber codecs -------------------------------------------------------------


def _fiber_word(values: list[int], n_cols: int) -> str:
    """Word of a weakly decreasing fiber profile values[0] >= ... >= values[-1]
    over n_cols columns: ones for the last fiber, a zero, ones for the gap to
    the next fiber, and so on."""
    parts = []
    prev = 0
    for v in reversed(values):
        parts.append("1" * (v - prev) + "0")
        prev = v
    return "".join(parts) + "1" * (n_cols - prev)


def _fiber_values_from_word(word: str, m: int, n_cols: int) -> list[int]:
    if _binary_counts(word) != (m, n_cols):
        raise ValueError(
            f"expected {m} zeros and {n_cols} ones, got {word!r}"
        )
    values = []
    ones = 0
    for ch in word:
        if ch == "1":
            ones += 1
        else:
            values.append(ones)
    return values[::-1]


class FiberCodec:
    """Ideals of [m]xQ as words of their fiber sizes over the columns of Q:
    the ones before the i-th zero from the left count the cells of fiber
    m+1-i.  Built once per poset, it holds the prefix masks of every fiber;
    it is the codec of [m]x[n] and the base of KCodec."""

    def __init__(self, poset: Poset, m: int, n: int, columns: Sequence):
        self.poset, self.m, self.n, self.n_cols = poset, m, n, len(columns)
        self.prefixes = tuple(
            tuple(accumulate(
                (1 << poset.index_of((c, key)) for key in columns),
                or_, initial=0,
            ))
            for c in range(1, m + 1)
        )

    def sizes(self, mask: int) -> list[int]:
        """Fiber sizes of an ideal, fiber 1 first."""
        return [(mask & p[-1]).bit_count() for p in self.prefixes]

    def mask_of(self, sizes: Iterable[int]) -> int:
        """The ideal whose c-th fiber holds the first sizes[c-1] columns."""
        out = 0
        for p, size in zip(self.prefixes, sizes):
            out |= p[size]
        return out

    def encode(self, mask: int) -> str:
        return _fiber_word(self.sizes(mask), self.n_cols)

    def decode(self, word: str) -> int:
        return self.mask_of(_fiber_values_from_word(word, self.m, self.n_cols))


# bounded, since the cache holds every poset it was asked about
@lru_cache(maxsize=32)
def grid_codec(poset: Poset) -> FiberCodec:
    """The codec of a product of two chains; InvalidSubset for other posets."""
    keys = poset.keys
    if keys and all(
        isinstance(k, tuple) and len(k) == 2
        and isinstance(k[0], int) and isinstance(k[1], int) for k in keys
    ):
        m = max(k[0] for k in keys)
        n = max(k[1] for k in keys)
        expected = {(i, j) for i in range(1, m + 1) for j in range(1, n + 1)}
        if set(keys) == expected and poset.n_elements == m * n:
            return FiberCodec(poset, m, n, range(1, n + 1))
    raise InvalidSubset("poset is not a product of two chains")


def encode_grid(ideal: IdealSet) -> str:
    """Word of an ideal of [m]x[n]: m zeros, n ones; the ones before the i-th
    zero from the left count the filled cells of row m+1-i."""
    return grid_codec(ideal.poset).encode(ideal.mask)


def decode_grid(word: str, m: int, n: int) -> IdealSet:
    codec = grid_codec(grid_poset(m, n))
    return IdealSet(codec.poset, codec.decode(word))


# -- size profile -------------------------------------------------------------


class SizeProfile(NamedTuple):
    """Per-step antichain-size increments along a word's orbit.

    p_values[i-1] is the gain at step i (0 or 1), q_values[i-1] the loss
    (0 or -1), for i in 1..m+n.
    """

    m: int
    n: int
    p_values: tuple[int, ...]
    q_values: tuple[int, ...]

    def p(self, i: int) -> int:
        if not 1 <= i <= self.m + self.n:
            raise ValueError(f"index {i} outside 1..{self.m + self.n}")
        return self.p_values[i - 1]

    def q(self, i: int) -> int:
        if not 1 <= i <= self.m + self.n:
            raise ValueError(f"index {i} outside 1..{self.m + self.n}")
        return self.q_values[i - 1]


def size_profile(word: str) -> SizeProfile:
    """The P/Q profile of a word, read from the dashes of its marked ones
    sequence: counting the ones from the right end of the display, step i
    loses one when the i-th one is followed by a dash and gains one when
    the (n+i)-th is."""
    m, n = _binary_counts(word)
    dash = _flanks(_marked(word, "1"), "1-")[::-1]
    return SizeProfile(m, n, tuple(dash[n : n + m + n]),
                       tuple(map(neg, dash[: m + n])))


def formula_sizes(word: str) -> list[int]:
    """Antichain sizes of the first m+n iterates of a word, from its P/Q
    profile."""
    profile = size_profile(word)
    steps = map(add, profile.p_values, profile.q_values)
    return list(accumulate(steps, initial=count_10(word)))[1:]


def size_by_formula(word: str, i: int) -> int:
    """|antichain of the i-th rowmotion iterate| without iterating."""
    sizes = formula_sizes(word)
    if not 1 <= i <= len(sizes):
        raise ValueError(f"step {i} outside 1..{len(sizes)}")
    return sizes[i - 1]


# -- long sequences and windows ------------------------------------------------


class MarkedSequence(Record):
    """A string over {'0','-'} or {'1','-'} with sliding windows.

    kind '0' windows select own-symbol occurrences i+1..i+width numbered from
    the display left; kind '1' numbers them from the display right.  A window
    includes the flanking '-' on either side when present and is returned in
    display order.
    """

    _fields = ("symbols", "kind", "width")

    def __init__(self, symbols: str, kind: str, width: int):
        self.symbols = symbols
        self.kind = kind
        self.width = width

    @cached_property
    def positions(self) -> list[int]:
        """Own-symbol positions in window order, computed once, from one
        byte translation of the display that marks each own symbol."""
        symbols = self.symbols
        own = list(compress(range(len(symbols)),
                            symbols.encode().translate(_OWN[self.kind])))
        return own[::-1] if self.kind == "1" else own

    @cached_property
    def windows(self) -> tuple[str, ...]:
        """Every window in one pass, windows[i-1] == window(i).  Positions
        run up for kind '0' and down for kind '1', so a window's display
        ends are the positions of its first and last own symbols.  A
        sequence of width 0 has no windows."""
        symbols, positions, width = self.symbols, self.positions, self.width
        if not width:
            return ()
        firsts, lasts = positions[1:], positions[width:]
        ends = zip(lasts, firsts) if self.kind == "1" else zip(firsts, lasts)
        out = []
        for lo, hi in ends:
            if lo > 0 and symbols[lo - 1] == "-":
                lo -= 1
            if hi + 1 < len(symbols) and symbols[hi + 1] == "-":
                hi += 1
            out.append(symbols[lo : hi + 1])
        return tuple(out)

    def window(self, i: int) -> str:
        if not 1 <= i <= len(self.windows):
            raise ValueError(f"window {i} out of range")
        return self.windows[i - 1]


_OTHER_RUNS = {"0": re.compile("[^0]+"), "1": re.compile("[^1]+")}
# byte tables that map an own symbol to 1 and every other byte to 0
_OWN = {own: bytes(b == ord(own) for b in range(256)) for own in "01"}


def _marked(word: str, own: str) -> str:
    """The marked sequence of a word in its own symbol: the word with every
    run of other symbols dashed out, then every such run in reverse order
    contributing own symbols joined by dashes, one per symbol of the run
    and one fewer for the run that holds the star, then the dashed word
    again."""
    other = _OTHER_RUNS[own]
    dashed = other.sub("-", word)
    pair = "-" + own
    middle = "".join([(pair * len(run))[1 + ("*" in run):]
                      for run in reversed(other.findall(word))])
    return dashed + middle + dashed


def _flanks(display: str, pair: str) -> bytes:
    """One byte per own symbol of a marked sequence, in display order: 1
    where the dash of `pair` flanks it ("1-": a dash right after the one,
    "-0": a dash right before the zero), else 0.  Each own symbol sits in
    at most one such pair, so one replace finds them all."""
    own = pair.strip("-")
    return (display.replace(pair, "\1").replace("-", "")
            .replace(own, "\0").encode())


def long_sequences(word: str) -> tuple[MarkedSequence, MarkedSequence]:
    """The two periodic marked sequences of a word.

    The zero form: the word with ones runs dashed out, then every ones run in
    reverse order contributing "0-0-...-0" with as many zeros as the run had
    ones, then the dashed word again; 2m+n zeros in total.  The ones form is
    built the same way with the roles swapped; m+2n ones, read right to left.
    """
    m, n = _binary_counts(word)
    return (
        MarkedSequence(_marked(word, "0"), "0", m),
        MarkedSequence(_marked(word, "1"), "1", n),
    )


def _window_tokens(window: str) -> tuple[bool, list[int], bool]:
    if window.count("--") or not window:
        raise ValueError(f"malformed window {window!r}")
    lead = window.startswith("-")
    trail = window.endswith("-")
    runs = [len(part) for part in window.strip("-").split("-")]
    if any(r == 0 for r in runs):
        raise ValueError(f"malformed window {window!r}")
    return lead, runs, trail


def zigzag(window0: str, window1: str) -> str:
    """Interleave a zero window and a ones window back into a word.

    Every '-' in one window stands for exactly one run of the other symbol,
    in order; the window starting with its own symbol dictates which run goes
    first.
    """
    lead0, zero_runs, trail0 = _window_tokens(window0)
    lead1, one_runs, trail1 = _window_tokens(window1)
    if lead0 == lead1 or trail0 == trail1:
        raise ValueError("windows do not interlock")
    if window0.count("-") != len(one_runs) or window1.count("-") != len(zero_runs):
        raise ValueError("windows do not interlock")
    first, second = (zero_runs, one_runs) if not lead0 else (one_runs, zero_runs)
    ch_first, ch_second = ("0", "1") if not lead0 else ("1", "0")
    # interlocking windows leave the first symbol at most one run ahead
    return "".join(ch_first * a + ch_second * b
                   for a, b in zip_longest(first, second, fillvalue=0))


# -- the two-strand product codecs ---------------------------------------------


class KCodec(FiberCodec):
    """Ideals of [m]xK(n-1) as words.  A fiber of size n holds exactly one
    middle; an ideal with no such fiber is full rank and gets the grid word of
    its fiber levels (size minus one above the middles) over 2n-1 columns.
    Any other ideal gets the starred word of its fiber sizes over 2n columns,
    which is blind to which middle each fiber holds."""

    def full_rank(self, mask: int) -> bool:
        return self.n not in self.sizes(mask)

    def _word(self, mask: int) -> tuple[bool, str]:
        """Whether an ideal is full rank, and its word in the codec that
        fits it, from one read of its fiber sizes."""
        n = self.n
        sizes = self.sizes(mask)
        if n in sizes:
            return False, plain_to_starred(_fiber_word(sizes, 2 * n))
        return True, _fiber_word([s - (s > n) for s in sizes], 2 * n - 1)

    def encode_fullrank(self, mask: int) -> str:
        full, word = self._word(mask)
        if not full:
            raise InvalidSubset("ideal is not full rank")
        return word

    def decode_fullrank(self, word: str) -> int:
        n = self.n
        levels = _fiber_values_from_word(word, self.m, 2 * n - 1)
        return self.mask_of(v + (v >= n) for v in levels)

    def encode_starred(self, mask: int) -> str:
        full, word = self._word(mask)
        if full:
            raise InvalidSubset("ideal is full rank")
        return word

    def decode_starred(self, sword: str) -> int:
        """The representative of the class whose fibers hold the unprimed
        middle."""
        wm, wn = validate_starred(sword)
        if (wm, wn) != (self.m, self.n):
            raise ValueError(f"word shape is (m={wm}, n={wn}), "
                             f"expected ({self.m}, {self.n})")
        return self.decode(sword.replace("*", "1"))

    def dual(self, mask: int) -> int:
        """Swap the two middles in every fiber that holds one of them."""
        n = self.n
        for p in self.prefixes:
            if (mask & p[-1]).bit_count() == n:
                mask ^= p[n + 1] ^ p[n - 1]
        return mask


@lru_cache(maxsize=32)
def k_codec(poset: Poset) -> KCodec:
    """The codec of a chain times K(n-1) on m * 2n elements; InvalidSubset
    for other posets."""
    keys = poset.keys
    if keys and all(isinstance(k, tuple) and len(k) == 2 for k in keys):
        firsts = {k[0] for k in keys}
        seconds = {k[1] for k in keys}
        m, n = len(firsts), len(seconds) // 2
        columns = [str(i) for i in range(1, n)] + [str(n), str(n) + "'"]
        columns += [str(i) for i in range(n + 1, 2 * n)]
        if (firsts == set(range(1, m + 1)) and seconds == set(columns)
                and poset.n_elements == m * 2 * n):
            return KCodec(poset, m, n, columns)
    raise InvalidSubset("poset is not a chain product with a two-strand poset")


def is_full_rank(ideal: IdealSet) -> bool:
    """Whether every fiber of a chain-times-K ideal is a rank ideal."""
    return k_codec(ideal.poset).full_rank(ideal.mask)


def encode_K_fullrank(ideal: IdealSet) -> str:
    """Word in B(m, 2n-1) of a full-rank ideal, by fiber levels."""
    return k_codec(ideal.poset).encode_fullrank(ideal.mask)


def decode_K_fullrank(word: str, m: int, n: int) -> IdealSet:
    codec = k_codec(k_product_poset(m, n))
    return IdealSet(codec.poset, codec.decode_fullrank(word))


def epsilon_n(word: str) -> int:
    """1 when the middle one (the n-th of 2n-1) is immediately followed by 0."""
    _, ones = _binary_counts(word)
    if ones % 2 == 0:
        raise ValueError("expected an odd number of ones")
    pos = _nth_one(word, (ones + 1) // 2)
    return int(word[pos + 1 : pos + 2] == "0")


def _nth_one(word: str, n: int) -> int:
    """Position of the n-th one of a word that has at least n ones."""
    pos = -1
    for _ in range(n):
        pos = word.index("1", pos + 1)
    return pos


# -- starred codec --------------------------------------------------------------


def validate_starred(sword: str) -> tuple[int, int]:
    """Check the starred-word shape and return (m, n)."""
    if set(sword) - {"0", "1", "*"}:
        raise ValueError(f"not a starred word: {sword!r}")
    if sword.count("*") != 1:
        raise ValueError("expected exactly one star")
    ones = sword.count("1")
    if ones % 2 == 0:
        raise ValueError("expected an odd number of ones")
    n = (ones + 1) // 2
    m = sword.count("0")
    star = sword.index("*")
    if sword[:star].count("1") != n - 1:
        raise ValueError(f"expected {n - 1} ones before the star")
    if star + 1 >= len(sword) or sword[star + 1] != "0":
        raise ValueError("star must be immediately followed by 0")
    return m, n


def starred_to_plain(sword: str) -> str:
    validate_starred(sword)
    return sword.replace("*", "1")


def plain_to_starred(word: str) -> str:
    """Replace the n-th of the 2n ones by a star."""
    _, ones = _binary_counts(word)
    if ones == 0 or ones % 2:
        raise ValueError("expected a positive even number of ones")
    pos = _nth_one(word, ones // 2)
    if word[pos + 1 : pos + 2] != "0":
        raise ValueError("the middle one must be immediately followed by 0")
    return word[:pos] + "*" + word[pos + 1 :]


def encode_K_starred(ideal: IdealSet) -> str:
    """Starred word of a non-full-rank ideal; polarity is quotiented away."""
    return k_codec(ideal.poset).encode_starred(ideal.mask)


def decode_K_starred(sword: str, m: int, n: int) -> IdealSet:
    """Canonical representative of the encoded class: the unprimed middle."""
    codec = k_codec(k_product_poset(m, n))
    return IdealSet(codec.poset, codec.decode_starred(sword))


def dual_ideal(ideal: IdealSet) -> IdealSet:
    """Swap the two middle elements in every fiber."""
    return IdealSet(ideal.poset, k_codec(ideal.poset).dual(ideal.mask))


# -- the starred dynamics ---------------------------------------------------------


def _push(runs: list[str]) -> None:
    """The star push on symbol runs: the star swaps with the one right
    before it; when that one shares the star's run, the one now right after
    the star moves to the front of the next run."""
    q = next(j for j, r in enumerate(runs) if "*" in r)
    if runs[q] == "*":
        runs[q - 1] = runs[q - 1][:-1] + "*"
        runs[q] = "1"
    else:
        runs[q] = runs[q][:-2] + "*"
        if q + 1 == len(runs):
            runs.append("")
        runs[q + 1] = "1" + runs[q + 1]


def psi_bar(sword: str) -> str:
    """One rowmotion step on starred words: the run shift of psi, then the
    star push."""
    validate_starred(sword)
    return _shift(*_blocks(sword), starred=True)


def psi_bar_iterates(sword: str, steps: int) -> list[str]:
    return _iterates(psi_bar, sword, steps)


def p_pattern(pattern: str) -> str:
    """The star push on a dash-separated ones pattern.

    Exchanges the star with the one right before it, then moves the one
    right after the star (if any) into the next segment.
    """
    segments = pattern.split("-")
    if any(not seg for seg in segments):
        raise ValueError(f"malformed pattern {pattern!r}")
    q = next((j for j, seg in enumerate(segments) if "*" in seg), None)
    if q is None:
        raise ValueError(f"no star in pattern {pattern!r}")
    if not segments[q].endswith("*"):
        raise ValueError("the star must end its segment")
    if segments[q] == "*" and (q == 0 or not segments[q - 1]):
        raise ValueError("no one available before a bare star")
    _push(segments)
    return "-".join(segments)


def long_zero_sequence_K(sword: str) -> MarkedSequence:
    """Marked zero sequence of a starred word.

    The word with symbol runs dashed out, then every ones-or-star run in
    reverse order (a plain run of c symbols contributing "0-0-...-0" with c
    zeros, the star run contributing "-0" repeated size-1 times), then the
    dashed word again; 2m+2n-1 zeros in total.  Windows of width m count
    "-0" occurrences to give antichain sizes along the orbit.
    """
    m, _ = validate_starred(sword)
    return MarkedSequence(_marked(sword, "0"), "0", m)


def window_sizes_K(sword: str) -> list[int]:
    """Antichain sizes of the first m+2n-1 rowmotion iterates: window k of
    the marked zero sequence counts its "-0" occurrences, the zeros that
    start a zero run behind a dash, so one prefix sum over those zeros
    gives every window."""
    m, _ = validate_starred(sword)
    counts = list(accumulate(_flanks(_marked(sword, "0"), "-0"), initial=0))
    return list(map(sub, counts[m + 1:], counts[1:]))
