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

Each word is read once, in run-length form: _runs cuts it at its zero
runs into symbol runs and zero runs, kept as strings, a symbol being a one
or the star.  The cut and the binary check keep the last word they read,
as the suites decode, step and sequence each word one after the other.
psi is one run shift on the block form, the pairs (symbol run, zero run
after it), and psi_bar that shift and one star push.  long_sequences builds
both marked sequences of a word from its runs and its reversal, and the
marked zero sequence of a starred word comes from the same builder.
zigzag interleaves the own runs of two windows, and the decoders add up
the fiber masks that the running counts of ones before the zeros index.
The P/Q profile (ones_profile) and the K window sizes read which symbols
of a marked sequence a dash flanks, with string replaces over the whole
sequence.  A MarkedSequence cuts window i from one split of its display,
and finds its own-symbol positions only when they are read.  The K
codec's encode writes the word of the fiber sizes over 2n columns and
stars its n-th one, or drops it when no fiber has size n; decode picks
the form by the star.

Words are plain strings; positions are 1-based in all public descriptions
(storage is 0-based).
"""

from __future__ import annotations

import re
from bisect import bisect_left
from functools import lru_cache
from itertools import accumulate, compress
from operator import add, getitem, neg, or_, sub
from typing import Callable, Sequence

from ._record import Record, TupleRecord
from .constructions import grid_poset, k_product_poset
from .poset import IdealSet, InvalidSubset, Poset

# -- the block form and the basic map psi ------------------------------------

_ZERO_RUNS = re.compile("(0+)")


def _split(word: str) -> list[str]:
    """A word cut at its zero runs: symbol runs at the even places, the
    first and the last possibly empty, and the zero runs between them at
    the odd places."""
    return _ZERO_RUNS.split(word)


@lru_cache(maxsize=1)
def _runs(word: str) -> tuple[str, ...]:
    """_split of a word, kept for the last word cut."""
    return tuple(_split(word))


def _blocks(word: str) -> list[str]:
    """The block form, flat: symbol run, zero run after it, symbol run, and
    so on, as a new list.  A symbol is a one or the star; the first symbol
    run may be empty and the last zero run may be empty."""
    blocks = list(_runs(word))
    if blocks[-1] or len(blocks) == 1:
        blocks.append("")
    else:
        blocks.pop()
    return blocks


@lru_cache(maxsize=1)
def _binary_counts(word: str) -> tuple[int, int]:
    """(zeros, ones) of a binary word, kept for the last word counted;
    ValueError for any other letter."""
    m, n = word.count("0"), word.count("1")
    if m + n != len(word):
        raise ValueError(f"not a binary word: {word!r}")
    return m, n


def parse_blocks(word: str) -> list[tuple[int, int]]:
    """Alternating run lengths [(ones, zeros), ...].

    The first ones-count and the last zeros-count may be 0; all other entries
    are positive.  parse_blocks("0110") == [(0, 1), (2, 1)].
    """
    _binary_counts(word)
    blocks = _blocks(word)
    return list(zip(map(len, blocks[0::2]), map(len, blocks[1::2])))


def unparse_blocks(blocks: list[tuple[int, int]]) -> str:
    return "".join("1" * a + "0" * b for a, b in blocks)


def count_10(word: str) -> int:
    """Number of "10" factors; equals the antichain size of the decoded ideal."""
    return word.count("10")


def _shift(blocks: list[str], starred: bool = False) -> str:
    """The run shift of a block form: one zero leaves the first zero run
    and joins the last, a one is fed in at the front and one retired at
    the back, and every zero run slides in front of the symbol run it used
    to follow.  On a single pair this swaps the two runs.  A starred word
    then pushes its star through the shifted symbol runs."""
    runs, zeros = blocks[0::2], blocks[1::2]
    zeros[-1] += "0"
    zeros[0] = zeros[0][1:]
    runs[0] = "1" + runs[0]
    runs[-1] = runs[-1][:-1]
    if starred:
        _push(runs)
    blocks[0::2], blocks[1::2] = zeros, runs
    return "".join(blocks)


def psi(word: str) -> str:
    """One rowmotion step on the word side.

    Every zero block shifts one slot left against the ones stream: the word
    1^{a_1}0^{b_1}...1^{a_s}0^{b_s} becomes
    0^{b_1-1}1^{a_1+1}...0^{b_i}1^{a_i}...0^{b_s+1}1^{a_s-1}; a word of a
    single block pair 1^a 0^b just swaps to 0^b 1^a.
    """
    _binary_counts(word)
    return _shift(_blocks(word))


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
    up = values[::-1]
    return "0".join(["1" * gap for gap in map(sub, up + [n_cols], [0] + up)])


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
        self.fibers = tuple(p[-1] for p in self.prefixes)
        # fiber m first, as a word lists the fibers
        self.tables = self.prefixes[::-1]

    def sizes(self, mask: int) -> list[int]:
        """Fiber sizes of an ideal, fiber 1 first."""
        return [(mask & fiber).bit_count() for fiber in self.fibers]

    def encode(self, mask: int) -> str:
        return _fiber_word(self.sizes(mask), self.n_cols)

    def _read(self, word: str, n_cols: int, tables: Sequence) -> int:
        """The ideal of a word over n_cols columns: the ones before each
        zero index the zero's table, fiber m first, for the mask of that
        fiber.  The fibers are disjoint, so their masks add up."""
        if _binary_counts(word) != (self.m, n_cols):
            raise ValueError(
                f"expected {self.m} zeros and {n_cols} ones, got {word!r}"
            )
        return sum(map(getitem, tables,
                       accumulate(map(len, word.split("0")))))

    def decode(self, word: str) -> int:
        return self._read(word, self.n_cols, self.tables)


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


class SizeProfile(TupleRecord):
    """Per-step antichain-size increments along a word's orbit.

    p_values[i-1] is the gain at step i (0 or 1), q_values[i-1] the loss
    (0 or -1), for i in 1..m+n.
    """

    __slots__ = ()
    m: int
    n: int
    p_values: tuple[int, ...]
    q_values: tuple[int, ...]


def ones_profile(ones: MarkedSequence) -> SizeProfile:
    """The P/Q profile of a word, read from the dashes of its marked ones
    sequence, which holds m+2n ones for n, its width: counting the ones
    from the right end of the display, step i loses one when the i-th one
    is followed by a dash and gains one when the (n+i)-th is."""
    n = ones.width
    dash = _flanks(ones.symbols, "1-")[::-1]
    m = len(dash) - 2 * n
    return SizeProfile(m, n, tuple(dash[n : n + m + n]),
                       tuple(map(neg, dash[: m + n])))


def size_profile(word: str) -> SizeProfile:
    """The P/Q profile of a word (ones_profile of its ones sequence)."""
    return ones_profile(long_sequences(word)[1])


def formula_sizes(word: str,
                  ones: MarkedSequence | None = None) -> list[int]:
    """Antichain sizes of the first m+n iterates of a word, from the P/Q
    profile of its marked ones sequence, which a caller that already holds
    it passes as ones."""
    if ones is None:
        ones = long_sequences(word)[1]
    _, _, gains, losses = ones_profile(ones)
    steps = map(add, gains, losses)
    return list(accumulate(steps, initial=count_10(word)))[1:]


def size_by_formula(word: str, i: int) -> int:
    """|antichain of the i-th rowmotion iterate| without iterating."""
    sizes = formula_sizes(word)
    if not 1 <= i <= len(sizes):
        raise ValueError(f"step {i} outside 1..{len(sizes)}")
    return sizes[i - 1]


# -- long sequences and windows ------------------------------------------------


class _found_on_read:
    """A cached_property with no lock: the first read runs the method and
    keeps its value in the instance, where later reads find it first."""

    def __init__(self, find: Callable):
        self.find = find

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        obj.__dict__[self.find.__name__] = value = self.find(obj)
        return value


class MarkedSequence(Record):
    """A string over {'0','-'} or {'1','-'} with sliding windows.

    kind '0' windows select own-symbol occurrences i+1..i+width numbered from
    the display left; kind '1' numbers them from the display right.  A window
    includes the flanking '-' on either side when present and is returned in
    display order.  positions (the own-symbol positions in window order)
    and windows are found on their first read and kept as plain attributes.
    """

    _fields = ("symbols", "kind", "width")

    def __init__(self, symbols: str, kind: str, width: int):
        self.symbols = symbols
        self.kind = kind
        self.width = width

    @_found_on_read
    def positions(self) -> list[int]:
        """From one byte translation that marks each own symbol."""
        own = list(compress(range(len(self.symbols)),
                            self.symbols.encode().translate(_OWN[self.kind])))
        return own[::-1] if self.kind == "1" else own

    @_found_on_read
    def windows(self) -> tuple[str, ...]:
        """Every window, windows[i-1] == window(i).  A sequence of width 0
        has no windows."""
        if not self.width:
            return ()
        return tuple(map(self.window, range(
            1, self.symbols.count(self.kind) - self.width + 1)))

    def window(self, i: int) -> str:
        """Window i alone, from one cut of the display at its first i+width
        own symbols, counted from the left for kind '0' and from the right
        for kind '1' (where the first part ends at the window): the parts
        between the window's own symbols are kept as they stand, and the
        parts next to its ends give the flanks."""
        own, width = self.kind, self.width
        cut = i + width
        if own == "1":
            parts, left = self.symbols.rsplit(own, cut), 0
        else:
            parts, left = self.symbols.split(own, cut), i
        if not width or i < 1 or len(parts) <= cut:
            raise ValueError(f"window {i} out of range")
        right = left + width
        return ("-" * parts[left].endswith("-")
                + own.join(["", *parts[left + 1 : right], ""])
                + "-" * parts[right].startswith("-"))


# byte tables that map an own symbol to 1 and every other byte to 0
_OWN = {own: bytes(b == ord(own) for b in range(256)) for own in "01"}
# and the one that keeps the flag byte 1 of _flanks and clears every other
_FLAGGED = bytes(b == 1 for b in range(256))

# The marked sequence of a word in its own symbol is the word with every
# run of other symbols dashed out, then every such run in reverse order
# contributing own symbols joined by dashes, one per symbol of the run and
# one fewer for the run that holds the star, then the dashed word again.
# Both builders read the word's runs (parts) and the reversed word (back).
# A dashed word is a join of the own runs over single dashes, with a dash
# at an end where the word ends in other symbols.  The middle is the
# reversed word with a dash put between any two neighbouring other symbols
# (two passes of a non-overlapping replace reach every pair), the own
# symbols dropped and the other ones renamed: the runs come out in reverse
# order, each dashed within and joined to the next with no dash.  The star
# ends its run, so it comes first in the reversed run; it is dropped, with
# the dash that would join it to the next symbol of the run kept as the
# run's first character.


def _zero_form(parts: Sequence[str], back: str) -> str:
    """The marked zero sequence of a plain or starred word."""
    runs, zeros = parts[0::2], parts[1::2]
    dashed = ("-" * bool(runs[0]) + "-".join(zeros)
              + "-" * bool(zeros and runs[-1]))
    middle = (back.replace("*1", "-1").replace("*", "")
              .replace("11", "1-1").replace("11", "1-1")
              .replace("0", "").replace("1", "0"))
    return dashed + middle + dashed


def _ones_form(parts: Sequence[str], back: str) -> str:
    """The marked ones sequence of a plain word."""
    dashed = "-".join(parts[0::2])
    middle = (back.replace("00", "0-0").replace("00", "0-0")
              .replace("1", "").replace("0", "1"))
    return dashed + middle + dashed


def _flanks(display: str, pair: str) -> bytes:
    """One byte per symbol (any letter but the dash) of a marked sequence,
    in display order: 1 where the dash of `pair` flanks it ("1-": a dash
    right after the one, "-0": a dash right before the zero), else 0.  Each
    own symbol sits in at most one such pair, so one replace finds them
    all; the flags then read only where the dashes stand."""
    return (display.replace(pair, "\1").replace("-", "").encode()
            .translate(_FLAGGED))


def long_sequences(word: str) -> tuple[MarkedSequence, MarkedSequence]:
    """The two periodic marked sequences of a word.

    The zero form: the word with ones runs dashed out, then every ones run in
    reverse order contributing "0-0-...-0" with as many zeros as the run had
    ones, then the dashed word again; 2m+n zeros in total.  The ones form is
    built the same way with the roles swapped; m+2n ones, read right to left.
    Both are built from the word's runs.
    """
    m, n = _binary_counts(word)
    parts, back = _runs(word), word[::-1]
    return (
        MarkedSequence(_zero_form(parts, back), "0", m),
        MarkedSequence(_ones_form(parts, back), "1", n),
    )


def _window_runs(window: str) -> list[str]:
    runs = window.strip("-").split("-")  # the own runs, between dashes
    if "--" in window or "" in runs:
        raise ValueError(f"malformed window {window!r}")
    return runs


def zigzag(window0: str, window1: str) -> str:
    """Interleave a zero window and a ones window back into a word.

    Every '-' in one window stands for exactly one run of the other symbol,
    in order; the window starting with its own symbol dictates which run goes
    first.  The word interleaves the two windows' runs as they stand.
    """
    zero_runs, one_runs = _window_runs(window0), _window_runs(window1)
    lead0 = window0[0] == "-"
    if lead0 == (window1[0] == "-") or (
            (window0[-1] == "-") == (window1[-1] == "-")):
        raise ValueError("windows do not interlock")
    if window0.count("-") != len(one_runs) or window1.count("-") != len(zero_runs):
        raise ValueError("windows do not interlock")
    first, second = (one_runs, zero_runs) if lead0 else (zero_runs, one_runs)
    # interlocking windows leave the first symbol at most one run ahead
    word = first + second
    word[0::2], word[1::2] = first, second
    return "".join(word)


# -- the two-strand product codecs ---------------------------------------------


class KCodec(FiberCodec):
    """Ideals of [m]xK(n-1) as words.  A fiber of size n holds exactly one
    middle; an ideal with no such fiber is full rank and gets the grid word of
    its fiber levels (size minus one above the middles) over 2n-1 columns.
    Any other ideal gets the starred word of its fiber sizes over 2n columns,
    which is blind to which middle each fiber holds."""

    def __init__(self, poset: Poset, m: int, n: int, columns: Sequence):
        super().__init__(poset, m, n, columns)
        # a full-rank word's fiber level v reads the prefix of v cells,
        # and of v+1 from the middles on; a middle swap flips both middles
        self.levels = tuple(p[:n] + p[n + 1:] for p in self.tables)
        self.swaps = tuple((p[-1], p[n + 1] ^ p[n - 1])
                           for p in self.prefixes)

    def encode(self, mask: int) -> str:
        """The starred word of an ideal with a fiber of size n, else its
        full-rank word, from one read of its fiber sizes."""
        n = self.n
        sizes = self.sizes(mask)
        word = _fiber_word(sizes, 2 * n)
        # the zeros before the n-th one are the fibers of size below n; a
        # fiber of size n puts a zero after it, and it is starred, else it
        # is dropped, which lowers the fibers above n to their levels
        at = n - 1 + bisect_left(sizes[::-1], n)
        return word[:at] + "*" * (n in sizes) + word[at + 1:]

    def decode(self, word: str) -> int:
        """The ideal of a word this codec made: for a starred word, the
        representative of its class whose fibers hold the unprimed middle;
        for a full-rank word, the ideal of its fiber levels."""
        if "*" in word:
            return super().decode(word.replace("*", "1"))
        return self._read(word, 2 * self.n - 1, self.levels)

    def dual(self, mask: int) -> int:
        """Swap the two middles in every fiber that holds one of them."""
        n = self.n
        for fiber, swap in self.swaps:
            if (mask & fiber).bit_count() == n:
                mask ^= swap
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
    return "*" not in k_codec(ideal.poset).encode(ideal.mask)


def encode_K_fullrank(ideal: IdealSet) -> str:
    """Word in B(m, 2n-1) of a full-rank ideal, by fiber levels."""
    word = k_codec(ideal.poset).encode(ideal.mask)
    if "*" in word:
        raise InvalidSubset("ideal is not full rank")
    return word


def decode_K_fullrank(word: str, m: int, n: int) -> IdealSet:
    codec = k_codec(k_product_poset(m, n))
    if "*" in word:  # the codec would read it as a starred word
        raise ValueError(f"not a binary word: {word!r}")
    return IdealSet(codec.poset, codec.decode(word))


def epsilon_n(word: str) -> int:
    """1 when the middle one (the n-th of 2n-1) is immediately followed by 0."""
    _, ones = _binary_counts(word)
    if ones % 2 == 0:
        raise ValueError("expected an odd number of ones")
    pos = _nth_one(word, (ones + 1) // 2)
    return int(word[pos + 1 : pos + 2] == "0")


def _nth_one(word: str, n: int) -> int:
    """Position of the n-th one of a word that has at least n ones."""
    return len(word) - len(word.split("1", n)[-1]) - 1


# -- starred codec --------------------------------------------------------------


def validate_starred(sword: str) -> tuple[int, int]:
    """Check the starred-word shape and return (m, n)."""
    m, ones = sword.count("0"), sword.count("1")
    if m + ones + sword.count("*") != len(sword):
        raise ValueError(f"not a starred word: {sword!r}")
    if m + ones + 1 != len(sword):
        raise ValueError("expected exactly one star")
    if ones % 2 == 0:
        raise ValueError("expected an odd number of ones")
    n = (ones + 1) // 2
    star = sword.index("*")
    if sword.count("1", 0, star) != n - 1:
        raise ValueError(f"expected {n - 1} ones before the star")
    if sword[star + 1 : star + 2] != "0":
        raise ValueError("star must be immediately followed by 0")
    return m, n


@lru_cache(maxsize=1)
def _starred_shape(sword: str) -> tuple[int, int]:
    """validate_starred, kept for the last word it passed: verify-k runs
    psi_bar and then window_sizes_K on the same class word, which is
    checked once.  A refused word raises and is not kept."""
    return validate_starred(sword)


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
    word = k_codec(ideal.poset).encode(ideal.mask)
    if "*" not in word:
        raise InvalidSubset("ideal is full rank")
    return word


def decode_K_starred(sword: str, m: int, n: int) -> IdealSet:
    """Canonical representative of the encoded class: the unprimed middle."""
    codec = k_codec(k_product_poset(m, n))
    wm, wn = validate_starred(sword)
    if (wm, wn) != (codec.m, codec.n):
        raise ValueError(f"word shape is (m={wm}, n={wn}), "
                         f"expected ({codec.m}, {codec.n})")
    return IdealSet(codec.poset, codec.decode(sword))


def dual_ideal(ideal: IdealSet) -> IdealSet:
    """Swap the two middle elements in every fiber."""
    return IdealSet(ideal.poset, k_codec(ideal.poset).dual(ideal.mask))


# -- the starred dynamics ---------------------------------------------------------


def _push(runs: list[str]) -> None:
    """The star push on symbol runs: the star swaps with the one right
    before it; when that one shares the star's run, the one now right after
    the star moves to the front of the next run."""
    for q, run in enumerate(runs):
        if "*" in run:
            break
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
    _starred_shape(sword)
    return _shift(_blocks(sword), starred=True)


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
    return MarkedSequence(_zero_form(_runs(sword), sword[::-1]), "0", m)


def window_sizes_K(sword: str) -> list[int]:
    """Antichain sizes of the first m+2n-1 rowmotion iterates: window k of
    the marked zero sequence counts its "-0" occurrences, the zeros that
    start a zero run behind a dash, so one prefix sum over those zeros
    gives every window."""
    m, _ = _starred_shape(sword)
    zeros = _zero_form(_runs(sword), sword[::-1])
    counts = list(accumulate(_flanks(zeros, "-0"), initial=0))
    return list(map(sub, counts[m + 1:], counts[1:]))
