"""Finite graded posets with order ideals, antichains, and rowmotion.

Elements are integers 0..n-1 ordered by a fixed linear extension (rank first,
construction order second).  Subsets are bitmasks: bit i set means element i is
in the subset.  Comparability is precomputed, so the hot operations (closure,
maxima, minima, one rowmotion step) are a handful of integer bit operations.
"""

from __future__ import annotations

import math
import struct
from bisect import bisect_right
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from ._record import Record, TupleRecord

DEFAULT_CAP = 10**7


class CapExceeded(RuntimeError):
    """An exhaustive enumeration would exceed its configured budget."""


class InvalidSubset(ValueError):
    """A member set violates its declared role (ideal or antichain)."""


class NotGraded(ValueError):
    """Cover and rank data do not describe a graded poset."""


def bits_of(mask: int) -> Iterator[int]:
    """Yield set bit positions of mask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Poset:
    """Immutable graded poset.

    rank values start at 1 for minimal elements; covers raise rank by exactly
    one and every maximal element sits at the top rank, so all maximal chains
    have the same length.  lower[i] and upper[i] are the lower and upper
    covers of element i, and down[i] and up[i] the masks of the elements
    below and above it, i included.

    min_ideals is a proven lower bound on the number of ideals, set once:
    the larger of max(n + 1, 2**w), w the size of the widest rank, and the
    min_ideals that the constructor building the poset proves.  ideal_masks
    gives the proofs.
    """

    __slots__ = (
        "n_elements", "rank", "labels", "keys", "covers", "lower", "upper",
        "down", "up", "max_rank", "full_mask", "min_ideals", "_key_index",
    )

    def __init__(self, rank, labels, keys, key_index, covers, lower, upper,
                 down, up, min_ideals=1):
        self.n_elements = len(rank)
        self.rank = rank
        self.labels = labels
        self.keys = keys
        self._key_index = key_index
        self.covers = covers
        self.lower = lower
        self.upper = upper
        self.down = down
        self.up = up
        # rank is sorted: the linear extension lists rank first
        self.max_rank = rank[-1] if rank else 0
        self.full_mask = (1 << self.n_elements) - 1
        # the widest rank, one bisect per rank
        width = start = 0
        while start < self.n_elements:
            end = bisect_right(rank, rank[start], start)
            if end - start > width:
                width = end - start
            start = end
        self.min_ideals = max(min_ideals, self.n_elements + 1, 1 << width)

    @classmethod
    def from_cover_data(cls, elements, cover_pairs, min_ideals=1):
        """Build a poset from (key, rank, label) triples and cover pairs on keys.

        min_ideals is a lower bound on the number of ideals that the caller
        has proven; the poset's own min_ideals is at least as large.

        Elements are re-indexed by (rank, listed position), which is a linear
        extension because covers must increase rank.  Each element's lower
        and upper covers are kept as index tuples in that order.  Raises
        NotGraded if the data does not satisfy the graded-poset conditions.
        """
        elements = list(elements)
        n = len(elements)
        order = sorted(range(n), key=lambda t: (elements[t][1], t))
        keys = tuple(elements[t][0] for t in order)
        rank = tuple(elements[t][1] for t in order)
        labels = tuple(elements[t][2] for t in order)
        index = dict(zip(keys, range(n)))
        if len(index) != n:
            raise ValueError("duplicate element keys")

        covers = set()
        for a, b in cover_pairs:
            i, j = index[a], index[b]
            if rank[j] != rank[i] + 1:
                raise NotGraded(
                    f"cover {labels[i]} < {labels[j]} changes rank by "
                    f"{rank[j] - rank[i]}, expected 1"
                )
            covers.add((i, j))
        covers = tuple(sorted(covers))
        lower = [[] for _ in range(n)]
        upper = [[] for _ in range(n)]
        down = [1 << i for i in range(n)]
        up = down[:]
        # i < j in each cover, and the covers run in order of i: every
        # lower cover of i is closed before i closes j, and read backwards
        # every upper cover of j is closed before j closes i
        for i, j in covers:
            lower[j].append(i)
            upper[i].append(j)
            down[j] |= down[i]
        for i, j in reversed(covers):
            up[i] |= up[j]
        lower = tuple(map(tuple, lower))
        upper = tuple(map(tuple, upper))

        poset = cls(rank, labels, keys, index, covers, lower, upper,
                    tuple(down), tuple(up), min_ideals)
        if n and rank[0] < 1:
            raise NotGraded("ranks must start at 1")
        top = poset.max_rank
        for i in range(n):
            if not lower[i] and rank[i] != 1:
                raise NotGraded(f"minimal element {labels[i]} has rank {rank[i]}")
            if not upper[i] and rank[i] != top:
                raise NotGraded(f"maximal element {labels[i]} has rank {rank[i]}")
        return poset

    @classmethod
    def empty(cls):
        return cls((), (), (), {}, (), (), (), (), ())

    # -- basic relations ---------------------------------------------------

    def le(self, i: int, j: int) -> bool:
        return bool(self.down[j] >> i & 1)

    def index_of(self, key) -> int:
        return self._key_index[key]

    def rank_ideal_mask(self, r: int) -> int:
        """Union of the first r rank levels (the rank ideal L_r)."""
        mask = 0
        for i in range(self.n_elements):
            if self.rank[i] <= r:
                mask |= 1 << i
        return mask

    def rank_ideal(self, r: int) -> "IdealSet":
        if not 0 <= r <= self.max_rank:
            raise ValueError(f"rank ideal index {r} outside 0..{self.max_rank}")
        return IdealSet(self, self.rank_ideal_mask(r))

    # -- mask-level subset operations ---------------------------------------

    def is_ideal_mask(self, mask: int) -> bool:
        return all(self.down[i] & mask == self.down[i] for i in bits_of(mask))

    def is_antichain_mask(self, mask: int) -> bool:
        for i in bits_of(mask):
            # a member above i holds i in its own down set
            if self.down[i] & mask != 1 << i:
                return False
        return True

    def closure_mask(self, mask: int) -> int:
        out = 0
        for i in bits_of(mask):
            out |= self.down[i]
        return out

    def maxima_mask(self, mask: int) -> int:
        out = 0
        for i in bits_of(mask):
            if self.up[i] & mask == 1 << i:
                out |= 1 << i
        return out

    def minima_mask(self, mask: int) -> int:
        out = 0
        for i in bits_of(mask):
            if self.down[i] & mask == 1 << i:
                out |= 1 << i
        return out

    def rowmotion_ideal_mask(self, mask: int) -> int:
        """One rowmotion step on an ideal: close the minima of the complement."""
        comp = self.full_mask & ~mask
        return self.closure_mask(self.minima_mask(comp))

    # -- validated wrappers --------------------------------------------------

    def ideal(self, members: Iterable[int] | int) -> "IdealSet":
        mask = members if isinstance(members, int) else _mask_from(members)
        return IdealSet(self, mask)

    def antichain(self, members: Iterable[int] | int) -> "AntichainSet":
        mask = members if isinstance(members, int) else _mask_from(members)
        return AntichainSet(self, mask)

    def ideal_of_keys(self, keys: Iterable) -> "IdealSet":
        return self.ideal(self.index_of(k) for k in keys)

    def __repr__(self):
        return f"Poset(n={self.n_elements}, max_rank={self.max_rank})"


def _mask_from(members: Iterable[int]) -> int:
    mask = 0
    for i in members:
        mask |= 1 << i
    return mask


class _MemberSet(Record):
    """A member set of a poset as a bit mask.  Each kind validates its mask
    in __post_init__, which __init__ calls; perfbench/layertrace.py counts
    IdealSet validations under that name."""

    __slots__ = _fields = ("poset", "mask")

    def __init__(self, poset: Poset, mask: int):
        self.poset = poset
        self.mask = mask
        self.__post_init__()

    def _check_range(self):
        if self.mask < 0 or self.mask > self.poset.full_mask:
            raise InvalidSubset("mask outside element range")

    @property
    def members(self) -> tuple[int, ...]:
        return tuple(bits_of(self.mask))

    def __len__(self):
        return self.mask.bit_count()

    def __contains__(self, i: int):
        return bool(self.mask >> i & 1)


class IdealSet(_MemberSet):
    """A downward-closed subset, validated at construction."""

    __slots__ = ()

    def __post_init__(self):
        self._check_range()
        if not self.poset.is_ideal_mask(self.mask):
            raise InvalidSubset(f"not downward closed: {sorted(bits_of(self.mask))}")

    def bit_string(self) -> str:
        return "".join("1" if self.mask >> i & 1 else "0"
                       for i in range(self.poset.n_elements))


class AntichainSet(_MemberSet):
    """A subset of pairwise incomparable elements, validated at construction."""

    __slots__ = ()

    def __post_init__(self):
        self._check_range()
        if not self.poset.is_antichain_mask(self.mask):
            raise InvalidSubset(f"not an antichain: {sorted(bits_of(self.mask))}")


# -- rowmotion and orbits ----------------------------------------------------


def ideal_of_antichain(antichain: AntichainSet) -> IdealSet:
    """Smallest ideal containing the antichain (union of principal ideals)."""
    poset = antichain.poset
    return IdealSet(poset, poset.closure_mask(antichain.mask))


def antichain_of_ideal(ideal: IdealSet) -> AntichainSet:
    """Maximal elements of an ideal."""
    poset = ideal.poset
    return AntichainSet(poset, poset.maxima_mask(ideal.mask))


def rowmotion_antichain(antichain: AntichainSet) -> AntichainSet:
    """Minimal elements of the complement of the generated ideal."""
    poset = antichain.poset
    closed = poset.closure_mask(antichain.mask)
    comp = poset.full_mask & ~closed
    return AntichainSet(poset, poset.minima_mask(comp))


def rowmotion_ideal(ideal: IdealSet) -> IdealSet:
    """Rowmotion transported to ideals: close, step, regenerate."""
    poset = ideal.poset
    return IdealSet(poset, poset.rowmotion_ideal_mask(ideal.mask))


class OrbitReport(Record):
    """One rowmotion orbit with its antichain-size statistics.

    The orbit is held as ideal masks, starting at the seed; ideals wraps
    them as validated IdealSets on first read, and average_size is the
    exact mean of the antichain sizes, computed on each read.
    """

    _fields = ("poset", "length", "masks", "antichain_sizes")

    def __init__(self, poset: Poset, length: int, masks: tuple[int, ...],
                 antichain_sizes: tuple[int, ...]):
        self.poset = poset
        self.length = length
        self.masks = masks
        self.antichain_sizes = antichain_sizes

    @cached_property
    def ideals(self) -> tuple[IdealSet, ...]:
        return tuple(IdealSet(self.poset, m) for m in self.masks)

    @property
    def average_size(self) -> Fraction:
        return Fraction(sum(self.antichain_sizes), self.length)

    @classmethod
    def from_seed_mask(
        cls, poset: Poset, seed: int, cap: int | None = None
    ) -> "OrbitReport":
        masks = [seed]
        cur = poset.rowmotion_ideal_mask(seed)
        while cur != seed:
            masks.append(cur)
            # an orbit longer than the cap means the ideal set is too
            if cap is not None and len(masks) > cap:
                raise CapExceeded(f"more than {cap} ideals in one orbit")
            cur = poset.rowmotion_ideal_mask(cur)
        sizes = tuple(poset.maxima_mask(m).bit_count() for m in masks)
        return cls(
            poset=poset,
            length=len(masks),
            masks=tuple(masks),
            antichain_sizes=sizes,
        )


def orbit_of(ideal: IdealSet, cap: int = DEFAULT_CAP) -> OrbitReport:
    return OrbitReport.from_seed_mask(ideal.poset, ideal.mask, cap)


def ideal_masks(poset: Poset, cap: int = DEFAULT_CAP) -> Iterator[int]:
    """All ideals as masks, in lexicographic order of the indicator sequence
    along the linear extension (empty ideal first, full ideal last).

    A depth-first search that visits each ideal once, so its work grows
    with the ideals it yields.  Each ideal is grown from the empty one by
    adding its members in increasing order.  The walk holds an ideal s and
    the elements addable to s above the last one added.  Each such j gives
    the child t = s plus j, whose addable elements are those of s above j
    and the upper covers of j that become addable.  Since t is an ideal
    that holds j, an upper cover of j is addable once its other lower
    covers lie in t; so the new ones depend only on t & rel_j, where rel_j
    holds the other lower covers of j's upper covers, and a table of j
    maps each such key to them.  The table is filled as the walk meets
    its keys, one lookup per child, so the tables never hold more keys
    than the walk has met ideals, recorded or stacked.  The walk stacks
    every child but the largest, lowest j first, and moves straight into
    the largest; at a leaf, where nothing is addable, it pops the stack.
    So s plus a larger element, and every ideal grown from it, comes
    before s plus a smaller one: the lexicographic order, with element 0
    most significant.

    A poset has at least poset.min_ideals ideals, so a bound above cap is
    refused before the search.  Every poset's bound is at least n + 1 (the
    prefixes of the linear extension) and 2**w for a rank of w elements
    (its subsets are antichains, each the maxima of its own ideal).  The
    constructors of constructions prove more: Prod(A, B) takes the largest
    of A's and B's bounds and C(h_A + n_B, h_A) and C(h_B + n_A, h_B), h
    the height, since I -> I & Q maps the ideals of A x B onto those of
    Q = (a maximal chain of A) x B, whose ideals hold the C(n_B + h_A, h_A)
    multichains of h_A ideals inside one maximal chain of J(B); OSum takes
    a + b - 1 and DUnion a * b, the ideal counts of an ordinal sum and a
    disjoint union in those of their parts.  K(r) and H(n) take their
    ideal counts: K(r) has the r + 1 prefixes of its lower chain, 2 ideals
    with one middle element, 1 with both and r more up its upper chain,
    2r + 4 in all; the ideals of H(n) are the shifted shapes inside its
    staircase, strict partitions with parts at most n, one for each subset
    of 1..n, 2**n in all.  Below the bound the walk
    decides: it records one ideal per pass and runs at most cap+1 passes;
    one check after it refuses when it recorded cap+1 ideals.  The masks
    are collected first, so a refusal comes before anything is yielded.
    """
    if poset.min_ideals > cap:
        raise CapExceeded(f"more than {cap} ideals")
    lower, upper = poset.lower, poset.upper
    # grow[j + 1], read at the bit_length of j's bit: rel_j; j's table;
    # and (z, the other lower covers of z) of each upper cover z of j,
    # which fill the table
    grow = [(0, {}, ())]
    for j, above in enumerate(upper):
        covers = []
        rel = 0
        for z in above:
            others = 0
            for i in lower[z]:
                if i != j:
                    others |= 1 << i
            covers.append((z, others))
            rel |= others
        grow.append((rel, {}, covers))
    # the minimal elements, of rank 1, come first in the linear extension
    minimal = (1 << poset.rank.count(1)) - 1
    masks = []
    # a stacked child takes two ints, its ideal and then its addable set,
    # so that the stack holds no tuples; the list methods are called by
    # name, which the interpreter specializes, and not bound to locals
    stack = []
    s, addable = 0, minimal
    for _ in range(cap + 1):
        masks.append(s)
        if not addable:
            if not stack:
                break
            addable = stack.pop()
            s = stack.pop()
            continue
        while True:
            low = addable & -addable
            addable ^= low
            rel, table, covers = grow[low.bit_length()]
            # rel holds no low, so s & rel is t & rel_j
            key = s & rel
            up = table.get(key)
            if up is None:
                up = 0
                for z, others in covers:
                    if others & key == others:
                        up |= 1 << z
                table[key] = up
            if not addable:
                break
            stack.append(s | low)
            stack.append(addable | up)
        # low is the largest addable element: step into s plus low
        s |= low
        addable = up
    if len(masks) > cap:
        raise CapExceeded(f"more than {cap} ideals")
    yield from masks


def enumerate_ideals(poset: Poset, cap: int = DEFAULT_CAP) -> Iterator[IdealSet]:
    for mask in ideal_masks(poset, cap):
        yield IdealSet(poset, mask)


class LaneCounts(TupleRecord):
    """The occurrence table of a listing, one bit lane per orbit.

    Orbit r owns the widths[r] bits from starts[r] of each int, a lane as
    wide as the least power of two that is at least 8 and at least the
    orbit's length.  Lane r of ideal_counts[x] holds how many ideals of
    orbit r hold x, lane r of antichain_counts[x] how many of their
    antichains hold x, and lane r of lengths the length of orbit r.  No
    count exceeds its orbit's length, so the sum of two counts stays inside
    its lane.
    """

    __slots__ = ()
    ideal_counts: list[int]
    antichain_counts: list[int]
    lengths: int
    starts: list[int]
    widths: list[int]

    def orbits_in(self, bits: int) -> list[int]:
        """The orbits whose lanes hold a set bit of bits, in increasing
        order."""
        return [r for r, (start, width) in enumerate(zip(self.starts,
                                                         self.widths))
                if bits >> start & (1 << width) - 1]


class Listing(TupleRecord):
    """The tuple (masks, lengths, sizes) of every rowmotion orbit.

    masks holds the ideals orbit after orbit: the orbits by their first
    seed in ideal_masks order, each from that seed.  lengths holds the
    orbit lengths, so each orbit is the slice of masks after the orbits
    before it, and byte k of sizes is the antichain size of masks[k].
    lane_counts gives the per-orbit occurrence counts of every orbit.
    """

    __slots__ = ()
    masks: tuple[int, ...]
    lengths: list[int]
    sizes: bytes

    def lane_counts(self, poset: Poset) -> LaneCounts:
        """The LaneCounts of every orbit at once; poset is the poset listed.

        Each orbit's masks are laid out in its lane, widest lanes first,
        the rest of the lane zero, and transposed once with _columns; the
        antichain columns are read from those with _maxima.  Every lane of
        a column is then popcounted at once by SWAR folds,
        x = (x & m_f) + (x >> f & m_f) for f = 1, 2, 4, ..., where m_f
        keeps the low half of every 2f-bit field of the lanes at least 2f
        wide, and the narrower lanes, already counted, are kept as they
        are.  Each lane starts at a multiple of its width, as the lanes
        before it are at least as wide, so no field straddles two lanes.  A
        lane is 8 bits wide or less than twice its orbit's length, so each
        int is at most 2N + 8R bits wide for N ideals in R orbits.
        """
        masks, lengths = self.masks, self.lengths
        widths = [max(8, 1 << (length - 1).bit_length()) for length in lengths]
        cuts = list(accumulate(lengths, initial=0))
        starts = [0] * len(lengths)
        rows = []
        packed = []
        for r in sorted(range(len(lengths)), key=widths.__getitem__,
                        reverse=True):
            starts[r] = len(rows)
            packed.append(lengths[r].to_bytes(widths[r] // 8, "little"))
            rows += masks[cuts[r]:cuts[r + 1]]
            rows += [0] * (widths[r] - lengths[r])
        ideal = _columns(rows, poset.n_elements)
        columns = ideal + _maxima(ideal, poset.upper)
        nbytes = len(rows) // 8
        f = 1
        while f < max(widths):
            # the lanes at least 2f wide fill the low wide bytes of a column
            wide = sum(w for w in widths if w >= 2 * f) // 8
            unit = _LOW_HALVES.get(f) or b"\xff" * (f // 8) + bytes(f // 8)
            low = unit * (wide // len(unit))
            m = int.from_bytes(low + bytes(nbytes - wide), "little")
            kept = int.from_bytes(low + b"\xff" * (nbytes - wide), "little")
            columns = [(c & kept) + (c >> f & m) for c in columns]
            f *= 2
        n = poset.n_elements
        return LaneCounts(columns[:n], columns[n:],
                          int.from_bytes(b"".join(packed), "little"),
                          starts, widths)


def list_orbits(poset: Poset, cap: int = DEFAULT_CAP) -> Listing:
    """The Listing of poset: the image of every ideal under one _step,
    transposed back, gives the permutation whose cycles are the orbits,
    and the ideals and their antichain sizes are gathered into the order
    of those cycles once."""
    masks = list(ideal_masks(poset, cap))
    k = len(masks)
    columns = _columns(masks, poset.n_elements)
    image = _step(columns, poset.lower, poset.upper, (1 << k) - 1)
    index = dict(zip(masks, range(k)))
    successor = list(map(index.__getitem__, _rows(image, k)))
    seen = bytearray(k)
    order = []
    lengths = []
    for seed in range(k):
        if seen[seed]:
            continue
        start = len(order)
        j = seed
        while not seen[j]:
            seen[j] = 1
            order.append(j)
            j = successor[j]
        if j != seed:
            raise RuntimeError("a rowmotion cycle that misses its seed")
        lengths.append(len(order) - start)
    sizes = _bit_counts(_maxima(columns, poset.upper), k)
    return Listing(_gather(masks, order), lengths,
                   bytes(_gather(sizes, order)))


def all_orbits(poset: Poset, cap: int = DEFAULT_CAP) -> list[OrbitReport]:
    """Partition all ideals into rowmotion orbits, deterministically.

    Orbits are listed by their first seed in enumeration order, and each orbit
    starts at that seed.
    """
    masks, lengths, sizes = list_orbits(poset, cap)
    reports = []
    end = 0
    for length in lengths:
        start, end = end, end + length
        reports.append(OrbitReport(poset, length, masks[start:end],
                                   tuple(sizes[start:end])))
    return reports


def operator_order(poset: Poset, cap: int = DEFAULT_CAP) -> int:
    """Order of rowmotion on the full ideal set (lcm of orbit lengths)."""
    return math.lcm(*list_orbits(poset, cap).lengths)


# -- the bit-sliced step ------------------------------------------------------
#
# list_orbits is the one orbit engine: it runs _step on every ideal at
# once, and all_orbits, operator_order and the checkers of homomesy read
# the Listing it returns.  The ideals are held transposed: column x is an
# int whose bit k says whether ideal k, in ideal_masks order, holds x.
# _columns transposes the masks forward and _rows the image columns back,
# both through _transpose8, one 8x8 bit block per 64-bit lane.  The
# antichain sizes are counted over the antichain columns (_maxima) with
# _bit_counts, without transposing them back, and _gather puts the masks
# and the sizes into orbit order.


def _gather(values: Sequence, order: list[int]) -> tuple:
    """values at the positions of order, in one call."""
    gathered = itemgetter(*order)(values)
    return (gathered,) if len(order) == 1 else gathered  # a bare item


def _maxima(columns: Sequence[int], upper: Sequence[Sequence[int]]):
    """The antichain columns of ideal columns: column x less the columns
    of x's upper covers, which it holds."""
    antichain = []
    for x, above in enumerate(upper):
        covered = 0
        for z in above:
            covered |= columns[z]
        antichain.append(columns[x] ^ covered)
    return antichain


# (shift, lane) of the three delta swaps of an 8x8 bit transpose, byte r of
# a lane holding row r: bits at distance 7, then 2x2 blocks at distance
# 14, then 4x4 blocks at distance 28 trade places
_DELTA_SWAPS = ((7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC),
                (28, 0x00000000F0F0F0F0))


@lru_cache(maxsize=1)
def _swap_masks(nbytes: int) -> tuple[tuple[int, int], ...]:
    """(shift, mask) of each delta swap, its lane repeated over nbytes."""
    return tuple((shift, int.from_bytes(
        lane.to_bytes(8, "little") * (nbytes // 8), "little"))
        for shift, lane in _DELTA_SWAPS)


def _transpose8(x: int, nbytes: int) -> int:
    """Transpose the 8x8 bit block in each 64-bit lane of x, nbytes bytes
    long (a multiple of 8): bit c of byte r of a lane trades places with
    bit r of byte c.  No masked bit reaches past its own lane, so one
    shift of the whole int moves every lane at once."""
    for shift, mask in _swap_masks(nbytes):
        t = (x ^ x >> shift) & mask
        x ^= t ^ t << shift
    return x


def _columns(masks: Sequence[int], n: int) -> list[int]:
    """Transpose masks into one int per element, bit k taken from masks[k].

    Byte j of mask k sits at buf[k * width + j], so byte j of every mask is
    the strided slice buf[j::width]: in its 64-bit lane q, byte r holds
    elements 8j..8j+7 of mask 8q + r.  Transposed, byte c of lane q holds
    element 8j + c of masks 8q..8q+7, which is byte q of that element's
    column, so each column is one strided slice of the block.  Masks of up
    to 64 bits are packed 8 bytes wide in one struct pack, the inverse of
    the unpack in _rows; wider ones take one to_bytes each.
    """
    k = len(masks)
    if n <= 64:
        width = 8
        buf = struct.pack(f"<{k}Q", *masks)
    else:
        width = (n + 7) // 8
        buf = b"".join(m.to_bytes(width, "little") for m in masks)
    nbytes = k + -k % 8
    buf += bytes((nbytes - k) * width)
    columns = []
    for j in range((n + 7) // 8):
        block = _transpose8(int.from_bytes(buf[j::width], "little"),
                            nbytes).to_bytes(nbytes, "little")
        columns += [int.from_bytes(block[c::8], "little")
                    for c in range(min(8, n - 8 * j))]
    return columns


def _rows(columns: Sequence[int], k: int) -> list[int]:
    """Transpose columns into k rows, bit x of row i taken from columns[x]:
    the inverse of _columns, one block of 8 columns at a time.

    Column 8a + c fills byte c of every 64-bit lane of a block, its byte q
    going to lane q; transposed, byte r of lane q is byte a of row 8q + r.
    Row i takes width bytes at buf[i * stride], so the block goes into the
    rows with one strided assignment at buf[a::stride].  Rows of up to 8
    bytes are padded to 8 and read in one unpack.
    """
    width = (len(columns) + 7) // 8
    if not width:
        return [0] * k
    depth = (k + 7) // 8
    nbytes = 8 * depth
    stride = max(width, 8)
    buf = bytearray(nbytes * stride)
    for a in range(width):
        block = bytearray(nbytes)
        for c, column in enumerate(columns[8 * a:8 * a + 8]):
            block[c::8] = column.to_bytes(depth, "little")
        buf[a::stride] = _transpose8(int.from_bytes(block, "little"),
                                     nbytes).to_bytes(nbytes, "little")
    if stride == 8:
        return list(struct.unpack_from(f"<{k}Q", buf))
    view = memoryview(buf)
    return [int.from_bytes(view[i:i + width], "little")
            for i in range(0, k * width, width)]


# the low half of every 2f-bit field of a byte, for the lane folds with
# f below 8
_LOW_HALVES = {1: b"\x55", 2: b"\x33", 4: b"\x0f"}

# the digits of format(x, "b") as the bytes 0 and 1
_BINARY_DIGITS = bytes.maketrans(b"01", b"\0\1")


def _bit_counts(columns: Sequence[int], k: int) -> bytes:
    """Byte i is the number of columns with bit i set, for i < k: the
    popcounts of the k rows of _rows(columns, k), without the transpose.

    A ripple-carry adder adds the columns into counter planes, plane b
    holding bit b of every row's count.  Each plane is written out in
    binary, most significant row first, and its digits become bytes 0 and
    1; read big-endian and shifted by b, byte i of the int holds bit b of
    row i's count.  A count must stay below 256.  For the antichain columns
    of a listing it does: the closures of the 2**w subsets of an antichain of
    w elements are 2**w distinct ideals, so no antichain size exceeds
    log2(k), and k < 2**256.
    """
    planes = []
    for carry in columns:
        for b, plane in enumerate(planes):
            planes[b] = plane ^ carry
            carry &= plane
            if not carry:
                break
        else:
            if carry:
                planes.append(carry)
    counts = 0
    for b, plane in enumerate(planes):
        counts |= int.from_bytes(format(plane, f"0{k}b").encode().translate(
            _BINARY_DIGITS), "big") << b
    return counts.to_bytes(k, "little")


def _step(cur: Sequence[int], lower: Sequence[Sequence[int]],
          upper: Sequence[Sequence[int]], full: int) -> list[int]:
    """Rowmotion on every column at once: the image columns.

    The minima of the complement are M_x = ~X_x & AND(X_y, y a lower cover
    of x), and the image is their closure X'_x = M_x | OR(X'_z, z an upper
    cover of x), from the top down.
    """
    image = [0] * len(cur)
    for x in range(len(cur) - 1, -1, -1):
        v = full ^ cur[x]
        for y in lower[x]:
            v &= cur[y]
        for z in upper[x]:
            v |= image[z]
        image[x] = v
    return image
