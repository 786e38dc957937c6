"""Finite graded posets with order ideals, antichains, and rowmotion.

Elements are integers 0..n-1 ordered by a fixed linear extension (rank first,
construction order second).  Subsets are bitmasks: bit i set means element i is
in the subset.  Comparability is precomputed, so the hot operations (closure,
maxima, minima, one rowmotion step) are a handful of integer bit operations.
"""

from __future__ import annotations

import math
import struct
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from ._record import Record

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
    have the same length.
    """

    __slots__ = (
        "n_elements", "rank", "labels", "keys", "covers",
        "down", "up", "max_rank", "full_mask", "_key_index",
    )

    def __init__(self, n_elements, rank, labels, keys, covers, down, up):
        self.n_elements = n_elements
        self.rank = rank
        self.labels = labels
        self.keys = keys
        self.covers = covers
        self.down = down
        self.up = up
        self.max_rank = max(rank) if rank else 0
        self.full_mask = (1 << n_elements) - 1
        self._key_index = {k: i for i, k in enumerate(keys)}

    @classmethod
    def from_cover_data(cls, elements, cover_pairs):
        """Build a poset from (key, rank, label) triples and cover pairs on keys.

        Elements are re-indexed by (rank, listed position), which is a linear
        extension because covers must increase rank.  Raises NotGraded if the
        data does not satisfy the graded-poset conditions.
        """
        elements = list(elements)
        n = len(elements)
        order = sorted(range(n), key=lambda t: (elements[t][1], t))
        keys = tuple(elements[t][0] for t in order)
        rank = tuple(elements[t][1] for t in order)
        labels = tuple(elements[t][2] for t in order)
        if len(set(keys)) != n:
            raise ValueError("duplicate element keys")
        index = {k: i for i, k in enumerate(keys)}

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

        down = [1 << i for i in range(n)]
        up = [1 << i for i in range(n)]
        for i, j in covers:  # i < j holds: rank sorts lower covers first
            down[j] |= down[i]
        for i, j in sorted(covers, key=lambda c: -c[1]):
            up[i] |= up[j]

        has_upper = [False] * n
        has_lower = [False] * n
        for i, j in covers:
            has_upper[i] = True
            has_lower[j] = True
        d = max(rank) if n else 0
        for i in range(n):
            if rank[i] < 1:
                raise NotGraded("ranks must start at 1")
            if not has_lower[i] and rank[i] != 1:
                raise NotGraded(f"minimal element {labels[i]} has rank {rank[i]}")
            if not has_upper[i] and rank[i] != d:
                raise NotGraded(f"maximal element {labels[i]} has rank {rank[i]}")
        return cls(n, rank, labels, tuple(keys), covers, tuple(down), tuple(up))

    @classmethod
    def empty(cls):
        return cls(0, (), (), (), (), (), ())

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
            if self.down[i] & mask != 1 << i:
                return False
            if self.up[i] & mask != 1 << i:
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

    @property
    def member_labels(self) -> tuple[str, ...]:
        return tuple(self.poset.labels[i] for i in self.members)

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
    adding its members in increasing order.  A stack entry holds an ideal s
    and the elements addable to s above the last one added.  Each such j,
    taken lowest first, gives the child s plus j, whose addable elements
    are those of s above j and the upper covers of j whose strict down-set
    now lies in s plus j.  The stack pops the largest j first, so s plus a
    larger element, and every ideal grown from it, comes before s plus a
    smaller one: the lexicographic order, with element 0 most significant.

    A poset on n elements has at least n+1 ideals (the prefixes of the
    linear extension), so n >= cap is refused before the search; otherwise
    the (cap+1)-th ideal found raises.  The masks are collected first, so
    a refusal comes before anything is yielded.
    """
    n = poset.n_elements
    if n >= cap:
        raise CapExceeded(f"more than {cap} ideals")
    # grow[j]: (bit, strict down-set) of each upper cover of j
    grow = [[] for _ in range(n)]
    minimal = poset.full_mask
    for j, z in poset.covers:
        grow[j].append((1 << z, poset.down[z] ^ (1 << z)))
        minimal &= ~(1 << z)
    masks = []
    record = masks.append
    stack = [(0, minimal)]
    pop, push = stack.pop, stack.append
    while stack:
        s, addable = pop()
        record(s)
        if len(masks) > cap:
            raise CapExceeded(f"more than {cap} ideals")
        while addable:
            low = addable & -addable
            addable ^= low
            t = s | low
            rest = addable
            for bit, below in grow[low.bit_length() - 1]:
                if below & t == below:
                    rest |= bit
            push((t, rest))
    yield from masks


def enumerate_ideals(poset: Poset, cap: int = DEFAULT_CAP) -> Iterator[IdealSet]:
    for mask in ideal_masks(poset, cap):
        yield IdealSet(poset, mask)


def _list_orbits(
    poset: Poset, cap: int
) -> tuple[list[int], list[int], list[int], list[list[int]]]:
    """Every orbit from one bit-sliced step: (masks, columns, minima, cycles).

    masks holds the ideals in ideal_masks order, and bit k of a column
    stands for masks[k]: columns[x] says whether the ideal holds x, and
    minima[x] whether the antichain of its image does.  One _step of every
    ideal, with its image transposed back, gives the image permutation;
    cycles lists each of its cycles, an orbit, as positions in masks, by
    its first seed in enumeration order and starting at that seed.
    """
    masks = list(ideal_masks(poset, cap))
    columns = _columns(masks, poset.n_elements)
    minima, image = _step(columns, *_covers(poset), (1 << len(masks)) - 1)
    index = {mask: k for k, mask in enumerate(masks)}
    successor = list(map(index.__getitem__, _rows(image, len(masks))))
    seen = bytearray(len(masks))
    cycles = []
    for seed in range(len(masks)):
        if seen[seed]:
            continue
        cycle = []
        k = seed
        while not seen[k]:
            seen[k] = 1
            cycle.append(k)
            k = successor[k]
        if k != seed:
            raise RuntimeError("a rowmotion cycle that misses its seed")
        cycles.append(cycle)
    return masks, columns, minima, cycles


def all_orbits(poset: Poset, cap: int = DEFAULT_CAP) -> list[OrbitReport]:
    """Partition all ideals into rowmotion orbits, deterministically.

    Orbits are listed by their first seed in enumeration order, and each orbit
    starts at that seed.
    """
    masks, _, minima, cycles = _list_orbits(poset, cap)
    # sizes[k]: the antichain size of the image of masks[k], which is the
    # antichain size of the next ideal on the cycle
    sizes = [a.bit_count() for a in _rows(minima, len(masks))]
    return [OrbitReport(poset, len(c), tuple(map(masks.__getitem__, c)),
                        tuple(map(sizes.__getitem__, c[-1:] + c[:-1])))
            for c in cycles]


def operator_order(poset: Poset, cap: int = DEFAULT_CAP) -> int:
    """Order of rowmotion on the full ideal set (lcm of orbit lengths)."""
    *_, cycles = _list_orbits(poset, cap)
    return math.lcm(*map(len, cycles))


# -- the bit-sliced step ------------------------------------------------------
#
# _step runs rowmotion on every ideal at once, once per listing, in
# _list_orbits; every orbit statistic is read from that one listing.  The
# ideals are held transposed: column x is an int whose bit k says whether
# ideal k, in ideal_masks order, holds element x.  _columns transposes the
# masks forward, with 8 strided slices per element.  _rows transposes the
# image columns back, and all_orbits the antichain columns, with 8
# shift-and-mask gathers per column; rows of up to 64 bits come out of one
# unpack, wider ones take one from_bytes per ideal.


# _SPREAD[b][r] maps a byte to its bit b, moved to bit r: counting up from
# 0, bit b is clear for 2**b bytes, then set for 2**b, and so on
_SPREAD = tuple(
    tuple((bytes(1 << b) + bytes([1 << r]) * (1 << b)) * (128 >> b)
          for r in range(8))
    for b in range(8)
)


def _columns(masks: Sequence[int], n: int) -> list[int]:
    """Transpose masks into one int per element, bit k taken from masks[k].

    Byte j of mask k sits at buf[k * width + j]; the masks k = 8q + r of one
    residue r form a strided slice, and a table moves the wanted bit of each
    of its bytes to bit r, so byte q of the column collects ideals 8q..8q+7.
    """
    width = (n + 7) // 8
    stride = 8 * width
    buf = b"".join(m.to_bytes(width, "little") for m in masks)
    buf += bytes(-len(masks) % 8 * width)
    columns = []
    for x in range(n):
        j, b = divmod(x, 8)
        column = 0
        for r, table in enumerate(_SPREAD[b]):
            column |= int.from_bytes(
                buf[j + r * width::stride].translate(table), "little")
        columns.append(column)
    return columns


def _rows(columns: Sequence[int], k: int) -> list[int]:
    """Transpose columns into k rows, bit x of row i taken from columns[x]:
    the inverse of _columns, one block of 8 columns at a time.

    Row i = 8q + r takes width bytes at buf[i * stride].  Byte q of a
    column holds rows 8q..8q+7; its bit r, moved to bit 0 and then to bit b
    for column 8a + b, gives byte a of row 8q + r for every q at once, and
    the rows of one residue r form a strided slice.  Rows of up to 8 bytes
    are padded to 8 and read in one unpack.
    """
    width = (len(columns) + 7) // 8
    if not width:
        return [0] * k
    depth = (k + 7) // 8
    stride = max(width, 8)
    low = int.from_bytes(b"\1" * depth, "little")  # bit 0 of every byte
    buf = bytearray(8 * depth * stride)
    for r in range(8):
        for a in range(width):
            gathered = 0
            for b, column in enumerate(columns[8 * a:8 * a + 8]):
                gathered |= (column >> r & low) << b
            buf[r * stride + a::8 * stride] = gathered.to_bytes(
                depth, "little")
    if stride == 8:
        return list(struct.unpack_from(f"<{k}Q", buf))
    view = memoryview(buf)
    return [int.from_bytes(view[i:i + width], "little")
            for i in range(0, k * width, width)]


def _covers(poset: Poset) -> tuple[list[list[int]], list[list[int]]]:
    """Lower and upper covers of every element."""
    lower = [[] for _ in range(poset.n_elements)]
    upper = [[] for _ in range(poset.n_elements)]
    for a, b in poset.covers:
        lower[b].append(a)
        upper[a].append(b)
    return lower, upper


def _step(cur: Sequence[int], lower: list[list[int]], upper: list[list[int]],
          full: int) -> tuple[list[int], list[int]]:
    """Rowmotion on every column at once: (minima, image).

    The minima of the complement are M_x = ~X_x & AND(X_y, y a lower cover
    of x), which is also the antichain of the image, and the image is their
    closure X'_x = M_x | OR(X'_z, z an upper cover of x), from the top down.
    """
    n = len(cur)
    minima = []
    for x in range(n):
        m = full ^ cur[x]
        for y in lower[x]:
            m &= cur[y]
        minima.append(m)
    image = [0] * n
    for x in range(n - 1, -1, -1):
        v = minima[x]
        for z in upper[x]:
            v |= image[z]
        image[x] = v
    return minima, image
