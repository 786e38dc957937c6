"""Finite graded posets with order ideals, antichains, and rowmotion.

Elements are integers 0..n-1 ordered by a fixed linear extension (rank first,
construction order second).  Subsets are bitmasks: bit i set means element i is
in the subset.  Comparability is precomputed, so the hot operations (closure,
maxima, minima, one rowmotion step) are a handful of integer bit operations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Sequence

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

    def rank_level_mask(self, r: int) -> int:
        mask = 0
        for i in range(self.n_elements):
            if self.rank[i] == r:
                mask |= 1 << i
        return mask

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


@dataclass(frozen=True)
class IdealSet:
    """A downward-closed subset, validated at construction."""

    poset: Poset
    mask: int

    def __post_init__(self):
        if self.mask < 0 or self.mask > self.poset.full_mask:
            raise InvalidSubset("mask outside element range")
        if not self.poset.is_ideal_mask(self.mask):
            raise InvalidSubset(f"not downward closed: {sorted(bits_of(self.mask))}")

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

    def bit_string(self) -> str:
        return "".join("1" if self.mask >> i & 1 else "0"
                       for i in range(self.poset.n_elements))


@dataclass(frozen=True)
class AntichainSet:
    """A subset of pairwise incomparable elements, validated at construction."""

    poset: Poset
    mask: int

    def __post_init__(self):
        if self.mask < 0 or self.mask > self.poset.full_mask:
            raise InvalidSubset("mask outside element range")
        if not self.poset.is_antichain_mask(self.mask):
            raise InvalidSubset(f"not an antichain: {sorted(bits_of(self.mask))}")

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


@dataclass(frozen=True)
class OrbitReport:
    """One rowmotion orbit with its antichain-size statistics.

    The orbit is held as ideal masks, starting at the seed; ideals wraps
    them as validated IdealSets on first read.
    """

    poset: Poset
    length: int
    masks: tuple[int, ...]
    antichain_sizes: tuple[int, ...]
    average_size: Fraction

    @cached_property
    def ideals(self) -> tuple[IdealSet, ...]:
        return tuple(IdealSet(self.poset, m) for m in self.masks)

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
            average_size=Fraction(sum(sizes), len(masks)),
        )


def orbit_of(ideal: IdealSet, cap: int = DEFAULT_CAP) -> OrbitReport:
    return OrbitReport.from_seed_mask(ideal.poset, ideal.mask, cap)


def ideal_masks(poset: Poset, cap: int = DEFAULT_CAP) -> Iterator[int]:
    """All ideals as masks, in lexicographic order of the indicator sequence
    along the linear extension (empty ideal first, full ideal last)."""
    n = poset.n_elements
    if n == 0:
        yield 0
        return
    strict_down = [poset.down[i] ^ (1 << i) for i in range(n)]
    count = 0
    stack = [(0, 0)]
    while stack:
        i, mask = stack.pop()
        if i == n:
            count += 1
            if count > cap:
                raise CapExceeded(f"more than {cap} ideals")
            yield mask
            continue
        # push the 1-branch first so the 0-branch is explored first
        if strict_down[i] & ~mask == 0:
            stack.append((i + 1, mask | (1 << i)))
        stack.append((i + 1, mask))


def enumerate_ideals(poset: Poset, cap: int = DEFAULT_CAP) -> Iterator[IdealSet]:
    for mask in ideal_masks(poset, cap):
        yield IdealSet(poset, mask)


def all_orbits(poset: Poset, cap: int = DEFAULT_CAP) -> list[OrbitReport]:
    """Partition all ideals into rowmotion orbits, deterministically.

    Orbits are listed by their first seed in enumeration order, and each orbit
    starts at that seed.
    """
    seen: set[int] = set()
    orbits = []
    # materialize first: orbits of a capped ideal set stay within the cap,
    # while walking before the count is known could run far past it
    for mask in list(ideal_masks(poset, cap)):
        if mask in seen:
            continue
        report = OrbitReport.from_seed_mask(poset, mask, cap)
        seen.update(report.masks)
        orbits.append(report)
    return orbits


def operator_order(poset: Poset, cap: int = DEFAULT_CAP) -> int:
    """Order of rowmotion on the full ideal set (lcm of orbit lengths)."""
    lengths = [o.length for o in all_orbits(poset, cap)]
    return math.lcm(*lengths) if lengths else 1
