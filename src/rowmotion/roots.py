"""Irreducible root systems and their coefficient-one layers.

Roots are stored as coordinate tuples over the simple roots.  The layer of a
simple root p collects the positive roots whose p-coefficient equals 1; it is
a graded poset under componentwise comparison, with rank given by height, and
it carries an order-reversing involution induced by the longest element of
the parabolic subgroup generated by the other simple reflections.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .poset import Poset

FAMILY_RANK_RANGE = {
    "A": (1, None),
    "B": (2, None),
    "C": (2, None),
    "D": (3, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}


def _validate_family(family: str, rank: int) -> None:
    if family not in FAMILY_RANK_RANGE:
        raise ValueError(f"unknown family {family!r}")
    lo, hi = FAMILY_RANK_RANGE[family]
    if rank < lo or (hi is not None and rank > hi):
        raise ValueError(f"{family}{rank} is not a valid system")


def cartan_matrix(family: str, rank: int) -> tuple[tuple[int, ...], ...]:
    """Entry [i][j] is the pairing of the j-th simple root against the i-th
    coroot (0-based)."""
    _validate_family(family, rank)
    l = rank
    m = [[2 if i == j else 0 for j in range(l)] for i in range(l)]

    def bond(i: int, j: int, down: int = -1, up: int = -1) -> None:
        m[i][j] = down
        m[j][i] = up

    if family in ("A", "B", "C"):
        for i in range(l - 1):
            bond(i, i + 1)
        if family == "B" and l >= 2:
            # last simple root short: its coroot pairs to -2 against the
            # neighbour
            m[l - 1][l - 2] = -2
        if family == "C" and l >= 2:
            # last simple root long
            m[l - 2][l - 1] = -2
    elif family == "D":
        for i in range(l - 2):
            bond(i, i + 1)
        bond(l - 3, l - 1)
    elif family == "E":
        # path 1-3-4-5-6(-7-8) with node 2 hanging off node 4
        edges = [(1, 3), (3, 4), (4, 5), (5, 6), (2, 4)]
        if l >= 7:
            edges.append((6, 7))
        if l == 8:
            edges.append((7, 8))
        for a, b in edges:
            bond(a - 1, b - 1)
    elif family == "F":
        bond(0, 1)
        bond(2, 3)
        m[1][2] = -2
        m[2][1] = -1
    else:  # G
        m[0][1] = -3
        m[1][0] = -1
    return tuple(tuple(row) for row in m)


@dataclass(frozen=True)
class RootSystem:
    family: str
    rank: int
    cartan: tuple[tuple[int, ...], ...]
    positive_roots: tuple[tuple[int, ...], ...]

    @property
    def name(self) -> str:
        return f"{self.family}{self.rank}"


def _pairing(cartan, j: int, v: tuple[int, ...]) -> int:
    return sum(cartan[j][k] * v[k] for k in range(len(v)))


@lru_cache(maxsize=None)
def root_system(family: str, rank: int) -> RootSystem:
    """All positive roots, generated by root strings through the simples."""
    family = family.upper()
    cartan = cartan_matrix(family, rank)
    l = rank
    simples = [tuple(1 if k == j else 0 for k in range(l)) for j in range(l)]
    roots = set(simples)
    # strict height order so every downward string is fully known when its
    # length is measured
    pending: dict[int, list[tuple[int, ...]]] = {1: list(simples)}
    h = 1
    while h in pending:
        for v in pending[h]:
            for j in range(l):
                p = 0
                down = list(v)
                while True:
                    down[j] -= 1
                    if tuple(down) not in roots:
                        break
                    p += 1
                q = p - _pairing(cartan, j, v)
                up = list(v)
                for step in range(1, q + 1):
                    up[j] += 1
                    t = tuple(up)
                    if t not in roots:
                        roots.add(t)
                        pending.setdefault(h + step, []).append(t)
        h += 1
    ordered = sorted(roots, key=lambda v: (sum(v), v))
    return RootSystem(family, rank, cartan, tuple(ordered))


def _parabolic_longest_images(
    cartan: tuple[tuple[int, ...], ...], pivot: int
) -> list[tuple[int, ...]]:
    """Images of the simple roots under the longest element of the subgroup
    generated by the reflections other than the pivot (1-based)."""
    l = len(cartan)
    images = [tuple(1 if k == j else 0 for k in range(l)) for j in range(l)]
    others = [j for j in range(l) if j != pivot - 1]
    while True:
        j = next(
            (j for j in others if any(c > 0 for c in images[j])), None
        )
        if j is None:
            return images
        col = images[j]
        images = [
            tuple(
                images[k][t] - cartan[j][k] * col[t] for t in range(l)
            )
            for k in range(l)
        ]


@dataclass(frozen=True)
class RootLayer:
    """The coefficient-one layer of one simple root, as a graded poset.

    Element keys are the root coordinate tuples.  star is the induced
    order-reversing involution, as an index permutation on the poset.
    """

    system: RootSystem
    pivot: int
    poset: Poset
    star: tuple[int, ...]

    @property
    def name(self) -> str:
        return f"layer({self.system.name},{self.pivot})"

    def star_of(self, root: tuple[int, ...]) -> tuple[int, ...]:
        """Partner of a layer member, by coefficient tuple."""
        return self.poset.keys[self.star[self.poset.index_of(root)]]


@lru_cache(maxsize=None)
def layer(family: str, rank: int, pivot: int) -> RootLayer:
    system = root_system(family.upper(), rank)
    if not 1 <= pivot <= rank:
        raise ValueError(f"pivot {pivot} outside 1..{rank}")
    members = [
        v for v in system.positive_roots if v[pivot - 1] == 1
    ]
    heights = {v: sum(v) for v in members}
    base = min(heights.values())
    if base != 1:
        raise AssertionError("layer must contain the pivot simple root")
    elements = [
        (v, heights[v], ",".join(str(c) for c in v)) for v in members
    ]
    member_set = set(members)
    # a cover is a height-1 componentwise step, so a unit vector: the covers
    # of v are the members v + alpha_j
    covers = [(v, w) for v in members for j in range(rank)
              if (w := v[:j] + (v[j] + 1,) + v[j + 1:]) in member_set]
    poset = Poset.from_cover_data(elements, covers)
    images = _parabolic_longest_images(system.cartan, pivot)
    l = rank
    star_list = []
    for v in members:
        img = tuple(
            sum(v[k] * images[k][t] for k in range(l)) for t in range(l)
        )
        if img not in member_set:
            raise AssertionError("layer is not stable under the involution")
        star_list.append(poset.index_of(img))
    star = tuple(star_list)
    for idx in range(poset.n_elements):
        if star[star[idx]] != idx:
            raise AssertionError("involution check failed")
    return RootLayer(system, pivot, poset, star)
