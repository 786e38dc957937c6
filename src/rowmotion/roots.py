"""Irreducible root systems and their coefficient-one layers.

Roots are stored as coordinate tuples over the simple roots.  The layer of a
simple root p collects the positive roots whose p-coefficient equals 1; it is
a graded poset under componentwise comparison, with rank given by height, and
it carries an order-reversing involution induced by the longest element of
the parabolic subgroup generated by the other simple reflections.  layer()
generates a layer from its pivot alone; root_system() lists every positive
root and is built only on request.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress
from operator import add, gt, sub

from ._record import TupleRecord
from .poset import CapExceeded, Poset

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


class RootSystem(TupleRecord):
    __slots__ = ()
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


def _arm(links: list[list[int]], prev: int, node: int) -> list[int]:
    """The nodes from node outward, away from prev, to the end of an
    unbranched arm."""
    arm = [node]
    while ahead := [k for k in links[node] if k != prev]:
        prev, node = node, ahead[0]
        arm.append(node)
    return arm


def _opposition(cartan: tuple[tuple[int, ...], ...], pivot: int) -> list[int]:
    """The opposition involution -w0 of the diagram without the pivot
    (0-based), as a permutation of the simple roots that fixes the pivot.

    On each component it is the reversal of A_k, the fork swap of D_k for
    odd k, the flip of E6, and the identity on every other type.
    """
    l = len(cartan)
    links = [[k for k in range(l) if k not in (j, pivot) and cartan[j][k]]
             for j in range(l)]
    sigma = list(range(l))
    seen = {pivot}
    for first in range(l):
        if first in seen:
            continue
        part = [first]
        seen.add(first)
        for j in part:
            for k in links[j]:
                if k not in seen:
                    seen.add(k)
                    part.append(k)
        if any(cartan[j][k] < -1 for j in part for k in links[j]):
            continue  # B, C, F4 and G2
        forks = [j for j in part if len(links[j]) == 3]
        if not forks:
            end = next(j for j in part if len(links[j]) <= 1)
            arm = _arm(links, -1, end)
            image = arm[::-1]
        else:
            arms = sorted((_arm(links, forks[0], k) for k in links[forks[0]]),
                          key=len)
            sizes = [len(arm) for arm in arms]
            if sizes[1] == 1 and len(part) % 2:  # D_k, k odd
                arm, image = arms[0], arms[1]
            elif sizes == [1, 2, 2]:  # E6
                arm, image = arms[1], arms[2]
            else:
                continue  # D_k for even k, E7 and E8
        for x, y in zip(arm, image):
            sigma[x], sigma[y] = y, x
    return sigma


class RootLayer(TupleRecord):
    """The coefficient-one layer of one simple root, as a graded poset.

    Element keys are the root coordinate tuples.  star is the induced
    order-reversing involution, as an index permutation on the poset.
    """

    __slots__ = ()
    family: str
    rank: int
    pivot: int
    poset: Poset
    star: tuple[int, ...]

    @property
    def system(self) -> RootSystem:
        """The whole positive root system, built on first use."""
        return root_system(self.family, self.rank)

    @property
    def name(self) -> str:
        return f"layer({self.family}{self.rank},{self.pivot})"

    def star_of(self, root: tuple[int, ...]) -> tuple[int, ...]:
        """Partner of a layer member, by coefficient tuple."""
        return self.poset.keys[self.star[self.poset.index_of(root)]]


@lru_cache(maxsize=None)
def layer(family: str, rank: int, pivot: int,
          cap: int | None = None) -> RootLayer:
    """The layer of the pivot (1-based) simple root, generated alone.

    The layer is an irreducible module of the Levi subalgebra of the other
    simple roots, with lowest weight alpha_p, so the alpha_j-strings for
    j != p walked up from alpha_p reach every member.  v + alpha_j is a root
    exactly when the alpha_j-string below v is longer than <v, alpha_j^vee>,
    and each such step is a cover.  The involution is the longest element
    of the Levi's Weyl group: alpha_p goes to the top member and alpha_j to
    -alpha_sigma(j), with sigma the opposition involution of the Levi.

    With a cap, CapExceeded is raised once more than cap members are
    generated, so a layer that is returned is whole.
    """
    family = family.upper()
    _validate_family(family, rank)
    if not 1 <= pivot <= rank:
        raise ValueError(f"pivot {pivot} outside 1..{rank}")
    # alpha_p plus the simple roots on the path to any other node is a
    # member, so a layer has at least rank members
    if cap is not None and rank > cap:
        raise CapExceeded(f"more than {cap} elements")
    cartan = cartan_matrix(family, rank)
    columns = list(zip(*cartan))
    p = pivot - 1
    members = [tuple(int(k == p) for k in range(rank))]
    index = {members[0]: 0}
    # per member: <v, alpha_j^vee> for every j, and the length of the
    # alpha_j-string below v; members are listed in height order, so every
    # string below a member is measured before the member is reached
    pairings = [list(columns[p])]
    downs = [[0] * rank]
    covers = []
    for i, v in enumerate(members):
        pairing, down = pairings[i], downs[i]
        for j in compress(range(rank), map(gt, down, pairing)):
            if j == p:
                continue
            w = v[:j] + (v[j] + 1,) + v[j + 1:]
            t = index.get(w)
            if t is None:
                t = index[w] = len(members)
                if cap is not None and t >= cap:
                    raise CapExceeded(f"more than {cap} elements")
                members.append(w)
                pairings.append(list(map(add, pairing, columns[j])))
                downs.append([0] * rank)
            downs[t][j] = down[j] + 1
            covers.append((v, w))
    members.sort(key=lambda v: (sum(v), v))
    elements = [(v, sum(v), ",".join(map(str, v))) for v in members]
    poset = Poset.from_cover_data(elements, covers)
    sigma = _opposition(cartan, p)
    # star(v) = top - sum_{j != p} v_j alpha_sigma(j); sigma fixes p, whose
    # coefficient 1 the extra alpha_p in base restores
    base = tuple(c + (k == p) for k, c in enumerate(members[-1]))
    star = []
    for v in members:
        image = tuple(map(sub, base, map(v.__getitem__, sigma)))
        if image not in index:
            raise AssertionError("layer is not stable under the involution")
        star.append(poset.index_of(image))
    if any(star[star[idx]] != idx for idx in range(poset.n_elements)):
        raise AssertionError("involution check failed")
    return RootLayer(family, rank, pivot, poset, tuple(star))
