"""Poset constructors: chains, products, ordinal sums, ideal lattices.

An expression tree of the frozen nodes below describes how a poset is
assembled; build() turns it into a concrete Poset.  Element keys record the
assembly (tuples for products, tagged pairs for sums, ideal masks for J), so
structural encoders can find their way around the result.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Union

from ._record import Record
from .poset import CapExceeded, DEFAULT_CAP, NotGraded, Poset, ideal_masks

PosetExpr = Union["Chain", "K", "H", "Prod", "OSum", "DUnion", "J", "Layer"]


class _Node(Record):
    """A frozen expression node.  Its fields are its slots, set once in
    __init__; assigning to one raises AttributeError, so copy and pickle
    rebuild a node through __init__."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


_set = object.__setattr__


class Chain(_Node):
    """Total order on n elements, keys 1..n."""

    __slots__ = _fields = __match_args__ = ("n",)

    def __init__(self, n: int):
        _set(self, "n", n)


class K(_Node):
    """Chain of length r, then two incomparable elements, then a chain of
    length r.  2r+2 elements, height 2r+1; the two middle elements sit at
    rank r+1 with keys str(r+1) and str(r+1)+"'".
    """

    __slots__ = _fields = __match_args__ = ("r",)

    def __init__(self, r: int):
        _set(self, "r", r)


class H(_Node):
    """Pairs (i, j) with 1 <= i <= j <= n ordered componentwise."""

    __slots__ = _fields = __match_args__ = ("n",)

    def __init__(self, n: int):
        _set(self, "n", n)


class _Pair(_Node):
    __slots__ = _fields = __match_args__ = ("left", "right")

    def __init__(self, left: PosetExpr, right: PosetExpr):
        _set(self, "left", left)
        _set(self, "right", right)


class Prod(_Pair):
    """Product order on pairs (a, b)."""

    __slots__ = ()


class OSum(_Pair):
    """Ordinal sum: everything on the left below everything on the right."""

    __slots__ = ()


class DUnion(_Pair):
    """Disjoint union.  Graded only when both parts have equal height."""

    __slots__ = ()


class J(_Node):
    """Lattice of order ideals of the inner poset, ordered by inclusion."""

    __slots__ = _fields = __match_args__ = ("inner",)

    def __init__(self, inner: PosetExpr):
        _set(self, "inner", inner)


class Layer(_Node):
    """Positive roots with pivot coefficient exactly 1 in a root system."""

    __slots__ = _fields = __match_args__ = ("family", "rank", "pivot")

    def __init__(self, family: str, rank: int, pivot: int):
        _set(self, "family", family)
        _set(self, "rank", rank)
        _set(self, "pivot", pivot)


def to_text(expr: PosetExpr) -> str:
    """Expression in the form the command-line parser accepts."""
    match expr:
        case Chain(n):
            return f"chain({n})"
        case K(r):
            return f"K({r})"
        case H(n):
            return f"H({n})"
        case Prod(a, b):
            return f"prod({to_text(a)},{to_text(b)})"
        case OSum(a, b):
            return f"osum({to_text(a)},{to_text(b)})"
        case DUnion(a, b):
            return f"dunion({to_text(a)},{to_text(b)})"
        case J(inner):
            return f"J({to_text(inner)})"
        case Layer(family, rank, pivot):
            return f"layer({family}{rank},{pivot})"
    raise TypeError(f"not a poset expression: {expr!r}")


def build(expr: PosetExpr, cap: int = DEFAULT_CAP) -> Poset:
    # every poset has more ideals than elements, so the ideal cap also
    # bounds the element count we are willing to materialize
    match expr:
        case Chain(n):
            result = _chain(n) if n <= cap else None
        case K(r):
            result = _k_poset(r) if 2 * (r + 1) <= cap else None
        case H(n):
            result = _h_poset(n) if n * (n + 1) <= 2 * cap else None
        case Prod(a, b):
            pa, pb = build(a, cap), build(b, cap)
            big = pa.n_elements * pb.n_elements > cap
            result = None if big else _product(pa, pb)
        case OSum(a, b):
            result = _ordinal_sum(build(a, cap), build(b, cap))
        case DUnion(a, b):
            result = _disjoint_union(build(a, cap), build(b, cap))
        case J(inner):
            result = _ideal_lattice(build(inner, cap), cap)
        case Layer(family, rank, pivot):
            from .roots import layer
            result = layer(family, rank, pivot, cap).poset
        case _:
            raise TypeError(f"not a poset expression: {expr!r}")
    if result is None or result.n_elements > cap:
        raise CapExceeded(f"more than {cap} elements")
    return result


def _chain(n: int) -> Poset:
    if n < 0:
        raise ValueError("chain length must be nonnegative")
    elements = [(i, i, str(i)) for i in range(1, n + 1)]
    covers = [(i, i + 1) for i in range(1, n)]
    return Poset.from_cover_data(elements, covers)


def _k_poset(r: int) -> Poset:
    if r < 0:
        raise ValueError("K parameter must be nonnegative")
    mid, mid2 = str(r + 1), str(r + 1) + "'"
    elements = [(str(i), i, str(i)) for i in range(1, r + 1)]
    elements += [(mid, r + 1, mid), (mid2, r + 1, mid2)]
    elements += [(str(i), i, str(i)) for i in range(r + 2, 2 * r + 2)]
    covers = []
    for i in range(1, r):
        covers.append((str(i), str(i + 1)))
    for i in range(r + 2, 2 * r + 1):
        covers.append((str(i), str(i + 1)))
    if r >= 1:
        covers += [(str(r), mid), (str(r), mid2),
                   (mid, str(r + 2)), (mid2, str(r + 2))]
    return Poset.from_cover_data(elements, covers)


def _h_poset(n: int) -> Poset:
    if n < 1:
        raise ValueError("H parameter must be positive")
    elements = [((i, j), i + j - 1, f"({i},{j})")
                for j in range(1, n + 1) for i in range(1, j + 1)]
    covers = []
    for j in range(1, n + 1):
        for i in range(1, j + 1):
            if i + 1 <= j:
                covers.append(((i, j), (i + 1, j)))
            if j + 1 <= n:
                covers.append(((i, j), (i, j + 1)))
    return Poset.from_cover_data(elements, covers)


def _product(pa: Poset, pb: Poset) -> Poset:
    elements = []
    for i in range(pa.n_elements):
        for j in range(pb.n_elements):
            key = (pa.keys[i], pb.keys[j])
            rank = pa.rank[i] + pb.rank[j] - 1
            elements.append((key, rank, f"({pa.labels[i]},{pb.labels[j]})"))
    covers = []
    for i, i2 in pa.covers:
        for j in range(pb.n_elements):
            covers.append(((pa.keys[i], pb.keys[j]), (pa.keys[i2], pb.keys[j])))
    for j, j2 in pb.covers:
        for i in range(pa.n_elements):
            covers.append(((pa.keys[i], pb.keys[j]), (pa.keys[i], pb.keys[j2])))
    return Poset.from_cover_data(elements, covers)


def _ordinal_sum(pa: Poset, pb: Poset) -> Poset:
    shift = pa.max_rank
    elements = [((0, pa.keys[i]), pa.rank[i], pa.labels[i])
                for i in range(pa.n_elements)]
    elements += [((1, pb.keys[j]), pb.rank[j] + shift, pb.labels[j])
                 for j in range(pb.n_elements)]
    covers = [((0, pa.keys[i]), (0, pa.keys[j])) for i, j in pa.covers]
    covers += [((1, pb.keys[i]), (1, pb.keys[j])) for i, j in pb.covers]
    tops = [i for i in range(pa.n_elements) if pa.rank[i] == pa.max_rank]
    bottoms = [j for j in range(pb.n_elements) if pb.rank[j] == 1]
    for i in tops:
        for j in bottoms:
            covers.append(((0, pa.keys[i]), (1, pb.keys[j])))
    return Poset.from_cover_data(elements, covers)


def _disjoint_union(pa: Poset, pb: Poset) -> Poset:
    if pa.max_rank != pb.max_rank:
        raise NotGraded(
            f"disjoint union of heights {pa.max_rank} and {pb.max_rank} "
            "is not graded"
        )
    elements = [((0, pa.keys[i]), pa.rank[i], pa.labels[i])
                for i in range(pa.n_elements)]
    elements += [((1, pb.keys[j]), pb.rank[j], pb.labels[j])
                 for j in range(pb.n_elements)]
    covers = [((0, pa.keys[i]), (0, pa.keys[j])) for i, j in pa.covers]
    covers += [((1, pb.keys[i]), (1, pb.keys[j])) for i, j in pb.covers]
    return Poset.from_cover_data(elements, covers)


def _ideal_lattice(p: Poset, cap: int) -> Poset:
    masks = list(ideal_masks(p, cap))
    width = max(p.n_elements, 1)
    elements = []
    for mask in masks:
        label = format(mask, f"0{width}b")[::-1] if p.n_elements else "-"
        elements.append((mask, mask.bit_count() + 1, label))
    strict_down = [p.down[i] ^ (1 << i) for i in range(p.n_elements)]
    covers = []
    for mask in masks:
        for x in range(p.n_elements):
            if not mask >> x & 1 and strict_down[x] & ~mask == 0:
                covers.append((mask, mask | (1 << x)))
    return Poset.from_cover_data(elements, covers)


@lru_cache(maxsize=None)
def grid_poset(m: int, n: int) -> Poset:
    """Product of two chains; element (i, j) has rank i + j - 1."""
    return build(Prod(Chain(m), Chain(n)))


@lru_cache(maxsize=None)
def k_product_poset(m: int, n: int) -> Poset:
    """Product of the chain 1..m with the two-strand poset on 2n elements."""
    if n < 1:
        raise ValueError("need n >= 1")
    return build(Prod(Chain(m), K(n - 1)))
